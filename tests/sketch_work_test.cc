// Sketch-build work-count invariant (DESIGN.md §15): with streaming
// statistics and shadow mode off, a sketch build decodes no PT stream at
// all — the reference run's executed set and per-thread positions were kept
// at ingest — so over a whole diagnosis the server's
// `stats.sketch_pt_decodes` is 0. Re-decoding the reference run per build
// made it linear in recurrences; re-decoding every stored failing trace made
// it quadratic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/corpus/corpus.h"

namespace gist {
namespace {

struct WorkCount {
  uint64_t builds = 0;
  uint64_t pt_decodes = 0;
  uint64_t recurrences = 0;
};

// Runs one fleet and checks the invariant against its server.
WorkCount CheckFleet(const Module& module, const WorkloadGenerator& generator,
                     const std::vector<InstrId>& root_cause, FleetOptions options) {
  Fleet fleet(module, generator, options);
  const FleetResult result = fleet.Run([&](const FailureSketch& sketch) {
    return std::all_of(root_cause.begin(), root_cause.end(),
                       [&](InstrId id) { return sketch.Contains(id); });
  });
  const GistServer& server = fleet.server();
  WorkCount count;
  count.builds = server.metrics().counter("stats.sketch_builds");
  count.pt_decodes = server.metrics().counter("stats.sketch_pt_decodes");
  count.recurrences = server.failure_recurrences();
  if (!result.first_failure_found) {
    EXPECT_EQ(count.builds, 0u);
    return count;
  }
  EXPECT_GT(count.builds, 0u);
  EXPECT_EQ(count.pt_decodes, 0u);
  EXPECT_EQ(result.sketch.pt_decodes, 0u);
  return count;
}

FleetOptions BaseOptions(uint64_t fleet_seed) {
  FleetOptions options;
  options.runs_per_iteration = 200;
  options.max_iterations = 6;
  options.fleet_seed = fleet_seed;
  options.jobs = 2;
  options.gist.stats_shadow = false;
  return options;
}

class SketchWorkTest : public ::testing::Test {
 protected:
  // The invariant is defined with shadow mode off; the environment knob
  // must not turn it on underneath the test.
  void SetUp() override { ASSERT_EQ(unsetenv("GIST_STATS_SHADOW"), 0); }
};

TEST_F(SketchWorkTest, DecodesNothingOnAllApps) {
  for (const auto& app : MakeAllApps()) {
    SCOPED_TRACE(app->info().name);
    FleetOptions options = BaseOptions(7);
    options.gist.title = app->info().name;
    CheckFleet(app->module(),
               [&app](uint64_t run_index, Rng& rng) { return app->MakeWorkload(run_index, rng); },
               app->root_cause_instrs(), options);
  }
}

TEST_F(SketchWorkTest, DecodesNothingOnCorpusSubset) {
  CorpusOptions gen;
  gen.seed = 2015;
  gen.count = 20;
  const std::vector<GeneratedProgram> programs = GenerateCorpus(gen);
  ASSERT_EQ(programs.size(), 20u);
  uint64_t max_recurrences = 0;
  for (const GeneratedProgram& program : programs) {
    const CorpusManifest& manifest = program.manifest;
    SCOPED_TRACE(manifest.name);
    FleetOptions options = BaseOptions(DeriveSeed(2015, program.index));
    options.gist.title = manifest.name;
    const WorkCount count = CheckFleet(
        *program.module,
        [&manifest](uint64_t run_index, Rng& rng) {
          return CorpusWorkload(manifest, run_index, rng);
        },
        manifest.root_cause, options);
    max_recurrences = std::max(max_recurrences, count.recurrences);
  }
  // The subset must include long diagnoses, where any per-build decode would
  // have broken the invariant many times over.
  EXPECT_GT(max_recurrences, 10u);
}

}  // namespace
}  // namespace gist
