// Digest-walk equivalence (DESIGN.md §16). Ingest reduces a successful
// run's PT streams to digests: the decode's stats and error plus the sorted,
// unique branch-outcome keys. DigestPt must equal the reduction of DecodePt
// on every stream a fleet uploads — all 11 apps and a corpus subset — and
// on a seeded mutation loop over those streams, where truncations,
// bit flips and spliced bytes drive the walker into every fault class.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/corpus/corpus.h"
#include "src/pt/decoder.h"
#include "src/support/rng.h"

namespace gist {
namespace {

// Compares field by field, so a failure names what diverged.
void ExpectDigestMatchesDecode(const Module& module, const std::vector<uint8_t>& bytes,
                               const std::string& what) {
  const PtDecodeResult full = DecodePt(module, /*core=*/0, bytes);
  const PtStreamDigest digest = DigestPt(module, bytes);
  EXPECT_TRUE(digest.stats == full.stats) << what;
  ASSERT_EQ(digest.error.has_value(), full.error.has_value()) << what;
  if (full.error.has_value()) {
    EXPECT_EQ(digest.error->fault, full.error->fault) << what;
    EXPECT_EQ(digest.error->offset, full.error->offset) << what;
    EXPECT_EQ(digest.error->message, full.error->message) << what;
  }
  EXPECT_EQ(digest.branch_keys, PtBranchKeys(full.trace)) << what;
  EXPECT_TRUE(std::is_sorted(digest.branch_keys.begin(), digest.branch_keys.end())) << what;
}

struct Streams {
  uint64_t checked = 0;
  uint64_t with_branches = 0;
  std::vector<std::vector<uint8_t>> sample;  // nonempty streams kept for mutation
};

// Runs one fleet and checks every PT stream of every upload it kept.
void CheckFleetStreams(const Module& module, const WorkloadGenerator& generator,
                       uint64_t fleet_seed, const std::string& name, Streams* streams) {
  FleetOptions options;
  options.runs_per_iteration = 100;
  options.max_iterations = 3;
  options.fleet_seed = fleet_seed;
  options.gist.title = name;
  // The server retains the raw uploads only in shadow mode.
  options.gist.stats_shadow = true;
  Fleet fleet(module, generator, options);
  fleet.Run([](const FailureSketch&) { return false; });
  for (const RunTrace& trace : fleet.server().traces()) {
    for (const std::vector<uint8_t>& bytes : trace.pt_buffers) {
      ExpectDigestMatchesDecode(module, bytes, name);
      ++streams->checked;
      if (!DigestPt(module, bytes).branch_keys.empty()) {
        ++streams->with_branches;
      }
      if (!bytes.empty() && streams->sample.size() < 8) {
        streams->sample.push_back(bytes);
      }
    }
  }
}

// Truncations, bit flips, byte splices and byte drops of a valid stream.
void CheckMutations(const Module& module, const std::vector<std::vector<uint8_t>>& sample,
                    uint64_t seed, const std::string& name) {
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes = sample[trial % sample.size()];
    switch (rng.NextBelow(4)) {
      case 0:
        bytes.resize(rng.NextBelow(bytes.size()));
        break;
      case 1:
        for (uint64_t flips = 1 + rng.NextBelow(4); flips > 0; --flips) {
          bytes[rng.NextBelow(bytes.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
        }
        break;
      case 2:
        bytes.insert(bytes.begin() + static_cast<long>(rng.NextBelow(bytes.size() + 1)),
                     static_cast<uint8_t>(rng.NextU64()));
        break;
      default:
        bytes.erase(bytes.begin() + static_cast<long>(rng.NextBelow(bytes.size())));
        break;
    }
    ExpectDigestMatchesDecode(module, bytes, name + " mutation " + std::to_string(trial));
  }
}

TEST(PtDigestTest, MatchesDecodeOnEveryAppUploadAndItsMutations) {
  for (const auto& app : MakeAllApps()) {
    const std::string name = app->info().name;
    SCOPED_TRACE(name);
    Streams streams;
    CheckFleetStreams(
        app->module(),
        [&app](uint64_t run_index, Rng& rng) { return app->MakeWorkload(run_index, rng); },
        /*fleet_seed=*/11, name, &streams);
    EXPECT_GT(streams.checked, 0u);
    EXPECT_GT(streams.with_branches, 0u);
    ASSERT_FALSE(streams.sample.empty());
    CheckMutations(app->module(), streams.sample, /*seed=*/streams.checked, name);
  }
}

TEST(PtDigestTest, MatchesDecodeOnCorpusSubset) {
  CorpusOptions gen;
  gen.seed = 2015;
  gen.count = 20;
  const std::vector<GeneratedProgram> programs = GenerateCorpus(gen);
  ASSERT_EQ(programs.size(), 20u);
  Streams streams;
  for (const GeneratedProgram& program : programs) {
    const CorpusManifest& manifest = program.manifest;
    SCOPED_TRACE(manifest.name);
    CheckFleetStreams(
        *program.module,
        [&manifest](uint64_t run_index, Rng& rng) {
          return CorpusWorkload(manifest, run_index, rng);
        },
        DeriveSeed(2015, program.index), manifest.name, &streams);
  }
  EXPECT_GT(streams.with_branches, 100u);
}

}  // namespace
}  // namespace gist
