// Ordered run-ahead in the fleet (DESIGN.md §6): workers execute run
// indices ahead of the coordinator, which merges them strictly in index
// order and cancels the run-ahead at every replan, iteration end and the end
// of the probe phase. On chaos corpus programs (every fault class, small MTU)
// this suite checks that
//   1. FleetResult, recorder metrics and trace, campaign journal and profile
//      are byte-identical at jobs 1, 2, 3, 4 and 8;
//   2. a single-worker fleet runs nothing ahead, and a parallel one executes
//      at most `lookahead` runs per restart that it does not consume;
//   3. no dropped run reaches the recorder, the profiler or the campaign.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/core/renderer.h"
#include "src/coop/fleet.h"
#include "src/corpus/corpus.h"
#include "src/obs/campaign.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/profiler.h"

namespace gist {
namespace {

// Moderate attrition with every fault class firing and a 512 B MTU, as in
// the chaos benchmark workload.
FaultOptions ChaosFaults() {
  FaultOptions faults;
  faults.enabled = true;
  faults.kill_permille = 40;
  faults.truncate_pt_permille = 30;
  faults.corrupt_pt_permille = 30;
  faults.drop_wire_permille = 30;
  faults.reorder_wire_permille = 150;
  faults.exhaust_watchpoints_permille = 40;
  faults.delay_result_permille = 50;
  faults.wire_mtu_bytes = 512;
  return faults;
}

std::string Canonical(const Module& module, const FleetResult& result) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "found=%d root=%d instr=%u rec=%u sim=%a ovh=%a sigma=%u "
                "lost=%u quar=%u retries=%u\n",
                result.first_failure_found, result.root_cause_found,
                result.first_failure.failing_instr, result.failure_recurrences,
                result.sim_seconds, result.avg_overhead_percent, result.sigma_final,
                result.lost_runs, result.quarantined_runs, result.retries);
  std::string out = buffer;
  for (const FleetIterationStats& it : result.iterations) {
    std::snprintf(buffer, sizeof(buffer), "it=%u sigma=%u fail=%u ok=%u ovh=%a root=%d lost=%u "
                  "quar=%u retries=%u quorum=%d\n",
                  it.iteration, it.sigma, it.failing_runs, it.successful_runs,
                  it.avg_overhead_percent, it.root_cause_found, it.lost_runs,
                  it.quarantined_runs, it.retries, it.quorum_met);
    out += buffer;
  }
  return out + RenderFailureSketch(module, result.sketch);
}

struct Observed {
  std::string result;
  std::string metrics;
  std::string trace;
  std::string journal;
  std::string profile;
  uint64_t executed = 0;      // workload generator calls, from any thread
  uint64_t probes = 0;        // phase-1 runs the recorder consumed
  uint64_t monitored = 0;     // phase-2 runs the recorder consumed
  uint64_t restarts = 0;      // probe-phase end + iteration ends + re-freezes
  uint64_t refreezes = 0;
  uint64_t profiled_runs = 0;
  uint64_t published_runs = 0;  // monitored runs whose telemetry was published
};

Observed RunObserved(const GeneratedProgram& program, uint64_t fleet_seed, uint32_t jobs) {
  const CorpusManifest& manifest = program.manifest;
  FlightRecorder recorder;
  HotPathProfiler profiler;
  CampaignTracker campaign(manifest.name);
  FleetOptions options;
  options.gist.title = manifest.name;
  options.runs_per_iteration = 400;
  options.max_iterations = 8;
  options.fleet_seed = fleet_seed;
  options.jobs = jobs;
  options.faults = ChaosFaults();
  options.recorder = &recorder;
  options.profiler = &profiler;
  options.campaign = &campaign;
  std::atomic<uint64_t> executed{0};
  Fleet fleet(
      *program.module,
      [&manifest, &executed](uint64_t run_index, Rng& rng) {
        executed.fetch_add(1, std::memory_order_relaxed);
        return CorpusWorkload(manifest, run_index, rng);
      },
      options);
  const FleetResult result = fleet.Run([&manifest](const FailureSketch& sketch) {
    return std::all_of(manifest.root_cause.begin(), manifest.root_cause.end(),
                       [&sketch](InstrId id) { return sketch.Contains(id); });
  });
  Observed observed;
  observed.result = Canonical(*program.module, result);
  observed.metrics = recorder.MetricsJson();
  observed.trace = recorder.TraceJson();
  observed.journal = campaign.JournalJson();
  observed.profile = profiler.ProfileJson();
  observed.executed = executed.load();
  const MetricsRegistry& metrics = recorder.metrics();
  observed.probes = metrics.counter("fleet.runs.probes");
  observed.monitored = metrics.counter("fleet.runs.consumed");
  observed.refreezes = metrics.counter("fleet.refreezes");
  observed.restarts = 1 + result.iterations.size() + observed.refreezes;
  observed.profiled_runs = profiler.runs();
  observed.published_runs = metrics.counter("vm.monitored_runs");
  return observed;
}

class FleetStreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CorpusOptions corpus;
    corpus.seed = 7933;
    corpus.count = 14;  // two programs of each bug family
    programs_ = new std::vector<GeneratedProgram>(GenerateCorpus(corpus));
  }
  static void TearDownTestSuite() {
    delete programs_;
    programs_ = nullptr;
  }
  static std::vector<GeneratedProgram>* programs_;
};

std::vector<GeneratedProgram>* FleetStreamTest::programs_ = nullptr;

TEST_F(FleetStreamTest, EveryExportIsByteIdenticalAtEveryWorkerCount) {
  uint64_t refreezes = 0;
  std::set<uint64_t> first_failures;  // run index of each fleet's first failure
  for (const GeneratedProgram& program : *programs_) {
    for (const uint64_t salt : {0u, 1u, 2u, 3u, 4u, 5u}) {
      const uint64_t fleet_seed = DeriveSeed(7933 + salt, program.index);
      SCOPED_TRACE(program.manifest.name + " seed " + std::to_string(fleet_seed));
      const Observed sequential = RunObserved(program, fleet_seed, 1);
      ASSERT_GT(sequential.probes, 0u);
      refreezes += sequential.refreezes;
      first_failures.insert(sequential.probes - 1);
      for (const uint32_t jobs : {2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const Observed parallel = RunObserved(program, fleet_seed, jobs);
        EXPECT_EQ(sequential.result, parallel.result);
        EXPECT_EQ(sequential.metrics, parallel.metrics);
        EXPECT_EQ(sequential.trace, parallel.trace);
        EXPECT_EQ(sequential.journal, parallel.journal);
        EXPECT_EQ(sequential.profile, parallel.profile);
      }
    }
  }
  // The data exercises what the stream must get right: replans inside the
  // run-ahead window, and a first failure at every offset of the first
  // 4-worker window (probes 0..3), each cancelling a different share of the
  // probes run ahead.
  EXPECT_GT(refreezes, 0u);
  for (uint64_t offset = 0; offset < 4; ++offset) {
    EXPECT_EQ(first_failures.count(offset), 1u) << "no first failure at probe " << offset;
  }
}

TEST_F(FleetStreamTest, RunAheadIsBoundedAndNeverReachesTheExports) {
  for (const GeneratedProgram& program : *programs_) {
    const uint64_t fleet_seed = DeriveSeed(7933, program.index);
    SCOPED_TRACE(program.manifest.name);
    const Observed sequential = RunObserved(program, fleet_seed, 1);
    const uint64_t consumed = sequential.probes + sequential.monitored;
    // A single-worker fleet executes exactly the runs it consumes.
    EXPECT_EQ(sequential.executed, consumed);
    for (const uint32_t jobs : {2u, 4u, 8u}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs));
      const Observed parallel = RunObserved(program, fleet_seed, jobs);
      const uint64_t lookahead = jobs - 1;
      EXPECT_EQ(parallel.probes + parallel.monitored, consumed);
      EXPECT_GE(parallel.executed, consumed);
      EXPECT_LE(parallel.executed, consumed + parallel.restarts * lookahead);
      // Executed-but-dropped runs left no trace: the profiler and the
      // recorder's client telemetry saw exactly the consumed runs.
      EXPECT_EQ(parallel.profiled_runs, consumed);
      EXPECT_EQ(parallel.published_runs, parallel.monitored);
    }
  }
}

}  // namespace
}  // namespace gist
