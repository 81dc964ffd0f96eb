// Dispatch-tier determinism contract (DESIGN.md §12): the fast path, fused
// bodies included, and the reference dispatch are interchangeable. An
// all-fast fleet and an all-reference fleet must produce the same
// FleetResult and byte-identical metrics (modulo the dispatcher's own
// "engine." bookkeeping) / trace / profile exports, at every worker count,
// faults on and off. The TSan stage runs this suite too: every worker reads
// the shared DecodedModule's fused bodies concurrently, which is exactly the
// aliasing a race would hide in.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/profiler.h"

namespace gist {
namespace {

// Same moderate attrition profile as the chaos suite: every fault class
// fires, quorum holds.
FaultOptions ModerateFaults() {
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

struct TieredFleet {
  FleetResult result;
  std::string metrics_json;
  std::string trace_json;
  std::string profile_json;
};

// Cross-tier comparisons filter the "engine." namespace, exactly like the
// fast-vs-reference check in fleet_obs_test: those counters are the
// dispatcher's own bookkeeping (flush counts, batch sizes, fused-body
// activity) and legitimately differ between dispatch modes. Every
// pipeline-visible namespace — vm.*, profile.*, pt.*, hw.*, fleet.*,
// server.* — must match byte for byte, as must the span trace and the
// profile export.
TieredFleet RunTieredFleet(const BugApp& app, uint64_t fleet_seed, uint32_t jobs, ExecTier tier,
                           bool faulted) {
  FlightRecorder recorder;
  HotPathProfiler profiler;
  FleetOptions options;
  options.runs_per_iteration = 400;
  options.max_iterations = 8;
  options.fleet_seed = fleet_seed;
  options.jobs = jobs;
  options.recorder = &recorder;
  options.profiler = &profiler;
  options.gist.tier = tier;
  if (faulted) {
    options.faults = ModerateFaults();
  }
  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app.root_cause_instrs();
  TieredFleet tiered;
  tiered.result = fleet.Run([&](const FailureSketch& sketch) {
    for (InstrId id : root_cause) {
      if (!sketch.Contains(id)) {
        return false;
      }
    }
    return true;
  });
  tiered.metrics_json = recorder.MetricsJson("engine.");
  tiered.trace_json = recorder.TraceJson();
  tiered.profile_json = profiler.ProfileJson();
  return tiered;
}

void ExpectIdentical(const TieredFleet& a, const TieredFleet& b) {
  EXPECT_EQ(a.result.first_failure_found, b.result.first_failure_found);
  EXPECT_EQ(a.result.root_cause_found, b.result.root_cause_found);
  EXPECT_EQ(a.result.first_failure.failing_instr, b.result.first_failure.failing_instr);
  EXPECT_EQ(a.result.first_failure.MatchHash(), b.result.first_failure.MatchHash());
  EXPECT_EQ(a.result.failure_recurrences, b.result.failure_recurrences);
  EXPECT_EQ(a.result.sigma_final, b.result.sigma_final);
  EXPECT_EQ(a.result.sim_seconds, b.result.sim_seconds);
  EXPECT_EQ(a.result.avg_overhead_percent, b.result.avg_overhead_percent);
  ASSERT_EQ(a.result.sketch.statements.size(), b.result.sketch.statements.size());
  for (size_t i = 0; i < a.result.sketch.statements.size(); ++i) {
    const SketchStatement& sa = a.result.sketch.statements[i];
    const SketchStatement& sb = b.result.sketch.statements[i];
    EXPECT_EQ(sa.instr, sb.instr);
    EXPECT_EQ(sa.tid, sb.tid);
    EXPECT_EQ(sa.step, sb.step);
    EXPECT_EQ(sa.value, sb.value);
    EXPECT_EQ(sa.highlighted, sb.highlighted);
  }
  // Byte-identical exports, not field-wise similarity: any divergence in
  // counter values, span timing, or profile counts shows up here.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.profile_json, b.profile_json);
}

// apache-2 exercises mid-iteration refinement replans; transmission the
// watchpoint rotation.
class FleetTierTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FleetTierTest, FastFleetMatchesReferenceFleetByteForByte) {
  std::unique_ptr<BugApp> app = MakeAppByName(GetParam());
  ASSERT_NE(app, nullptr);
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faulted" : "healthy");
    const TieredFleet sequential = RunTieredFleet(*app, 2015, 1, ExecTier::kFast, faulted);
    ASSERT_TRUE(sequential.result.first_failure_found);
    for (const uint32_t jobs : {1u, 4u, 8u}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      if (jobs != 1) {
        ExpectIdentical(sequential, RunTieredFleet(*app, 2015, jobs, ExecTier::kFast, faulted));
      }
      ExpectIdentical(sequential,
                      RunTieredFleet(*app, 2015, jobs, ExecTier::kReference, faulted));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engine, FleetTierTest, ::testing::Values("apache-2", "transmission"));

}  // namespace
}  // namespace gist
