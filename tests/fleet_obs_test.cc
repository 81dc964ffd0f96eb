// Fleet-level determinism contract of the flight recorder (DESIGN.md §9):
//   1. the merged metrics snapshot AND the virtual-time span trace are
//      byte-identical for every worker count, with and without fault
//      injection — the recorder only accounts the consumed prefix of runs,
//      on the coordinator, in run-index order;
//   2. a run publishes the same metrics under the fast-path interpreter and
//      the reference dispatch for every Table 1 app, once the
//      dispatch-engine-internal "engine." namespace is filtered out;
//   3. default monitored runs execute fused bodies (DESIGN.md §12) and say so
//      in engine.fused_retired.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/obs/flight_recorder.h"

namespace gist {
namespace {

FleetOptions BaseOptions(uint64_t fleet_seed, uint32_t jobs) {
  FleetOptions options;
  options.runs_per_iteration = 400;
  options.max_iterations = 8;
  options.fleet_seed = fleet_seed;
  options.jobs = jobs;
  return options;
}

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

struct RecordedFleet {
  FleetResult result;
  std::string metrics_json;
  std::string trace_json;
};

RecordedFleet RunRecordedFleet(const BugApp& app, FleetOptions options) {
  FlightRecorder recorder;
  options.recorder = &recorder;
  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app.root_cause_instrs();
  RecordedFleet recorded;
  recorded.result = fleet.Run([&](const FailureSketch& sketch) {
    for (InstrId id : root_cause) {
      if (!sketch.Contains(id)) {
        return false;
      }
    }
    return true;
  });
  recorded.metrics_json = recorder.MetricsJson();
  recorded.trace_json = recorder.TraceJson();
  return recorded;
}

TEST(FleetObsTest, ArtifactsAreBitIdenticalAcrossWorkerCounts) {
  // The acceptance bar: --jobs must never change a bit of either export,
  // faults off and faults on.
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  for (const bool faulted : {false, true}) {
    FleetOptions base = BaseOptions(2015, /*jobs=*/1);
    if (faulted) {
      base.faults = ModerateFaults();
    }
    const RecordedFleet sequential = RunRecordedFleet(*app, base);
    EXPECT_FALSE(sequential.metrics_json.empty());
    EXPECT_FALSE(sequential.trace_json.empty());
    for (const uint32_t jobs : {2u, 8u}) {
      FleetOptions parallel = base;
      parallel.jobs = jobs;
      const RecordedFleet other = RunRecordedFleet(*app, parallel);
      SCOPED_TRACE(std::string(faulted ? "faulted" : "healthy") + " jobs=" +
                   std::to_string(jobs));
      EXPECT_EQ(sequential.metrics_json, other.metrics_json);
      EXPECT_EQ(sequential.trace_json, other.trace_json);
      EXPECT_EQ(sequential.result.root_cause_found, other.result.root_cause_found);
    }
  }
}

TEST(FleetObsTest, RegistryAgreesWithFleetResultTallies) {
  // The registry is not a parallel bookkeeping world: its fleet.* counters
  // must equal the FleetResult tallies the merge loop maintains.
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  FlightRecorder recorder;
  FleetOptions options = BaseOptions(13, /*jobs=*/4);
  options.faults = ModerateFaults();
  options.recorder = &recorder;
  Fleet fleet(
      app->module(),
      [&app](uint64_t run_index, Rng& rng) { return app->MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app->root_cause_instrs();
  const FleetResult result = fleet.Run([&](const FailureSketch& sketch) {
    for (InstrId id : root_cause) {
      if (!sketch.Contains(id)) {
        return false;
      }
    }
    return true;
  });

  const MetricsRegistry& metrics = recorder.metrics();
  EXPECT_EQ(metrics.counter("fleet.runs.lost"), result.lost_runs);
  EXPECT_EQ(metrics.counter("fleet.runs.quarantined"), result.quarantined_runs);
  EXPECT_EQ(metrics.counter("fleet.retries"), result.retries);
  EXPECT_EQ(metrics.counter("fleet.iterations"), result.iterations.size());
  EXPECT_EQ(metrics.counter("server.failure_recurrences"), result.failure_recurrences);
  uint64_t failing = 0;
  uint64_t successful = 0;
  for (const FleetIterationStats& stats : result.iterations) {
    failing += stats.failing_runs;
    successful += stats.successful_runs;
  }
  EXPECT_EQ(metrics.counter("fleet.runs.failing"), failing);
  EXPECT_EQ(metrics.counter("fleet.runs.successful"), successful);
  // The virtual clock only moves forward through consumed work, and every
  // consumed monitored run leaves a span on the run lane.
  EXPECT_GT(recorder.now(), 0u);
  uint64_t run_spans = 0;
  for (const TraceSpan& span : recorder.spans()) {
    run_spans += span.name == "run" ? 1 : 0;
  }
  EXPECT_EQ(run_spans, metrics.counter("fleet.runs.consumed"));
}

// --- interpreter identity ---------------------------------------------------

// One monitored run of `snapshot`, with the interpreter mode pinned: the
// pre-decoded fast path when `reference` is false, one-virtual-call-per-event
// dispatch when true. Mirrors RunMonitored's snapshot flavor plus the obs
// sample the fleet would take.
MonitoredRun RunSnapshotWith(const Module& module, const PlanSnapshot& snapshot,
                             const Workload& workload, const GistOptions& options,
                             bool reference) {
  ClientRuntime runtime(module, snapshot, /*client_index=*/0, options.num_cores,
                        options.pt_buffer_bytes);
  VmOptions vm_options;
  vm_options.num_cores = options.num_cores;
  vm_options.observers = {&runtime};
  vm_options.hook = &runtime;
  if (reference) {
    vm_options.reference_dispatch = true;
  } else {
    vm_options.decoded = snapshot.decoded().get();
  }
  Vm vm(module, workload, vm_options);
  MonitoredRun run;
  run.result = vm.Run();
  run.trace = runtime.TakeTrace(/*run_id=*/0, run.result);
  run.obs.traced_branches = runtime.tracer().traced_branches();
  run.obs.watch_denied_arms = runtime.watchpoints().denied_arms();
  run.obs.watch_peak_active = runtime.watchpoints().peak_active();
  run.obs.unarmed_accesses = runtime.unarmed_accesses().size();
  return run;
}

TEST(FleetObsTest, FastPathAndReferencePublishIdenticalMetricsOnAllApps) {
  // Everything a run contributes to the merged snapshot — vm.*, pt.encode.*,
  // hw.watch.* — must be dispatch-mode independent. Only the "engine."
  // namespace (burst/batch bookkeeping of the fast path) may differ, and the
  // comparison filters exactly that prefix out.
  for (const std::unique_ptr<BugApp>& app : MakeAllApps()) {
    SCOPED_TRACE(app->info().name);
    const Module& module = app->module();

    // Find a failing workload with cheap unmonitored fast-path probes.
    bool have_failure = false;
    FailureReport first_failure;
    Workload failing_workload;
    for (uint64_t run = 0; run < 400 && !have_failure; ++run) {
      Rng rng(0x9e3779b97f4a7c15ull ^ (run * 0x45d9f3b5ull));
      const Workload workload = app->MakeWorkload(run, rng);
      Vm vm(module, workload, VmOptions{});
      const RunResult result = vm.Run();
      if (!result.ok() && result.failure.failing_instr != kNoInstr) {
        have_failure = true;
        first_failure = result.failure;
        failing_workload = workload;
      }
    }
    ASSERT_TRUE(have_failure) << "no failing workload among probes";

    GistOptions options;
    GistServer server(module, options);
    server.ReportFailure(first_failure);
    const PlanSnapshot snapshot = server.Snapshot();
    ASSERT_NE(snapshot.decoded(), nullptr);

    std::vector<Workload> workloads = {failing_workload};
    for (uint64_t run = 0; run < 2; ++run) {
      Rng rng(0x9e3779b97f4a7c15ull ^ (run * 0x45d9f3b5ull));
      workloads.push_back(app->MakeWorkload(run, rng));
    }

    MetricsRegistry fast_metrics;
    MetricsRegistry ref_metrics;
    for (const Workload& workload : workloads) {
      PublishRunMetrics(RunSnapshotWith(module, snapshot, workload, options, false),
                        &fast_metrics);
      PublishRunMetrics(RunSnapshotWith(module, snapshot, workload, options, true),
                        &ref_metrics);
    }
    // The "engine." namespace is the fast path's batching bookkeeping and may
    // differ between dispatch modes; everything else is byte-identical.
    EXPECT_EQ(fast_metrics.ToJson("engine."), ref_metrics.ToJson("engine."));
    EXPECT_GT(fast_metrics.counter("vm.instructions_retired"), 0u);
    EXPECT_EQ(fast_metrics.counter("vm.instructions_retired"),
              ref_metrics.counter("vm.instructions_retired"));
  }
}

TEST(FleetObsTest, DefaultMonitoredRunsReportFusedRetired) {
  // Fusion is part of the default fast path, monitored runs included: blocks
  // without hook sites run as fused bodies, and the publisher reports the
  // instructions they retired. An app whose runs execute a fusable block
  // with no hook site must therefore show engine.fused_retired > 0.
  for (const std::unique_ptr<BugApp>& app : MakeAllApps()) {
    SCOPED_TRACE(app->info().name);
    const Module& module = app->module();
    GistServer server(module);
    FailureReport first_failure;
    for (uint64_t run = 0; run < 400 && first_failure.failing_instr == kNoInstr; ++run) {
      Rng rng(0x9e3779b97f4a7c15ull ^ (run * 0x45d9f3b5ull));
      const RunResult result = Vm(module, app->MakeWorkload(run, rng), VmOptions{}).Run();
      if (!result.ok()) {
        first_failure = result.failure;
      }
    }
    ASSERT_NE(first_failure.failing_instr, kNoInstr) << "no failing workload among probes";
    server.ReportFailure(first_failure);
    const PlanSnapshot snapshot = server.Snapshot();

    GistOptions options;
    options.collect_profile = true;
    MetricsRegistry metrics;
    BlockProfile executed;
    for (uint64_t run = 0; run < 4; ++run) {
      Rng rng(DeriveSeed(2015, run));
      const MonitoredRun monitored =
          RunMonitored(module, snapshot, run, app->MakeWorkload(run, rng), options, run + 1);
      PublishRunMetrics(monitored, &metrics);
      executed.Merge(monitored.profile);
    }

    // Fusable blocks the runs entered with no hook site under any of their
    // client plans: a hook site deopts its block to per-op interpretation.
    auto hooked = [&](InstrId id) {
      for (uint64_t run = 0; run < 4; ++run) {
        const InstrumentationPlan& plan = snapshot.ForClient(run);
        if (plan.arm_before.count(id) != 0 || plan.arm_after.count(id) != 0) {
          return true;
        }
      }
      return false;
    };
    uint64_t eligible = 0;
    for (const FusedBlock* block : server.decoded()->fused_entries()) {
      // `ops` ends in the sentinel terminator, so it covers every instruction.
      if (block != nullptr && block->profile_index < executed.exec.size() &&
          executed.exec[block->profile_index] != 0 &&
          std::none_of(block->ops.begin(), block->ops.end(),
                       [&](const FusedOp& op) { return hooked(op.src->id); })) {
        ++eligible;
      }
    }
    ASSERT_GT(eligible, 0u) << "runs executed no fusable block";
    EXPECT_GT(metrics.counter("engine.fused_retired"), 0u);
    EXPECT_GT(metrics.counter("engine.fused_blocks"), 0u);
    EXPECT_GT(metrics.counter("engine.fused_chains"), 0u);
  }
}

}  // namespace
}  // namespace gist
