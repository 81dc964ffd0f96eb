// Dispatch equivalence: the pre-decoded interpreter with subscription-masked,
// site-filtered observer dispatch (DESIGN.md §7), fused bodies for every
// fusable block included (DESIGN.md §12), must be observationally identical
// to the reference dispatch (every event to every subscriber, hook called at
// every instruction, no fusion). For every Table 1 app this runs the same
// workloads under both and asserts byte-identical PT packet streams,
// identical watchpoint event sequences, and identical FailureReports — the
// determinism contract of DESIGN.md §6 restated as a test. Every fusable
// block is fused, cold ones too, so every deopt edge (hook-site blocks,
// burst-budget exhaustion, unfusable successors) is exercised.

#include <gtest/gtest.h>

#include "src/apps/app.h"
#include "src/coop/wire.h"
#include "src/core/gist.h"
#include "src/replay/recorder.h"

namespace gist {
namespace {

// Deterministic per-run workload mapping (any fixed mapping works; this one
// mixes the run index so apps see varied schedules).
Workload WorkloadFor(const BugApp& app, uint64_t run_index) {
  Rng rng(0x9e3779b97f4a7c15ull ^ (run_index * 0x45d9f3b5ull));
  return app.MakeWorkload(run_index, rng);
}

void ExpectSameResult(const RunResult& got, const RunResult& want, const std::string& label) {
  EXPECT_EQ(got.failure.type, want.failure.type) << label;
  EXPECT_EQ(got.failure.failing_instr, want.failure.failing_instr) << label;
  EXPECT_EQ(got.failure.failing_thread, want.failure.failing_thread) << label;
  EXPECT_EQ(got.failure.message, want.failure.message) << label;
  EXPECT_EQ(got.failure.stack_trace, want.failure.stack_trace) << label;
  EXPECT_EQ(got.outputs, want.outputs) << label;
  EXPECT_EQ(got.stats.steps, want.stats.steps) << label;
  EXPECT_EQ(got.stats.retired, want.stats.retired) << label;
  EXPECT_EQ(got.stats.mem_accesses, want.stats.mem_accesses) << label;
  EXPECT_EQ(got.stats.branches, want.stats.branches) << label;
  EXPECT_EQ(got.stats.context_switches, want.stats.context_switches) << label;
  EXPECT_EQ(got.stats.threads_created, want.stats.threads_created) << label;
}

void ExpectSameWatchEvents(const std::vector<WatchEvent>& got, const std::vector<WatchEvent>& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, want[i].seq) << label << " event " << i;
    EXPECT_EQ(got[i].tid, want[i].tid) << label << " event " << i;
    EXPECT_EQ(got[i].instr, want[i].instr) << label << " event " << i;
    EXPECT_EQ(got[i].addr, want[i].addr) << label << " event " << i;
    EXPECT_EQ(got[i].value, want[i].value) << label << " event " << i;
    EXPECT_EQ(got[i].is_write, want[i].is_write) << label << " event " << i;
  }
}

void ExpectSameTrace(const RunTrace& got, const RunTrace& want, const std::string& label) {
  EXPECT_EQ(got.failed, want.failed) << label;
  ASSERT_EQ(got.pt_buffers.size(), want.pt_buffers.size()) << label;
  for (size_t core = 0; core < got.pt_buffers.size(); ++core) {
    // Byte-identical PT packet streams, per core.
    EXPECT_EQ(got.pt_buffers[core], want.pt_buffers[core]) << label << " core " << core;
  }
  ExpectSameWatchEvents(got.watch_events, want.watch_events, label);
  EXPECT_EQ(got.activity.pt_bytes, want.activity.pt_bytes) << label;
  EXPECT_EQ(got.activity.pt_toggles, want.activity.pt_toggles) << label;
  EXPECT_EQ(got.activity.watch_traps, want.activity.watch_traps) << label;
  EXPECT_EQ(got.activity.watch_arms, want.activity.watch_arms) << label;
  EXPECT_EQ(got.baseline_instructions, want.baseline_instructions) << label;
}

// One monitored run of `snapshot` under the given tier.
MonitoredRun RunSnapshot(const Module& module, const PlanSnapshot& snapshot,
                         const Workload& workload, const GistOptions& options, ExecTier tier) {
  ClientRuntime runtime(module, snapshot, /*client_index=*/0, options.num_cores,
                        options.pt_buffer_bytes);
  VmOptions vm_options;
  vm_options.num_cores = options.num_cores;
  vm_options.observers = {&runtime};
  vm_options.hook = &runtime;
  vm_options.decoded = snapshot.decoded().get();
  vm_options.reference_dispatch = tier == ExecTier::kReference;
  Vm vm(module, workload, vm_options);
  MonitoredRun run{vm.Run(), RunTrace{}};
  run.trace = runtime.TakeTrace(/*run_id=*/0, run.result);
  return run;
}

class VmFastPathTest : public ::testing::TestWithParam<const char*> {};

TEST_P(VmFastPathTest, FastPathMatchesReferenceDispatch) {
  std::unique_ptr<BugApp> app = MakeAppByName(GetParam());
  ASSERT_NE(app, nullptr);
  const Module& module = app->module();
  GistOptions options;
  GistServer server(module, options);
  uint64_t fusable_blocks = 0;
  for (const FusedBlock* entry : server.decoded()->fused_entries()) {
    fusable_blocks += entry != nullptr ? 1 : 0;
  }
  ASSERT_GT(fusable_blocks, 0u) << GetParam() << ": no fusable block in the whole app";

  // Unmonitored probes: fast path vs reference over a spread of workloads,
  // recording the first failing one for the monitored comparison below.
  // Quiet fast runs take the pure straight-line fused path.
  bool have_failure = false;
  FailureReport first_failure;
  Workload failing_workload;
  uint64_t compared = 0;
  uint64_t fused_chains = 0;
  for (uint64_t run = 0; run < 400 && (compared < 3 || !have_failure); ++run) {
    const Workload workload = WorkloadFor(*app, run);

    VmOptions fast_options;
    fast_options.decoded = server.decoded().get();
    Vm fast_vm(module, workload, fast_options);
    const RunResult fast = fast_vm.Run();
    fused_chains += fast.stats.fused_chains;

    const bool interesting = compared < 3 || (!fast.ok() && !have_failure);
    if (interesting) {
      VmOptions ref_options;
      ref_options.decoded = server.decoded().get();
      ref_options.reference_dispatch = true;
      Vm ref_vm(module, workload, ref_options);
      const RunResult ref = ref_vm.Run();
      EXPECT_EQ(ref.stats.fused_chains, 0u) << GetParam() << ": reference dispatch fused";
      ExpectSameResult(fast, ref,
                       std::string(GetParam()) + " unmonitored run " + std::to_string(run));
      ++compared;
    }
    if (!fast.ok() && !have_failure && fast.failure.failing_instr != kNoInstr) {
      have_failure = true;
      first_failure = fast.failure;
      failing_workload = workload;
    }
  }
  ASSERT_TRUE(have_failure) << GetParam() << ": no failing workload among probes";
  EXPECT_GT(fused_chains, 0u) << GetParam() << ": fused bodies never engaged on a quiet run";

  // Monitored comparison: PT + watchpoints + arming hooks, the full client
  // runtime, over the failing workload and a handful of others.
  server.ReportFailure(first_failure);
  const PlanSnapshot snapshot = server.Snapshot();
  ASSERT_NE(snapshot.decoded(), nullptr);

  std::vector<Workload> monitored = {failing_workload};
  for (uint64_t run = 0; run < 3; ++run) {
    monitored.push_back(WorkloadFor(*app, run));
  }
  for (size_t i = 0; i < monitored.size(); ++i) {
    const std::string label =
        std::string(GetParam()) + " monitored workload " + std::to_string(i);
    const MonitoredRun fast = RunSnapshot(module, snapshot, monitored[i], options, ExecTier::kFast);
    const MonitoredRun ref =
        RunSnapshot(module, snapshot, monitored[i], options, ExecTier::kReference);
    ExpectSameResult(ref.result, fast.result, label);
    ExpectSameTrace(ref.trace, fast.trace, label);
  }

  // Recorder comparison: the full-event observer must log the same
  // interleaved stream either way (its unfiltered retired subscription keeps
  // fused bodies disengaged — asserted).
  {
    Recorder fast_recorder;
    VmOptions fast_options;
    fast_options.decoded = server.decoded().get();
    fast_options.observers = {&fast_recorder};
    Vm fast_vm(module, failing_workload, fast_options);
    const RunResult fast = fast_vm.Run();
    EXPECT_EQ(fast.stats.fused_chains, 0u)
        << GetParam() << ": fused bodies must deopt for unfiltered retired subscribers";

    Recorder ref_recorder;
    VmOptions ref_options;
    ref_options.observers = {&ref_recorder};
    ref_options.reference_dispatch = true;
    Vm ref_vm(module, failing_workload, ref_options);
    const RunResult ref = ref_vm.Run();

    ExpectSameResult(fast, ref, std::string(GetParam()) + " recorded");
    ASSERT_EQ(fast_recorder.log().size(), ref_recorder.log().size()) << GetParam();
    for (size_t i = 0; i < fast_recorder.log().size(); ++i) {
      const RecordEvent& a = fast_recorder.log()[i];
      const RecordEvent& b = ref_recorder.log()[i];
      ASSERT_TRUE(a.kind == b.kind && a.tid == b.tid && a.instr == b.instr && a.addr == b.addr &&
                  a.value == b.value && a.flag == b.flag)
          << GetParam() << ": record log diverges at event " << i;
    }
  }
}

// The plan-only RunMonitored (the `gist diagnose` path) honours
// GistOptions::tier: a reference run never fuses and ships the fast run's
// trace byte for byte.
TEST_P(VmFastPathTest, PlanOnlyRunMonitoredHonoursTier) {
  std::unique_ptr<BugApp> app = MakeAppByName(GetParam());
  ASSERT_NE(app, nullptr);
  const Module& module = app->module();
  FailureReport failure;
  Workload failing_workload;
  for (uint64_t run = 0; run < 400 && failure.failing_instr == kNoInstr; ++run) {
    const Workload workload = WorkloadFor(*app, run);
    const RunResult result = Vm(module, workload, VmOptions{}).Run();
    if (!result.ok()) {
      failure = result.failure;
      failing_workload = workload;
    }
  }
  ASSERT_NE(failure.failing_instr, kNoInstr) << GetParam() << ": no failing workload";
  GistServer server(module, GistOptions{});
  server.ReportFailure(failure);

  uint64_t fast_chains = 0;
  for (const Workload& workload : {failing_workload, WorkloadFor(*app, 1)}) {
    GistOptions fast_options;
    fast_options.tier = ExecTier::kFast;
    const MonitoredRun fast = RunMonitored(module, server.plan(), workload, fast_options, 1);
    GistOptions ref_options;
    ref_options.tier = ExecTier::kReference;
    const MonitoredRun ref = RunMonitored(module, server.plan(), workload, ref_options, 1);
    EXPECT_EQ(ref.result.stats.fused_chains, 0u) << GetParam() << ": reference run fused";
    EXPECT_EQ(SerializeRunTrace(ref.trace), SerializeRunTrace(fast.trace)) << GetParam();
    ExpectSameResult(fast.result, ref.result, std::string(GetParam()) + " plan-only");
    fast_chains += fast.result.stats.fused_chains;
  }
  EXPECT_GT(fast_chains, 0u) << GetParam() << ": fast runs never fused";
}

INSTANTIATE_TEST_SUITE_P(AllApps, VmFastPathTest,
                         ::testing::Values("pbzip2", "apache-1", "apache-2", "apache-3",
                                           "apache-4", "cppcheck-1", "cppcheck-2", "curl",
                                           "transmission", "sqlite", "memcached"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace gist
