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
#include "src/ir/parser.h"
#include "src/pt/tracer.h"
#include "src/replay/recorder.h"

namespace gist {

// Switches on the VM's runnable-count audit: every PickNext in Run() and
// every solo chain's settle checks the count against a scan of the thread
// table (a mismatch aborts the test binary).
class VmTestPeer {
 public:
  explicit VmTestPeer() { Vm::audit_runnable_.store(true); }
  ~VmTestPeer() { Vm::audit_runnable_.store(false); }
  VmTestPeer(const VmTestPeer&) = delete;
  VmTestPeer& operator=(const VmTestPeer&) = delete;
  static uint64_t audits() { return Vm::runnable_audits_.load(); }
};

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
  MonitoredRun run;
  run.result = vm.Run();
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

// --- solo-chain catch-up (DESIGN.md §12) ------------------------------------
// A fused chain whose thread is the only runnable one runs past its quantum
// and settles the crossed scheduler boundaries when it exits. These programs
// mix long solo fused loops with every runnable-set transition (spawn, a
// blocking join and lock, an unlock that wakes a waiter, exits that wake
// joiners) and compare fast against reference dispatch, quiet and under a
// full-program PT tracer, across quantum shapes and step/kill limits.

// main: a solo loop, two workers contending on a lock (one blocks, the
// holder runs a solo loop while main is blocked on a join), the holder's
// unlock wakes the waiter, the joins wake main, then a final solo loop.
// input 0 is a divisor the fused block after that loop uses: 0 faults
// inside the solo chain (on a scheduler boundary whenever every quantum is
// one instruction long).
constexpr const char* kCatchUpProgram = R"(
global mu 1 0
global cell 1 0
func worker(1) {
entry:
  r1 = addrof mu
  lock r1
  r2 = const 0
  r3 = const 1
  jmp ^spin
spin:
  r2 = add r2, r3
  r4 = lt r2, r0
  br r4, ^spin, ^release
release:
  r5 = addrof cell
  r6 = load r5
  r7 = add r6, r2
  store r5, r7
  unlock r1
  ret
}
func main() {
entry:
  r0 = const 0
  r1 = const 1
  r2 = const 300
  jmp ^warm
warm:
  r0 = add r0, r1
  r3 = lt r0, r2
  br r3, ^warm, ^fork
fork:
  r4 = const 120
  r5 = spawn @worker(r4)
  r6 = const 90
  r7 = spawn @worker(r6)
  join r5
  join r7
  r8 = const 0
  jmp ^cool
cool:
  r8 = add r8, r1
  r9 = lt r8, r2
  br r9, ^cool, ^check
check:
  r10 = input 0
  r11 = div r8, r10
  jmp ^tail
tail:
  r12 = addrof cell
  r13 = load r12
  print r13
  print r11
  ret
}
)";

struct TierRun {
  RunResult result;
  std::vector<std::vector<uint8_t>> pt;  // per core; empty for quiet runs
};

TierRun RunTier(const Module& module, const Workload& workload, VmOptions options,
                bool reference, bool traced) {
  options.reference_dispatch = reference;
  PtTracer tracer(options.num_cores, kDefaultPtBufferBytes, /*always_on=*/true);
  if (traced) {
    options.observers = {&tracer};
  }
  TierRun run;
  run.result = Vm(module, workload, options).Run();
  if (traced) {
    tracer.FlushAllPending();
    for (CoreId core = 0; core < tracer.num_cores(); ++core) {
      run.pt.push_back(tracer.buffer(core).bytes());
    }
  }
  return run;
}

// Fast vs reference on RunResult (failure, outputs, steps, retired,
// context_switches, bursts, killed) and on the PT bytes, quiet and traced.
// Returns the quiet fast run.
RunResult ExpectTiersAgree(const Module& module, const Workload& workload,
                           const VmOptions& options, const std::string& label) {
  RunResult quiet_fast;
  for (const bool traced : {false, true}) {
    const std::string where = label + (traced ? " traced" : " quiet");
    const TierRun fast = RunTier(module, workload, options, /*reference=*/false, traced);
    const TierRun ref = RunTier(module, workload, options, /*reference=*/true, traced);
    ExpectSameResult(fast.result, ref.result, where);
    EXPECT_EQ(fast.result.stats.bursts, ref.result.stats.bursts) << where;
    EXPECT_EQ(fast.result.killed, ref.result.killed) << where;
    EXPECT_EQ(fast.pt, ref.pt) << where;
    EXPECT_EQ(ref.result.stats.fused_chains, 0u) << where;
    if (!traced) {
      quiet_fast = fast.result;
    }
  }
  return quiet_fast;
}

std::unique_ptr<Module> ParseCatchUpProgram() {
  auto module = ParseModule(kCatchUpProgram);
  EXPECT_TRUE(module.ok()) << module.error().message();
  return module.ok() ? std::move(*module) : nullptr;
}

struct QuantumShape {
  uint32_t min_quantum;
  uint32_t max_quantum;
};

// Default quanta, a zero floor, a zero-only quantum (burst floor 1 at every
// boundary), fixed quanta (FixedBound of 1) and long ones.
constexpr QuantumShape kShapes[] = {{1, 12}, {0, 3}, {0, 0}, {1, 1}, {7, 7}, {20, 90}};

TEST(VmSoloCatchUpTest, MatchesReferenceAcrossQuantaAndSeeds) {
  std::unique_ptr<Module> module = ParseCatchUpProgram();
  ASSERT_NE(module, nullptr);
  VmTestPeer audit;
  const uint64_t audits_before = VmTestPeer::audits();
  for (const QuantumShape& shape : kShapes) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      for (const Word divisor : {Word{1}, Word{0}}) {
        Workload workload;
        workload.inputs = {divisor};
        workload.schedule_seed = seed;
        workload.min_quantum = shape.min_quantum;
        workload.max_quantum = shape.max_quantum;
        VmOptions options;
        options.num_cores = 1 + static_cast<uint32_t>(seed % 3);
        const std::string label = "quantum [" + std::to_string(shape.min_quantum) + "," +
                                  std::to_string(shape.max_quantum) + "] seed " +
                                  std::to_string(seed) + " divisor " + std::to_string(divisor);
        const RunResult fast = ExpectTiersAgree(*module, workload, options, label);
        EXPECT_EQ(fast.failure.type,
                  divisor == 0 ? FailureType::kArithmeticFault : FailureType::kNone)
            << label;
        EXPECT_GT(fast.stats.fused_chains, 0u) << label;
        // Solo boundaries are settled without a PickNext call.
        EXPECT_LT(fast.stats.picks * 2, fast.stats.bursts) << label;
      }
    }
  }
  EXPECT_GT(VmTestPeer::audits(), audits_before);
}

// max_steps / kill_after_steps landing inside a solo stretch: on a scheduler
// boundary, one step before it and one after it.
TEST(VmSoloCatchUpTest, StepAndKillLimitsInsideSoloStretches) {
  std::unique_ptr<Module> module = ParseCatchUpProgram();
  ASSERT_NE(module, nullptr);
  VmTestPeer audit;
  for (const QuantumShape& shape : kShapes) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Workload workload;
      workload.inputs = {1};
      workload.schedule_seed = seed;
      workload.min_quantum = shape.min_quantum;
      workload.max_quantum = shape.max_quantum;
      const std::string label = "quantum [" + std::to_string(shape.min_quantum) + "," +
                                std::to_string(shape.max_quantum) + "] seed " +
                                std::to_string(seed);
      VmOptions unlimited;
      unlimited.num_cores = 2;
      const RunResult full = ExpectTiersAgree(*module, workload, unlimited, label);
      ASSERT_TRUE(full.ok()) << label;
      // Windows inside main's first loop and inside its last one, both solo.
      const uint64_t windows[] = {150, full.stats.steps - 250};
      for (const uint64_t start : windows) {
        std::vector<uint64_t> bursts_at;  // per limit, from start on
        for (uint64_t limit = start; limit < start + 2 * (shape.max_quantum + 3); ++limit) {
          VmOptions capped = unlimited;
          capped.max_steps = limit;
          const RunResult hang =
              ExpectTiersAgree(*module, workload, capped, label + " max_steps " +
                                                              std::to_string(limit));
          EXPECT_EQ(hang.failure.type, FailureType::kHang) << label << " " << limit;
          EXPECT_EQ(hang.stats.steps, limit) << label;
          VmOptions killed = unlimited;
          killed.kill_after_steps = limit;
          const RunResult kill = ExpectTiersAgree(*module, workload, killed,
                                                  label + " kill " + std::to_string(limit));
          EXPECT_TRUE(kill.killed) << label << " " << limit;
          EXPECT_EQ(kill.stats.steps, limit) << label;
          bursts_at.push_back(hang.stats.bursts);
        }
        // A run capped at L counts the bursts started before L, so
        // bursts_at[i] > bursts_at[i - 1] puts a boundary at start + i - 1:
        // the limits on it, one before it and one after it all ran above.
        bool saw_boundary_with_neighbours = false;
        for (size_t i = 2; i < bursts_at.size(); ++i) {
          saw_boundary_with_neighbours |= bursts_at[i] > bursts_at[i - 1];
        }
        EXPECT_TRUE(saw_boundary_with_neighbours) << label << " window " << start;
      }
    }
  }
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
