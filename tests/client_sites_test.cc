// Client-site delivery (DESIGN.md §7): a ClientRuntime hands the VM its
// plan's compiled SiteTable, and the VM delivers it a retired event only at
// PT-stop sites, an access only at watch sites or armed addresses, and a
// block entry only at PT-start blocks. These tests check that filter against
// reference dispatch, which delivers every event:
//   * the runtime receives exactly the retired events of PT-stop executions,
//     the accesses at watch sites plus armed-address hits, and the entries
//     of PT-start blocks;
//   * the RunTrace is byte-identical to reference dispatch across watchpoint
//     budgets, static watch addresses, and stop sites on br/call/ret;
//   * every event reaches the runtime at once: the interleaved sequence of
//     everything it is delivered equals the reference run's events filtered
//     the same way, across event classes;
//   * a second subscriber without a table turns filtering off;
//   * RunStats' retired, branch and access counts equal an independent
//     per-event counter's under reference dispatch, and
//     RunTrace::baseline_instructions (the VM's retired count) equals that
//     count on the fast path, for every Table 1 app and every failure kind.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/wire.h"
#include "src/core/gist.h"
#include "src/corpus/corpus.h"
#include "src/ir/parser.h"

namespace gist {
namespace {

constexpr uint32_t kCores = 4;

// Counts every retired, branch and access event it is delivered, one call
// at a time — independent of the VM's own RunStats tallies.
class EventCounter : public ExecutionObserver {
 public:
  uint32_t SubscribedEvents() const override {
    return kEvInstrRetired | kEvBranch | kEvMemAccess;
  }
  void OnInstrRetired(ThreadId, CoreId, InstrId) override { ++retired; }
  void OnBranch(ThreadId, CoreId, InstrId, bool) override { ++branches; }
  void OnMemAccess(const MemAccessEvent&) override { ++mem_accesses; }

  uint64_t retired = 0;
  uint64_t branches = 0;
  uint64_t mem_accesses = 0;
};

// A client runtime that records what the VM actually delivers to it.
class CountingRuntime : public ClientRuntime {
 public:
  using ClientRuntime::ClientRuntime;

  void OnInstrRetired(ThreadId tid, CoreId core, InstrId instr) override {
    ++retired[instr];
    ClientRuntime::OnInstrRetired(tid, core, instr);
  }
  void OnMemAccess(const MemAccessEvent& event) override {
    mem_seqs.push_back(event.seq);
    ClientRuntime::OnMemAccess(event);
  }
  void OnBlockEnter(ThreadId tid, CoreId core, FunctionId function, BlockId block) override {
    ++block_enters;
    ClientRuntime::OnBlockEnter(tid, core, function, block);
  }

  std::map<InstrId, uint64_t> retired;
  std::vector<uint64_t> mem_seqs;
  uint64_t block_enters = 0;
};

// Under reference dispatch (every event delivered), records the events the
// site filter must let through to `runtime`: retired events at PT-stop
// sites, accesses at watch sites or at an address `runtime` watches, and
// entries of PT-start blocks.
// Listed after the runtime, so a watch-site access has already armed; that
// never matters here, since any access at a watch site passes anyway.
class SiteOracle : public ExecutionObserver {
 public:
  SiteOracle(const SiteTable& sites, const ClientRuntime& runtime)
      : sites_(sites), runtime_(runtime) {}

  void OnInstrRetired(ThreadId, CoreId, InstrId instr) override {
    if ((sites_.instrs[instr] & kSitePtStop) != 0) {
      ++stops[instr];
    }
  }
  void OnMemAccess(const MemAccessEvent& event) override {
    const bool watch_site = (sites_.instrs[event.instr] & kSiteWatch) != 0;
    if (watch_site || runtime_.watchpoints().IsWatched(event.addr)) {
      mem_seqs.push_back(event.seq);
      watch_site_accesses += watch_site ? 1 : 0;
    }
  }
  void OnBlockEnter(ThreadId, CoreId, FunctionId function, BlockId block) override {
    start_enters += (sites_.BlockFlags(function, block) & kSitePtStart) != 0 ? 1 : 0;
  }

  std::map<InstrId, uint64_t> stops;
  std::vector<uint64_t> mem_seqs;
  uint64_t watch_site_accesses = 0;
  uint64_t start_enters = 0;

 private:
  const SiteTable& sites_;
  const ClientRuntime& runtime_;
};

struct ClientRun {
  RunResult result;
  RunTrace trace;
  // What the runtime received.
  std::map<InstrId, uint64_t> retired;
  std::vector<uint64_t> mem_seqs;
  uint64_t block_enters = 0;
};

// One client run of `plan` with `sites` on `slots` debug registers. The
// reference run attaches `oracle_out` (when given) after the runtime; the
// fast run attaches `extra` after it.
ClientRun RunClient(const Module& module, const InstrumentationPlan& plan, const SiteTable& sites,
                    const Workload& workload, uint32_t slots, bool reference,
                    std::unique_ptr<SiteOracle>* oracle_out = nullptr,
                    ExecutionObserver* extra = nullptr) {
  CountingRuntime runtime(module, plan, sites, kCores, kDefaultPtBufferBytes, slots);
  VmOptions options;
  options.num_cores = kCores;
  options.observers = {&runtime};
  options.hook = &runtime;
  options.reference_dispatch = reference;
  if (oracle_out != nullptr) {
    *oracle_out = std::make_unique<SiteOracle>(sites, runtime);
    options.observers.push_back(oracle_out->get());
  }
  if (extra != nullptr) {
    options.observers.push_back(extra);
  }
  Vm vm(module, workload, options);
  ClientRun run;
  run.result = vm.Run();
  run.trace = runtime.TakeTrace(/*run_id=*/1, run.result);
  run.retired = runtime.retired;
  run.mem_seqs = runtime.mem_seqs;
  run.block_enters = runtime.block_enters;
  return run;
}

// Totals across a test's comparisons, so each test can assert that the
// paths it means to cover actually ran.
struct Coverage {
  uint64_t start_enters = 0;
  uint64_t stop_executions = 0;
  uint64_t watch_site_accesses = 0;
  uint64_t armed_hits = 0;
};

// Runs `plan` fast and under reference dispatch and checks the fast run's
// deliveries against the oracle and its trace against the reference trace.
void ExpectExactDelivery(const Module& module, const InstrumentationPlan& plan,
                         const Workload& workload, uint32_t slots, const std::string& label,
                         Coverage* coverage) {
  const SiteTable sites = CompileSiteTable(module, plan);
  const ClientRun fast = RunClient(module, plan, sites, workload, slots, /*reference=*/false);
  std::unique_ptr<SiteOracle> oracle;
  const ClientRun ref =
      RunClient(module, plan, sites, workload, slots, /*reference=*/true, &oracle);

  EXPECT_EQ(fast.retired, oracle->stops) << label << ": retired deliveries != stop executions";
  EXPECT_EQ(fast.mem_seqs, oracle->mem_seqs)
      << label << ": access deliveries != watch-site accesses + armed hits";
  EXPECT_EQ(fast.block_enters, oracle->start_enters)
      << label << ": block-enter deliveries != PT-start block entries";
  EXPECT_EQ(fast.result.stats.mem_deliveries, fast.mem_seqs.size()) << label;
  uint64_t stops = 0;
  for (const auto& [instr, count] : oracle->stops) {
    stops += count;
  }
  EXPECT_EQ(fast.result.stats.retired_deliveries, stops) << label;
  EXPECT_EQ(SerializeRunTrace(fast.trace), SerializeRunTrace(ref.trace))
      << label << ": RunTrace differs from reference dispatch";
  EXPECT_EQ(fast.result.stats.retired, ref.result.stats.retired) << label;

  coverage->start_enters += oracle->start_enters;
  coverage->stop_executions += stops;
  coverage->watch_site_accesses += oracle->watch_site_accesses;
  coverage->armed_hits += oracle->mem_seqs.size() - oracle->watch_site_accesses;
}

// An app workload at a work scale large enough that most of the run lies
// outside the plan's sites.
Workload AppWorkload(const BugApp& app, uint64_t run_index) {
  Rng rng(DeriveSeed(0x5175, run_index));
  Workload workload = app.MakeWorkload(run_index, rng);
  if (workload.inputs.size() > kWorkScaleInput) {
    workload.inputs[kWorkScaleInput] = 40;
  }
  return workload;
}

// The first failing workload among the app's first 400, with its failure.
bool FindAppFailure(const BugApp& app, Workload* workload, FailureReport* failure) {
  for (uint64_t run = 0; run < 400; ++run) {
    const Workload candidate = AppWorkload(app, run);
    Vm vm(app.module(), candidate, VmOptions{});
    const RunResult result = vm.Run();
    if (!result.ok() && result.failure.failing_instr != kNoInstr) {
      *workload = candidate;
      *failure = result.failure;
      return true;
    }
  }
  return false;
}

const char* const kApps[] = {"pbzip2",     "apache-1",   "apache-2", "apache-3",
                             "apache-4",   "cppcheck-1", "cppcheck-2", "curl",
                             "transmission", "sqlite",   "memcached"};

TEST(ClientSitesTest, AppDeliveriesMatchSitesAcrossWatchpointBudgets) {
  Coverage coverage;
  uint64_t plans_with_static_addrs = 0;
  for (const char* name : kApps) {
    std::unique_ptr<BugApp> app = MakeAppByName(name);
    ASSERT_NE(app, nullptr) << name;
    Workload failing;
    FailureReport failure;
    ASSERT_TRUE(FindAppFailure(*app, &failing, &failure)) << name;
    GistServer server(app->module(), GistOptions{});
    server.ReportFailure(failure);
    const PlanSnapshot snapshot = server.Snapshot();
    // Every client's rotation of the plan, on every budget.
    const size_t clients = std::max<size_t>(1, snapshot.rotation_count());
    plans_with_static_addrs += snapshot.base().static_watch_addrs.empty() ? 0 : 1;
    const std::vector<Workload> workloads = {failing, AppWorkload(*app, 1), AppWorkload(*app, 2)};
    for (size_t client = 0; client < clients; ++client) {
      for (uint32_t slots : {0u, 1u, 4u, 8u}) {
        for (size_t w = 0; w < workloads.size(); ++w) {
          ExpectExactDelivery(app->module(), snapshot.ForClient(client), workloads[w], slots,
                              std::string(name) + " client " + std::to_string(client) +
                                  " slots " + std::to_string(slots) + " workload " +
                                  std::to_string(w),
                              &coverage);
        }
      }
    }
  }
  EXPECT_GT(coverage.start_enters, 0u);
  EXPECT_GT(coverage.stop_executions, 0u);
  EXPECT_GT(coverage.watch_site_accesses, 0u);
  EXPECT_GT(coverage.armed_hits, 0u);
  EXPECT_GT(plans_with_static_addrs, 0u) << "no app plan arms a static address";
}

// Two threads bump a global counter; main also writes a static-address flag
// and calls a helper that touches a heap cell. The watched load in `body` is
// followed by an unwatched re-read of the same address, which traps only if
// the watch-site delivery armed the address before the re-read was
// filtered. `tail` (with the unwatched store to the counter) and `head` run
// as fused bodies, so their armed-address hits go through the fused filter,
// and a stop site on `head`'s branch must deopt it.
constexpr char kSitesProgram[] = R"(
global counter 1 0
global flag 1 0

func bump(1) {
entry:
  r1 = addrof counter
  r2 = const 0
  jmp ^head
head:
  r3 = lt r2, r0
  br r3, ^body, ^done
body:
  r4 = load r1
  r7 = load r1
  jmp ^tail
tail:
  r5 = const 1
  r6 = add r4, r5
  store r1, r6
  r2 = add r2, r5
  jmp ^head
done:
  ret
}

func helper(1) {
entry:
  r1 = alloc r0
  r2 = const 5
  store r1, r2
  r3 = load r1
  ret r3
}

func main() {
entry:
  r0 = input 0
  r1 = spawn @bump(r0)
  r2 = spawn @bump(r0)
  r3 = addrof flag
  r4 = const 1
  store r3, r4
  r5 = call @helper(r4)
  br r5, ^yes, ^no
yes:
  r6 = addrof counter
  r7 = load r6
  r8 = load r3
  print r7
  jmp ^end
no:
  jmp ^end
end:
  join r1
  join r2
  ret
}
)";

// The first `op` instruction of `function`, in block order.
InstrId FindInstr(const Module& module, const std::string& function, Opcode op) {
  const Function& f = module.function(module.FindFunction(function));
  for (BlockId block = 0; block < f.num_blocks(); ++block) {
    for (const Instruction& instr : f.block(block).instructions()) {
      if (instr.op == op) {
        return instr.id;
      }
    }
  }
  ADD_FAILURE() << "no such instruction in " << function;
  return kNoInstr;
}

// The sites program's plan: PT starts at every function entry and stops at
// `stop`; both loads are watched, the flag's static address is armed before
// the run, and with `arm_sites` the watched addresses are also armed as soon
// as their registers are defined (otherwise at the watch sites' first
// execution).
InstrumentationPlan SitesProgramPlan(const Module& module, InstrId stop, bool arm_sites) {
  const InstrId bump_addr = FindInstr(module, "bump", Opcode::kAddrOfGlobal);
  const InstrId bump_load = FindInstr(module, "bump", Opcode::kLoad);
  const InstrId helper_alloc = FindInstr(module, "helper", Opcode::kAlloc);
  const InstrId helper_load = FindInstr(module, "helper", Opcode::kLoad);
  const std::optional<Addr> flag_addr =
      StaticAccessAddr(module, FindInstr(module, "main", Opcode::kStore));
  EXPECT_TRUE(flag_addr.has_value());

  InstrumentationPlan plan;
  for (const char* function : {"main", "helper", "bump"}) {
    plan.pt_start_blocks.insert({module.FindFunction(function), 0});
  }
  plan.pt_stop_instrs = {stop};
  plan.watch_instrs = {bump_load, helper_load};
  plan.static_watch_addrs = {flag_addr.value_or(kNullAddr)};
  if (arm_sites) {
    plan.arm_after[bump_addr] = {WatchArmSite{module.instr(bump_addr).dst, bump_load}};
    plan.arm_after[helper_alloc] = {WatchArmSite{module.instr(helper_alloc).dst, helper_load}};
  }
  return plan;
}

std::unique_ptr<Module> ParseSitesProgram() {
  auto parsed = ParseModule(kSitesProgram);
  EXPECT_TRUE(parsed.ok()) << parsed.error().message();
  return parsed.ok() ? std::move(*parsed) : nullptr;
}

Workload SitesWorkload(uint64_t seed) {
  Workload workload;
  workload.inputs = {static_cast<Word>(10 * seed)};
  workload.schedule_seed = seed;
  workload.min_quantum = 1;
  workload.max_quantum = 7;
  return workload;
}

TEST(ClientSitesTest, StopSitesOnBrCallRetAndStaticAddressesMatchReference) {
  const std::unique_ptr<Module> module = ParseSitesProgram();
  ASSERT_NE(module, nullptr);
  const struct {
    const char* name;
    InstrId stop;
  } stops[] = {
      {"br", FindInstr(*module, "main", Opcode::kBr)},
      {"call", FindInstr(*module, "main", Opcode::kCall)},
      {"ret", FindInstr(*module, "helper", Opcode::kRet)},
      {"br in a fusable block", FindInstr(*module, "bump", Opcode::kBr)},
  };

  Coverage coverage;
  for (const auto& stop : stops) {
    for (bool arm_sites : {false, true}) {
      const InstrumentationPlan plan = SitesProgramPlan(*module, stop.stop, arm_sites);
      for (uint32_t slots : {0u, 1u, 4u, 8u}) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
          ExpectExactDelivery(*module, plan, SitesWorkload(seed), slots,
                              std::string("stop at ") + stop.name +
                                  (arm_sites ? " with arm sites" : "") + " slots " +
                                  std::to_string(slots) + " seed " + std::to_string(seed),
                              &coverage);
        }
      }
      // The stop actually toggles PT off (the trace would be blind to a
      // dropped stop otherwise).
      const SiteTable sites = CompileSiteTable(*module, plan);
      const ClientRun run =
          RunClient(*module, plan, sites, SitesWorkload(1), 4, /*reference=*/false);
      EXPECT_GE(run.trace.activity.pt_toggles, 2u) << stop.name;
      EXPECT_EQ(run.retired.count(stop.stop), 1u) << stop.name;
    }
  }
  EXPECT_GT(coverage.start_enters, 0u);
  EXPECT_GT(coverage.stop_executions, 0u);
  EXPECT_GT(coverage.watch_site_accesses, 0u);
  EXPECT_GT(coverage.armed_hits, 0u);
}

TEST(ClientSitesTest, SecondSubscriberWithoutTableDisablesFiltering) {
  const std::unique_ptr<Module> module = ParseSitesProgram();
  ASSERT_NE(module, nullptr);
  const InstrumentationPlan plan =
      SitesProgramPlan(*module, FindInstr(*module, "main", Opcode::kBr), /*arm_sites=*/true);
  const SiteTable sites = CompileSiteTable(*module, plan);
  for (uint32_t slots : {0u, 1u}) {  // budgets that leave some accesses unwatched
    const std::string label = "slots " + std::to_string(slots);
    const ClientRun ref =
        RunClient(*module, plan, sites, SitesWorkload(2), slots, /*reference=*/true);
    const ClientRun alone =
        RunClient(*module, plan, sites, SitesWorkload(2), slots, /*reference=*/false);

    // An EventCounter shares the retired and access classes: both
    // subscribers get every such event, once.
    EventCounter counter;
    const ClientRun counted = RunClient(*module, plan, sites, SitesWorkload(2), slots,
                                        /*reference=*/false, nullptr, &counter);
    const RunStats& stats = counted.result.stats;
    EXPECT_EQ(stats.retired_deliveries, stats.retired) << label;
    EXPECT_EQ(stats.mem_deliveries, stats.mem_accesses) << label;
    EXPECT_EQ(counter.retired, stats.retired) << label;
    EXPECT_EQ(counter.mem_accesses, stats.mem_accesses) << label;
    uint64_t received = 0;
    for (const auto& [instr, count] : counted.retired) {
      received += count;
    }
    EXPECT_EQ(received, stats.retired) << label;
    EXPECT_EQ(counted.mem_seqs.size(), stats.mem_accesses) << label;
    EXPECT_EQ(counted.block_enters, alone.block_enters) << label << ": block entries unshared";

    // A second tracer shares block entries: the runtime gets every one.
    PtTracer tracer(kCores, kDefaultPtBufferBytes, /*always_on=*/true);
    const ClientRun traced = RunClient(*module, plan, sites, SitesWorkload(2), slots,
                                       /*reference=*/false, nullptr, &tracer);
    EXPECT_EQ(traced.block_enters, traced.result.stats.block_enters) << label;

    // The traces are still the reference trace.
    EXPECT_EQ(SerializeRunTrace(counted.trace), SerializeRunTrace(ref.trace)) << label;
    EXPECT_EQ(SerializeRunTrace(traced.trace), SerializeRunTrace(ref.trace)) << label;

    // Alone, the runtime is filtered: far fewer deliveries than events.
    EXPECT_LT(alone.result.stats.retired_deliveries, stats.retired / 10) << label;
    EXPECT_LT(alone.result.stats.mem_deliveries, stats.mem_accesses) << label;
    EXPECT_LT(alone.block_enters, stats.block_enters) << label;
  }
}

// --- order across event classes ----------------------------------------------

// One event as a runtime received it: its class and payload.
struct LoggedEvent {
  char kind;  // 's' switch, 'e' block enter, 'b' branch, 'm' access, 'r' return, 'i' retired
  uint64_t a;
  uint64_t b;
  uint64_t c;
  uint64_t d;
  bool operator==(const LoggedEvent&) const = default;
};

// A client runtime, still the run's sole subscriber, that logs the events it
// receives in arrival order. With `filter`, it logs only what the site filter
// lets through — retired events at PT-stop sites, accesses at watch sites or
// to an address in ArmedAddrs() at delivery time, entries of PT-start blocks
// — which is how a reference run (delivering everything) is compared with a
// fast run (filtered by the VM, logged unfiltered).
class LoggingRuntime : public ClientRuntime {
 public:
  template <typename... Args>
  explicit LoggingRuntime(bool filter, Args&&... args)
      : ClientRuntime(std::forward<Args>(args)...), filter_(filter) {}

  void OnContextSwitch(CoreId core, ThreadId prev, ThreadId next, FunctionId next_function,
                       BlockId next_block, uint32_t next_index) override {
    log.push_back({'s', core, (uint64_t{prev} << 32) | next,
                   (uint64_t{next_function} << 32) | next_block, next_index});
    ClientRuntime::OnContextSwitch(core, prev, next, next_function, next_block, next_index);
  }
  void OnBlockEnter(ThreadId tid, CoreId core, FunctionId function, BlockId block) override {
    if (!filter_ || (Sites()->BlockFlags(function, block) & kSitePtStart) != 0) {
      log.push_back({'e', tid, core, function, block});
    }
    ClientRuntime::OnBlockEnter(tid, core, function, block);
  }
  void OnBranch(ThreadId tid, CoreId core, InstrId instr, bool taken) override {
    log.push_back({'b', tid, core, instr, taken ? 1u : 0u});
    ClientRuntime::OnBranch(tid, core, instr, taken);
  }
  void OnMemAccess(const MemAccessEvent& event) override {
    const std::vector<Addr>& armed = *ArmedAddrs();
    if (!filter_ || (Sites()->instrs[event.instr] & kSiteWatch) != 0 ||
        std::find(armed.begin(), armed.end(), event.addr) != armed.end()) {
      log.push_back({'m', event.seq, (uint64_t{event.tid} << 32) | event.core, event.instr,
                     event.addr});
    }
    ClientRuntime::OnMemAccess(event);
  }
  void OnReturn(ThreadId tid, CoreId core, InstrId instr, FunctionId to_function,
                BlockId to_block, uint32_t to_index) override {
    log.push_back({'r', tid, (uint64_t{core} << 32) | instr,
                   (uint64_t{to_function} << 32) | to_block, to_index});
    ClientRuntime::OnReturn(tid, core, instr, to_function, to_block, to_index);
  }
  void OnInstrRetired(ThreadId tid, CoreId core, InstrId instr) override {
    if (!filter_ || (Sites()->instrs[instr] & kSitePtStop) != 0) {
      log.push_back({'i', tid, core, instr, 0});
    }
    ClientRuntime::OnInstrRetired(tid, core, instr);
  }

  std::vector<LoggedEvent> log;

 private:
  const bool filter_;
};

// Runs `runtime` as the run's sole observer and hook; returns its trace.
RunTrace RunLogged(LoggingRuntime& runtime, const Module& module, const Workload& workload,
                   bool reference) {
  VmOptions options;
  options.num_cores = kCores;
  options.observers = {&runtime};
  options.hook = &runtime;
  options.reference_dispatch = reference;
  Vm vm(module, workload, options);
  const RunResult result = vm.Run();
  return runtime.TakeTrace(/*run_id=*/1, result);
}

// Event counts by class over a test's comparisons.
using KindCounts = std::map<char, uint64_t>;

// Checks that the fast run delivers exactly the reference run's filtered
// events, in the same interleaved order, and ships the same trace.
void ExpectSameOrder(LoggingRuntime& fast, LoggingRuntime& ref, const Module& module,
                     const Workload& workload, const std::string& label, KindCounts* kinds) {
  const RunTrace fast_trace = RunLogged(fast, module, workload, /*reference=*/false);
  const RunTrace ref_trace = RunLogged(ref, module, workload, /*reference=*/true);
  ASSERT_EQ(fast.log.size(), ref.log.size()) << label;
  for (size_t i = 0; i < fast.log.size(); ++i) {
    ASSERT_TRUE(fast.log[i] == ref.log[i])
        << label << ": delivery " << i << " is '" << fast.log[i].kind << "', reference '"
        << ref.log[i].kind << "'";
  }
  EXPECT_EQ(SerializeRunTrace(fast_trace), SerializeRunTrace(ref_trace)) << label;
  for (const LoggedEvent& event : fast.log) {
    ++(*kinds)[event.kind];
  }
}

TEST(ClientSitesTest, DeliveryOrderAcrossClassesMatchesReferenceOnEveryRotation) {
  KindCounts kinds;
  for (const char* name : kApps) {
    std::unique_ptr<BugApp> app = MakeAppByName(name);
    ASSERT_NE(app, nullptr) << name;
    Workload failing;
    FailureReport failure;
    ASSERT_TRUE(FindAppFailure(*app, &failing, &failure)) << name;
    GistServer server(app->module(), GistOptions{});
    server.ReportFailure(failure);
    const PlanSnapshot snapshot = server.Snapshot();
    const size_t clients = std::max<size_t>(1, snapshot.rotation_count());
    const std::vector<Workload> workloads = {failing, AppWorkload(*app, 1)};
    for (size_t client = 0; client < clients; ++client) {
      for (size_t w = 0; w < workloads.size(); ++w) {
        LoggingRuntime fast(false, app->module(), snapshot, client, kCores);
        LoggingRuntime ref(true, app->module(), snapshot, client, kCores);
        ExpectSameOrder(fast, ref, app->module(), workloads[w],
                        std::string(name) + " client " + std::to_string(client) +
                            " workload " + std::to_string(w),
                        &kinds);
      }
    }
  }
  // The filtered classes and the branches around them were all exercised.
  EXPECT_GT(kinds['i'], 0u);
  EXPECT_GT(kinds['m'], 0u);
  EXPECT_GT(kinds['e'], 0u);
  EXPECT_GT(kinds['b'], 0u);
}

TEST(ClientSitesTest, DeliveryOrderAcrossClassesMatchesReferenceOnSitesProgram) {
  const std::unique_ptr<Module> module = ParseSitesProgram();
  ASSERT_NE(module, nullptr);
  KindCounts kinds;
  for (Opcode stop_op : {Opcode::kBr, Opcode::kCall}) {
    for (const char* function : {"main", "bump"}) {
      if (stop_op == Opcode::kCall && std::string(function) == "bump") {
        continue;  // bump calls nothing
      }
      const InstrId stop = FindInstr(*module, function, stop_op);
      for (bool arm_sites : {false, true}) {
        const InstrumentationPlan plan = SitesProgramPlan(*module, stop, arm_sites);
        const SiteTable sites = CompileSiteTable(*module, plan);
        for (uint32_t slots : {0u, 1u, 4u}) {
          for (uint64_t seed = 1; seed <= 3; ++seed) {
            LoggingRuntime fast(false, *module, plan, sites, kCores, kDefaultPtBufferBytes,
                                slots);
            LoggingRuntime ref(true, *module, plan, sites, kCores, kDefaultPtBufferBytes, slots);
            ExpectSameOrder(fast, ref, *module, SitesWorkload(seed),
                            std::string("stop in ") + function + (arm_sites ? " armed" : "") +
                                " slots " + std::to_string(slots) + " seed " +
                                std::to_string(seed),
                            &kinds);
          }
        }
      }
    }
  }
  EXPECT_GT(kinds['i'], 0u);
  EXPECT_GT(kinds['m'], 0u);
}

// --- retired-count oracle ----------------------------------------------------

// An EventCounter's retired count for `workload` under reference dispatch,
// where every retired instruction is one call; its retired, branch and
// access counts must equal the run's RunStats.
uint64_t ReferenceRetired(const Module& module, const Workload& workload, uint64_t max_steps,
                          uint64_t kill_after_steps, RunResult* result,
                          const std::string& label) {
  EventCounter counter;
  VmOptions options;
  options.num_cores = kCores;
  options.max_steps = max_steps;
  options.kill_after_steps = kill_after_steps;
  options.observers = {&counter};
  options.reference_dispatch = true;
  Vm vm(module, workload, options);
  *result = vm.Run();
  EXPECT_EQ(counter.retired, result->stats.retired) << label;
  EXPECT_EQ(counter.branches, result->stats.branches) << label;
  EXPECT_EQ(counter.mem_accesses, result->stats.mem_accesses) << label;
  return counter.retired;
}

// Fast-path client run of `plan`; returns the trace's retired count.
uint64_t FastBaseline(const Module& module, const InstrumentationPlan& plan,
                      const Workload& workload, uint64_t max_steps, uint64_t kill_after_steps,
                      RunResult* result) {
  const SiteTable sites = CompileSiteTable(module, plan);
  ClientRuntime runtime(module, plan, sites, kCores);
  VmOptions options;
  options.num_cores = kCores;
  options.max_steps = max_steps;
  options.kill_after_steps = kill_after_steps;
  options.observers = {&runtime};
  options.hook = &runtime;
  Vm vm(module, workload, options);
  *result = vm.Run();
  return runtime.TakeTrace(/*run_id=*/1, *result).baseline_instructions;
}

// Checks the fast path's count against the reference EventCounter under two
// plans: the server's plan for `failure` (when it names a failing statement)
// and the empty plan, whose runs keep every fusable block fused.
void ExpectRetiredMatchesOracle(const Module& module, const FailureReport& failure,
                                const Workload& workload, uint64_t max_steps,
                                uint64_t kill_after_steps, const std::string& label,
                                RunResult* fast_result) {
  RunResult ref_result;
  const uint64_t want =
      ReferenceRetired(module, workload, max_steps, kill_after_steps, &ref_result, label);
  EXPECT_GT(want, 0u) << label;
  std::vector<InstrumentationPlan> plans = {InstrumentationPlan{}};
  if (failure.failing_instr != kNoInstr) {
    GistServer server(module, GistOptions{});
    server.ReportFailure(failure);
    plans.push_back(server.plan());
  }
  for (const InstrumentationPlan& plan : plans) {
    const uint64_t got =
        FastBaseline(module, plan, workload, max_steps, kill_after_steps, fast_result);
    EXPECT_EQ(got, want) << label << (plan.window.empty() ? " (empty plan)" : "");
    EXPECT_EQ(fast_result->failure.type, ref_result.failure.type) << label;
    EXPECT_EQ(fast_result->killed, ref_result.killed) << label;
  }
}

TEST(ClientSitesTest, RetiredCountMatchesReferenceCounterOnEveryApp) {
  for (const char* name : kApps) {
    std::unique_ptr<BugApp> app = MakeAppByName(name);
    ASSERT_NE(app, nullptr) << name;
    Workload failing;
    FailureReport failure;
    ASSERT_TRUE(FindAppFailure(*app, &failing, &failure)) << name;
    for (uint64_t w = 0; w < 3; ++w) {
      const Workload workload = w == 0 ? failing : AppWorkload(*app, w);
      RunResult want;
      const std::string label = std::string(name) + " workload " + std::to_string(w);
      const uint64_t retired =
          ReferenceRetired(app->module(), workload, 2'000'000, 0, &want, label);
      // The fleet's path: a monitored run of the frozen snapshot.
      GistServer server(app->module(), GistOptions{});
      server.ReportFailure(failure);
      const MonitoredRun run = RunMonitored(app->module(), server.Snapshot(), /*client_index=*/0,
                                            workload, GistOptions{}, /*run_id=*/1);
      EXPECT_EQ(run.trace.baseline_instructions, retired) << label;
      EXPECT_EQ(run.result.failure.type, want.failure.type) << label;
    }
  }
}

// The first workload of a corpus program that fails as its manifest says.
bool FindCorpusFailure(const GeneratedProgram& program, Workload* workload,
                       FailureReport* failure) {
  for (uint64_t run = 0; run < 2000; ++run) {
    Rng rng(DeriveSeed(2015, run));
    const Workload candidate = CorpusWorkload(program.manifest, run, rng);
    Vm vm(*program.module, candidate, VmOptions{});
    const RunResult result = vm.Run();
    if (result.failure.type == program.manifest.failure_type) {
      *workload = candidate;
      *failure = result.failure;
      return true;
    }
  }
  return false;
}

TEST(ClientSitesTest, RetiredCountMatchesReferenceCounterOnEveryFailureKind) {
  // Corpus programs cover assert, null deref, use-after-free and double
  // free; a small step budget turns one into a hang, and an injected kill
  // ends one mid-run.
  CorpusOptions corpus;
  corpus.count = kNumBugFamilies;
  const std::vector<GeneratedProgram> programs = GenerateCorpus(corpus);
  std::map<FailureType, int> seen;
  for (const GeneratedProgram& program : programs) {
    Workload workload;
    FailureReport failure;
    ASSERT_TRUE(FindCorpusFailure(program, &workload, &failure)) << program.manifest.name;
    RunResult result;
    ExpectRetiredMatchesOracle(*program.module, failure, workload, 2'000'000, 0,
                               program.manifest.name, &result);
    ++seen[result.failure.type];

    RunResult hang;
    ExpectRetiredMatchesOracle(*program.module, failure, workload, /*max_steps=*/97, 0,
                               program.manifest.name + " hang", &hang);
    EXPECT_EQ(hang.failure.type, FailureType::kHang) << program.manifest.name;
    ++seen[hang.failure.type];

    RunResult killed;
    ExpectRetiredMatchesOracle(*program.module, failure, workload, 2'000'000,
                               /*kill_after_steps=*/53, program.manifest.name + " killed",
                               &killed);
    EXPECT_TRUE(killed.killed) << program.manifest.name;
  }
  EXPECT_GT(seen[FailureType::kAssertViolation], 0);
  EXPECT_GT(seen[FailureType::kSegFault], 0);
  EXPECT_GT(seen[FailureType::kUseAfterFree], 0);
  EXPECT_GT(seen[FailureType::kDoubleFree], 0);
  EXPECT_GT(seen[FailureType::kHang], 0);

  // The kinds the corpus templates never plant. Each faulting op sits in a
  // fusable block, so the fused executor's fault exit is covered too.
  const struct {
    const char* name;
    FailureType type;
    const char* text;
  } programs_by_kind[] = {
      {"div-by-zero", FailureType::kArithmeticFault, R"(
func main() {
entry:
  r0 = input 0
  r1 = const 10
  r2 = const 0
  jmp ^loop
loop:
  r3 = div r1, r0
  r2 = add r2, r3
  r4 = const 1
  r0 = sub r0, r4
  jmp ^loop
}
)"},
      {"stack overflow", FailureType::kStackOverflow, R"(
func recurse(1) {
entry:
  r1 = const 1
  r2 = add r0, r1
  r3 = call @recurse(r2)
  ret r3
}
func main() {
entry:
  r0 = const 0
  r1 = call @recurse(r0)
  ret
}
)"},
      {"invalid join", FailureType::kSegFault, R"(
func main() {
entry:
  r0 = const 1
  r1 = const 2
  r2 = add r0, r1
  r3 = const 99
  join r3
  ret
}
)"},
      {"deadlock", FailureType::kDeadlock, R"(
global lock_a 1 0
global lock_b 1 0
func worker(1) {
entry:
  r1 = addrof lock_b
  lock r1
  r2 = addrof lock_a
  lock r2
  unlock r2
  unlock r1
  ret
}
func main() {
entry:
  r0 = const 0
  r1 = addrof lock_a
  lock r1
  r2 = spawn @worker(r0)
  r3 = addrof lock_b
  lock r3
  unlock r3
  unlock r1
  join r2
  ret
}
)"},
  };
  for (const auto& kind : programs_by_kind) {
    auto parsed = ParseModule(kind.text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    const Module& module = **parsed;
    bool raised = false;
    for (uint64_t seed = 0; seed < 64 && !raised; ++seed) {
      Workload workload;
      workload.inputs = {3};
      workload.schedule_seed = seed;
      Vm probe(module, workload, VmOptions{});
      const RunResult probed = probe.Run();
      if (probed.failure.type != kind.type) {
        continue;
      }
      raised = true;
      RunResult result;
      ExpectRetiredMatchesOracle(module, probed.failure, workload, 2'000'000, 0, kind.name,
                                 &result);
    }
    EXPECT_TRUE(raised) << "no schedule raised " << kind.name;
  }
}

}  // namespace
}  // namespace gist
