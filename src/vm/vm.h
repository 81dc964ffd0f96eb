// MiniIR virtual machine: a deterministic multithreaded interpreter.
//
// The VM plays the role of the production machines in the paper's evaluation:
// it executes a module under a workload, exposes every retired instruction /
// branch / memory access to ExecutionObservers (the simulated Intel PT,
// debug registers, record/replay recorders, and the perf cost model), and
// converts runtime faults into FailureReports.
//
// Threads are interleaved by a seeded preemptive scheduler; a given
// (module, workload) pair always produces the same execution, which is what
// makes the repository's experiments reproducible.
//
// Fast path (DESIGN.md §7): the interpreter executes whole scheduling quanta
// (StepBurst) against a DecodedModule — flat
// pre-validated instruction arrays with resolved successor pointers — and
// observer dispatch goes through per-event subscription lists built at Run()
// start. Every event reaches its subscribers as one direct call, in
// execution order; the per-instruction-rate events (retired, mem access) are
// filtered down to the instrumentation sites of an observer's SiteTable when
// it supplies one (observer.h).
// Pass VmOptions::decoded to share one cache across runs (the fleet does);
// otherwise the VM decodes privately at construction. Blocks the
// DecodedModule fused at decode time run as straight-line fused bodies
// (DESIGN.md §12) unless a retired subscriber needs every instruction.

#ifndef GIST_SRC_VM_VM_H_
#define GIST_SRC_VM_VM_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "src/ir/module.h"
#include "src/obs/profiler.h"
#include "src/support/rng.h"
#include "src/vm/decoded_module.h"
#include "src/vm/failure.h"
#include "src/vm/memory.h"
#include "src/vm/observer.h"
#include "src/vm/workload.h"

namespace gist {

// Which dispatch executes monitored runs. Both are byte-identical in
// FleetResult, PT streams, watch events, and every export outside the
// "engine." metrics namespace (tests/vm_fastpath_test.cc,
// tests/fleet_tier_test.cc).
enum class ExecTier : uint8_t {
  kFast = 0,       // pre-decoded StepBurst with fused bodies (DESIGN.md §7, §12)
  kReference = 1,  // unfiltered dispatch, hook everywhere — the semantics oracle
};

// Accepts "fast" and "ref"/"reference". Returns false on anything else.
bool ParseExecTier(std::string_view text, ExecTier* tier);

struct VmOptions {
  uint32_t num_cores = 4;
  uint64_t max_steps = 2'000'000;
  // Per-thread call-depth limit; exceeding it raises kStackOverflow, the
  // analog of blowing the stack guard page.
  uint32_t max_call_depth = 10'000;
  // Fault injection (DESIGN.md §8): when nonzero, the run dies at the burst
  // boundary exactly this many retired instructions in — the analog of a
  // production client crashing or being OOM-killed mid-run. A killed run is
  // not a program failure: RunResult::killed is set, no FailureReport is
  // raised, and whatever the client traced up to that point is simply never
  // shipped (the fleet treats the run as lost).
  uint64_t kill_after_steps = 0;
  std::vector<ExecutionObserver*> observers;
  // Inline instrumentation with register access (watchpoint arming).
  InstrumentationHook* hook = nullptr;
  // Shared pre-decoded cache for `module` (must be decoded from the same
  // Module instance and outlive the VM). Null: the VM decodes privately.
  const DecodedModule* decoded = nullptr;
  // Reference dispatch: ignore site tables, deliver every event to every
  // subscriber, call the hook at every instruction, and never run fused
  // bodies — the semantics the fast path must match byte-for-byte.
  // Used by tests/vm_fastpath_test.cc; keep off otherwise.
  bool reference_dispatch = false;
  // Caller-owned profile shard (src/obs/profiler.h): when set, the
  // interpreter bumps per-block exec/retired/taken/not_taken counters in it,
  // indexed by DecodedBlock::profile_index. BlockProfile is header-only, so
  // this adds no link dependency on the obs library. The VM sizes the shard
  // at construction; counts accumulate across runs if the caller reuses it.
  BlockProfile* profile = nullptr;
};

// Hard cap on concurrently created threads per run. The thread table is
// preallocated to this size so references into it stay valid while a thread
// spawns another (see Vm::Step).
inline constexpr uint32_t kMaxThreads = 256;

struct RunStats {
  uint64_t steps = 0;
  uint64_t mem_accesses = 0;
  uint64_t branches = 0;
  uint64_t context_switches = 0;
  uint32_t threads_created = 0;
  // Mode-independent event-class tallies (the profiler's dispatch breakdown
  // divides per-mask delivery cost by these): basic-block entries, function
  // returns, and thread start/exit events.
  uint64_t block_enters = 0;
  uint64_t returns = 0;
  uint64_t thread_events = 0;
  // Instructions retired: `steps` minus the op that raised an in-burst
  // failure (a faulting op is charged to the step budget but never retires).
  // Equals the OnInstrRetired calls an observer receives under reference
  // dispatch, which delivers every retired event.
  uint64_t retired = 0;

  // --- dispatch-engine telemetry (DESIGN.md §9) -----------------------------
  // Counted per burst / per delivered event, never per undelivered
  // instruction, so the fast path's cost stays at a handful of adds per
  // scheduling quantum. These depend on the dispatch mode (filtered vs
  // reference) and land under the flight recorder's "engine." namespace,
  // which the cross-interpreter determinism tests exclude; everything above
  // is mode-independent.
  uint64_t bursts = 0;              // scheduling quanta started (see DESIGN.md §12)
  uint64_t picks = 0;               // PickNext calls: boundaries a solo chain did not settle
  uint64_t retired_deliveries = 0;  // retired events delivered (once each)
  uint64_t mem_deliveries = 0;      // mem-access events delivered (once each)
  uint64_t dispatched_events = 0;   // observer callback payloads delivered

  // Fused-body activity (DESIGN.md §12): zero under reference dispatch and
  // unfiltered retired subscribers, so it is dispatch-engine telemetry too
  // and lands under "engine." as well.
  uint64_t fused_chains = 0;   // fusion-region entries (each exits via deopt)
  uint64_t fused_blocks = 0;   // fused block bodies executed
  uint64_t fused_retired = 0;  // instructions retired inside fused bodies
};

struct RunResult {
  FailureReport failure;  // type == kNone on success
  RunStats stats;
  std::vector<Word> outputs;  // values produced by `print`
  // The run was terminated by VmOptions::kill_after_steps (client death),
  // not by the program: neither a success nor a failure of the workload.
  bool killed = false;

  bool ok() const { return !failure.IsFailure(); }
};

class Vm {
 public:
  Vm(const Module& module, Workload workload, VmOptions options);

  // Executes main() to completion (or failure). Call once per Vm instance.
  RunResult Run();

 private:
  struct Frame {
    const DecodedFunction* function = nullptr;
    const DecodedBlock* block = nullptr;
    uint32_t index = 0;
    std::vector<Word> regs;
    Reg ret_dst = kNoReg;        // caller register receiving our return value
    InstrId call_site = kNoInstr;
  };

  enum class ThreadStatus : uint8_t { kRunnable, kBlockedJoin, kBlockedLock, kExited };

  struct ThreadState {
    ThreadId id;
    CoreId core;
    ThreadStatus status = ThreadStatus::kRunnable;
    std::vector<Frame> stack;
    ThreadId join_target = kNoThread;
    Addr lock_target = kNullAddr;
    // Set once the thread has been scheduled for the first time (its entry
    // block's OnBlockEnter has fired).
    bool started = false;
  };

  struct Mutex {
    ThreadId owner = kNoThread;
    std::deque<ThreadId> waiters;
  };

  ThreadId SpawnThread(FunctionId function, const std::vector<Word>& args, bool is_main);
  // Runs up to `max_count` consecutive instructions of `thread` — one
  // scheduling quantum — in a tight loop, stopping early when the thread
  // blocks, exits, or the run ends (failure recorded in result_). Returns the
  // number of instructions executed; the caller charges them to the step
  // budget and the remaining quantum.
  uint64_t StepBurst(ThreadState& thread, uint64_t max_count);
  // Fused executor (DESIGN.md §12): runs fused block bodies
  // starting at instruction `index` of `fb`, staying inside fusion regions
  // while successors are fused. When the burst budget is spent inside the
  // region and `thread` is the only runnable thread, the chain runs on to
  // the run's step limit and settles the scheduler boundaries it crossed
  // when it exits (SettleSoloBoundaries); with more than one runnable thread
  // it deopts so Run() runs the boundary. Returns the instructions retired
  // and the deopt position (block + index, enter accounting already done)
  // via `resume`/`resume_index`; `steps_base` is the run's retired count at
  // chain entry. kObserved replicates the fast path's exact access
  // deliveries and boundary dispatches; !kObserved is the pure-compute loop.
  // kProfiled mirrors options_.profile != nullptr so the common unprofiled
  // configuration carries no per-block profile tests. On a fault the frame
  // is synced to the faulting op and done_ is set.
  template <bool kObserved, bool kProfiled>
  uint64_t RunFusedChain(ThreadState& thread, const FusedBlock* fb, uint32_t index,
                         uint64_t budget, uint64_t steps_base, const DecodedBlock** resume,
                         uint32_t* resume_index);
  // Settles the scheduler boundaries a solo fused chain crossed: every one
  // at a retired count in [boundary, end) — the exit position itself is left
  // to Run() — gets the draws Run() would make with one runnable thread (the
  // pick, the quantum re-roll) and starts a burst with Run()'s floor and
  // step/kill clamps. Leaves owed_quantum_ and chain_extended_ exactly as
  // Run() running each boundary would (DESIGN.md §12).
  void SettleSoloBoundaries(uint64_t boundary, uint64_t end);
  void ExitThread(ThreadState& thread);
  // Selects the next thread to run after `current`; kNoThread if none are
  // runnable. One draw with one runnable thread, NextBelow(runnable_) else.
  ThreadId PickNext(ThreadId current);
  // Test-only audit of runnable_ against a scan of threads_ (VmTestPeer).
  // Callers test AuditEnabled() first, so a disabled audit costs one inline
  // flag load.
  static bool AuditEnabled() { return audit_runnable_.load(std::memory_order_relaxed); }
  void AuditRunnable() const;
  void RaiseFailure(ThreadState& thread, FailureType type, InstrId instr,
                    const std::string& message);
  // RaiseFailure for an executing op that faulted: the op was charged to the
  // step budget but does not retire (RunStats::retired).
  void RaiseFault(ThreadState& thread, FailureType type, InstrId instr,
                  const std::string& message);
  void NotifyBlockEnter(ThreadState& thread);
  // Whether entering the block with this profile_index is dispatched: always,
  // unless block-enter delivery is site-filtered and it starts no PT.
  bool NeedsBlockEnter(uint32_t profile_index) const {
    return block_sites_ == nullptr || (block_sites_[profile_index] & kSitePtStart) != 0;
  }
  std::vector<InstrId> StackTrace(const ThreadState& thread, InstrId failing) const;

  // --- subscription-masked dispatch -----------------------------------------
  // Splits options_.observers into per-event lists; picks the run's site
  // table, if any.
  void BuildDispatch();

  // Fans an event out to its subscriber list.
  template <typename Fn>
  void Dispatch(const std::vector<ExecutionObserver*>& list, Fn&& fn) {
    result_.stats.dispatched_events += list.size();
    for (ExecutionObserver* observer : list) {
      fn(*observer);
    }
  }
  // The hot events: callers have already applied the site filter.
  void DeliverRetired(ThreadId tid, CoreId core, InstrId instr) {
    ++result_.stats.retired_deliveries;
    Dispatch(on_retired_, [&](ExecutionObserver& o) { o.OnInstrRetired(tid, core, instr); });
  }
  void DeliverMemAccess(const MemAccessEvent& event) {
    ++result_.stats.mem_deliveries;
    Dispatch(on_mem_, [&](ExecutionObserver& o) { o.OnMemAccess(event); });
  }

  const Module& module_;
  Workload workload_;
  VmOptions options_;
  std::unique_ptr<DecodedModule> owned_decoded_;  // when options_.decoded is null
  const DecodedModule* decoded_ = nullptr;
  Memory memory_;
  Rng rng_;
  // Quantum re-roll span (max_quantum - min_quantum + 1) with its per-draw
  // divisions precomputed — this draw runs once per scheduling quantum, both
  // in Run()'s boundary and in the fused executor's renewals. Re-aimed at the
  // workload's span on Run() entry.
  FixedBound quantum_draw_{1};
  std::vector<ThreadState> threads_;
  // Threads in threads_ with status kRunnable, kept at every status change.
  uint32_t runnable_ = 0;
  // min(max_steps, kill_after_steps when set): where Run() stops the run.
  uint64_t step_limit_ = 0;
  std::map<Addr, Mutex> mutexes_;
  std::vector<ThreadId> core_occupant_;  // per core, for context-switch events
  RunResult result_;
  uint64_t unretired_steps_ = 0;  // faulting ops (RaiseFault)
  bool done_ = false;

  // Per-event subscriber lists (see BuildDispatch).
  std::vector<ExecutionObserver*> on_context_switch_;
  std::vector<ExecutionObserver*> on_block_enter_;
  std::vector<ExecutionObserver*> on_branch_;
  std::vector<ExecutionObserver*> on_return_;
  std::vector<ExecutionObserver*> on_thread_event_;
  std::vector<ExecutionObserver*> on_mem_;
  std::vector<ExecutionObserver*> on_retired_;

  // The run's site table (SiteTable::instrs; null: none) and the flags of it
  // in force: the hook bits when the hook supplied it, kSitePtStop when
  // retired delivery is filtered, kSiteWatch when access delivery is.
  const uint8_t* sites_ = nullptr;
  uint8_t site_mask_ = 0;
  // Access filtering (kSiteWatch in force): the sole access subscriber's
  // live armed set.
  const std::vector<Addr>* armed_ = nullptr;
  // Block-enter filtering: SiteTable::blocks of the sole block-enter
  // subscriber, which needs only its kSitePtStart blocks (null: unfiltered).
  const uint8_t* block_sites_ = nullptr;
  bool hook_everywhere_ = false;  // reference mode or hook without a table

  // Fused entry table by profile_index (empty: fusion disabled for this
  // run). Built in BuildDispatch from the DecodedModule's entries minus the
  // per-run deopt exclusions (blocks holding a site in force).
  std::vector<const FusedBlock*> fused_entry_;

  // The running burst's quantum state, shared by Run() and the solo settle
  // (DESIGN.md §12). Run() sets both before every burst; each settled
  // boundary starts a new burst, overwriting owed_quantum_ and adding its
  // length to chain_extended_. After the burst the thread owes
  // owed_quantum_ plus whatever granted budget it did not run.
  uint64_t owed_quantum_ = 0;    // quantum left past the current burst's end
  uint64_t chain_extended_ = 0;  // settled bursts added to the running one

  // Test-only (tests/vm_fastpath_test.cc, through VmTestPeer): when set,
  // every PickNext and every solo settle checks runnable_ against a scan of
  // threads_ and counts itself in runnable_audits_.
  static std::atomic<bool> audit_runnable_;
  static std::atomic<uint64_t> runnable_audits_;
  friend class VmTestPeer;
};

}  // namespace gist

#endif  // GIST_SRC_VM_VM_H_
