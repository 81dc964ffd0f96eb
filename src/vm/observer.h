// Execution observer interface: the tap through which the simulated hardware
// (Intel PT, debug registers), the record/replay baselines, and the perf cost
// model watch a VM run. Callbacks fire synchronously in execution order on
// the (single-threaded, deterministic) interpreter loop.
//
// Dispatch is subscription-masked: each observer declares the event classes
// it consumes (SubscribedEvents), the VM builds per-event observer lists at
// Run() start, and events nobody subscribed to cost nothing — not even a
// virtual call. Every delivered event is one direct call, made at once, so
// each observer sees its events in execution order, interleaved across
// classes exactly as the run produced them.
//
// An observer that only acts at a few instrumentation sites (Gist's client
// runtime) can hand the VM a SiteTable (Sites()): the VM then delivers it a
// retired event only at kSitePtStop instructions, and an access only at
// kSiteWatch instructions or when its address is in the observer's live
// armed set (ArmedAddrs()) — the way PT is toggled by patches at static
// sites and a debug register traps only on its armed address. Block entries
// reach it only at kSitePtStart blocks. Everywhere else a retired
// instruction costs nothing but the site-flag load. See DESIGN.md §7 for
// when the filter applies and why the determinism contract survives it.

#ifndef GIST_SRC_VM_OBSERVER_H_
#define GIST_SRC_VM_OBSERVER_H_

#include <cstdint>
#include <vector>

#include "src/ir/ids.h"

namespace gist {

using CoreId = uint32_t;

// Event classes an ExecutionObserver can subscribe to. The VM only invokes
// callbacks whose class is in the observer's SubscribedEvents() mask; a
// handler outside the mask must be a no-op anyway (the default bodies are).
enum ObservedEvents : uint32_t {
  kEvContextSwitch = 1u << 0,   // OnContextSwitch
  kEvBlockEnter = 1u << 1,      // OnBlockEnter
  kEvBranch = 1u << 2,          // OnBranch
  kEvMemAccess = 1u << 3,       // OnMemAccess
  kEvReturn = 1u << 4,          // OnReturn
  kEvInstrRetired = 1u << 5,    // OnInstrRetired
  kEvThreadLifecycle = 1u << 6, // OnThreadStart / OnThreadExit
  kEvAll = (1u << 7) - 1,
};

// Per-instruction site flags of a SiteTable.
enum SiteFlags : uint8_t {
  kSiteHookBefore = 1u << 0,  // InstrumentationHook::BeforeInstr acts here
  kSiteHookAfter = 1u << 1,   // InstrumentationHook::AfterInstr acts here
  kSitePtStop = 1u << 2,      // the observer needs this instruction's retired event
  kSiteWatch = 1u << 3,       // the observer needs this instruction's accesses
  kSitePtStart = 1u << 4,     // block flag only: entering the block starts PT
};

// A frozen plan's client sites, compiled once per plan (CompileSiteTable in
// src/core/plan_snapshot.h) and read-only afterwards, so concurrent runs of
// one plan share it.
struct SiteTable {
  // SiteFlags by InstrId.
  std::vector<uint8_t> instrs;
  // By dense block index (function-major, block order — the layout of
  // DecodedBlock::profile_index): kSitePtStart if entering the block starts
  // PT, plus the OR of its instructions' flags, so a fused body can be
  // excluded with one test per block.
  std::vector<uint8_t> blocks;
  // Dense index of each function's first block.
  std::vector<uint32_t> first_block;

  uint8_t BlockFlags(FunctionId function, BlockId block) const {
    return blocks[first_block[function] + block];
  }
};

// One dynamic shared-memory access (load or store), in global total order.
// `seq` increases by one per access across all threads — this is the order
// the hardware-watchpoint log preserves (paper §3.2.3).
struct MemAccessEvent {
  uint64_t seq;
  ThreadId tid;
  CoreId core;
  InstrId instr;
  Addr addr;
  Word value;  // value loaded (reads) or stored (writes)
  bool is_write;
};

// Inline instrumentation injected into the program (Gist's client-side
// patches). Unlike ExecutionObserver, hooks see the executing thread's
// register file, which is what the watchpoint-arming code needs: it computes
// the concrete address of a tracked access as soon as the address operand is
// defined (paper Fig. 4b: "before the access and after its immediate
// dominator").
class InstrumentationHook {
 public:
  virtual ~InstrumentationHook() = default;

  // Called before `instr` executes; `regs` is the current frame's registers.
  virtual void BeforeInstr(ThreadId tid, InstrId instr, const std::vector<Word>& regs) {
    (void)tid;
    (void)instr;
    (void)regs;
  }

  // Called after a value-producing, non-control instruction executed; `regs`
  // reflects the instruction's effect.
  virtual void AfterInstr(ThreadId tid, InstrId instr, const std::vector<Word>& regs) {
    (void)tid;
    (void)instr;
    (void)regs;
  }

  // Where BeforeInstr/AfterInstr do anything: the kSiteHookBefore /
  // kSiteHookAfter bits of the returned table. The VM skips the hook calls
  // everywhere else, so a hook that instruments a handful of sites costs
  // nothing on the rest of the program. Null (the default) keeps the
  // call-everywhere behavior.
  virtual const SiteTable* Sites() const { return nullptr; }
};

class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;

  // Event classes this observer consumes; the VM never dispatches outside the
  // mask. Defaults to everything so existing observers keep working; override
  // to shrink the hot-path fan-out (e.g. the PT tracer never needs
  // OnMemAccess, the watchpoint unit never needs OnBranch).
  virtual uint32_t SubscribedEvents() const { return kEvAll; }

  // Site-filtered delivery. An observer that returns a table here needs a
  // retired event only at kSitePtStop instructions, an access only at
  // kSiteWatch instructions or at an address in *ArmedAddrs() — the
  // addresses it currently watches, read live by the VM and changed only
  // inside a watch-site delivery or a hook call — and a block entry only at
  // kSitePtStart blocks. When such an observer is the only subscriber of an
  // event class, the VM filters that class accordingly; reference dispatch
  // never filters. The handlers must still be correct under unfiltered
  // delivery, and a no-op on every event the filter drops.
  virtual const SiteTable* Sites() const { return nullptr; }
  virtual const std::vector<Addr>* ArmedAddrs() const { return nullptr; }

  // A thread was scheduled onto a core, displacing `prev` (kNoThread at the
  // start of the run or after the previous occupant exited). The incoming
  // thread's code location is included so the simulated PT can emit a
  // flow-update (FUP) resync packet, as real PT does.
  virtual void OnContextSwitch(CoreId core, ThreadId prev, ThreadId next,
                               FunctionId next_function, BlockId next_block,
                               uint32_t next_index) {
    (void)core;
    (void)prev;
    (void)next;
    (void)next_function;
    (void)next_block;
    (void)next_index;
  }

  // Control enters a basic block.
  virtual void OnBlockEnter(ThreadId tid, CoreId core, FunctionId function, BlockId block) {
    (void)tid;
    (void)core;
    (void)function;
    (void)block;
  }

  // A conditional branch retired with the given outcome.
  virtual void OnBranch(ThreadId tid, CoreId core, InstrId instr, bool taken) {
    (void)tid;
    (void)core;
    (void)instr;
    (void)taken;
  }

  // A data access (load/store) retired.
  virtual void OnMemAccess(const MemAccessEvent& event) { (void)event; }

  // A `ret` retired. Returns are the IR's only indirect control transfers, so
  // the simulated PT needs the concrete target to emit a TIP packet. For the
  // final return of a thread (empty stack) `to_function` is kNoFunction.
  virtual void OnReturn(ThreadId tid, CoreId core, InstrId instr, FunctionId to_function,
                        BlockId to_block, uint32_t to_index) {
    (void)tid;
    (void)core;
    (void)instr;
    (void)to_function;
    (void)to_block;
    (void)to_index;
  }

  // Any instruction retired (fires after the more specific callbacks).
  virtual void OnInstrRetired(ThreadId tid, CoreId core, InstrId instr) {
    (void)tid;
    (void)core;
    (void)instr;
  }

  virtual void OnThreadStart(ThreadId tid) { (void)tid; }
  virtual void OnThreadExit(ThreadId tid) { (void)tid; }
};

}  // namespace gist

#endif  // GIST_SRC_VM_OBSERVER_H_
