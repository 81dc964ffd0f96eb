// Gist's client-side runtime (paper Fig. 2, "Gist-client").
//
// An ExecutionObserver that executes an InstrumentationPlan against one
// production run: it toggles the (simulated) Intel PT driver at the plan's
// start blocks and stop instructions, arms hardware watchpoints when tracked
// accesses first execute, and packages everything into a RunTrace for the
// server. The plan's sites arrive compiled into a SiteTable, which the VM
// also filters the run's per-instruction events on (DESIGN.md §7), so the
// runtime pays only at its sites — like the paper's client, where PT is
// toggled by static patches and a debug register traps only on its address.

#ifndef GIST_SRC_CORE_CLIENT_RUNTIME_H_
#define GIST_SRC_CORE_CLIENT_RUNTIME_H_

#include <memory>

#include "src/core/instrumentation.h"
#include "src/core/plan_snapshot.h"
#include "src/core/run_trace.h"
#include "src/hw/watchpoints.h"
#include "src/pt/tracer.h"
#include "src/vm/vm.h"

namespace gist {

class ClientRuntime : public ExecutionObserver, public InstrumentationHook {
 public:
  // `sites` must be CompileSiteTable(module, plan); both must outlive the
  // runtime.
  ClientRuntime(const Module& module, const InstrumentationPlan& plan, const SiteTable& sites,
                uint32_t num_cores, size_t pt_buffer_bytes = kDefaultPtBufferBytes,
                uint32_t watchpoint_slots = kNumWatchpointSlots);

  // "Use the snapshot's watchpoint budget" sentinel for the ctor below.
  static constexpr uint32_t kSnapshotSlots = UINT32_MAX;

  // Frozen-snapshot flavor: runs client `client_index`'s rotation of the
  // snapshot's plan. The runtime only ever reads the snapshot, so many
  // runtimes (one per concurrent run) may share one. The snapshot must
  // outlive the runtime. `watchpoint_slots` overrides the snapshot's debug-
  // register budget — fault injection uses it to model slot contention
  // (another tool already owns some or all of DR0–DR3 on this client).
  ClientRuntime(const Module& module, const PlanSnapshot& snapshot, uint64_t client_index,
                uint32_t num_cores, size_t pt_buffer_bytes = kDefaultPtBufferBytes,
                uint32_t watchpoint_slots = kSnapshotSlots);

  // Collects the run's traces; call after the VM run completes. `run_id`
  // tags the trace; the run result supplies the outcome and the retired-
  // instruction count (the overhead baseline).
  RunTrace TakeTrace(uint64_t run_id, const RunResult& result);

  // --- ExecutionObserver ----------------------------------------------------
  // Everything except thread lifecycle. Site-filtered delivery is exact
  // here: the VM delivers a retired event only at a PT-stop site (stop sites
  // can be br/call/ret, where no hook fires), in its place among the
  // control-flow events the tracer sees. An access reaches the runtime at a
  // watch site, where it may arm its address, or at an armed address; every
  // other access is a no-op here, and the armed set changes only in those
  // deliveries and in hook calls. Every event arrives at once and in
  // execution order, so the PT byte streams and watchpoint logs are
  // identical to delivery of every event (reference dispatch).
  uint32_t SubscribedEvents() const override {
    return kEvContextSwitch | kEvBlockEnter | kEvBranch | kEvMemAccess | kEvReturn |
           kEvInstrRetired;
  }
  // The plan's compiled sites, for the VM's event filter and hook sites
  // (overrides both ExecutionObserver::Sites and InstrumentationHook::Sites).
  const SiteTable* Sites() const override { return &sites_; }
  const std::vector<Addr>* ArmedAddrs() const override { return &watchpoints_.armed(); }
  void OnContextSwitch(CoreId core, ThreadId prev, ThreadId next, FunctionId next_function,
                       BlockId next_block, uint32_t next_index) override;
  void OnBlockEnter(ThreadId tid, CoreId core, FunctionId function, BlockId block) override;
  void OnBranch(ThreadId tid, CoreId core, InstrId instr, bool taken) override;
  void OnMemAccess(const MemAccessEvent& event) override;
  void OnReturn(ThreadId tid, CoreId core, InstrId instr, FunctionId to_function,
                BlockId to_block, uint32_t to_index) override;
  void OnInstrRetired(ThreadId tid, CoreId core, InstrId instr) override;

  // --- InstrumentationHook (watchpoint arming with register access) --------
  // Only the plan's arm sites do anything (the table's hook bits).
  void BeforeInstr(ThreadId tid, InstrId instr, const std::vector<Word>& regs) override;
  void AfterInstr(ThreadId tid, InstrId instr, const std::vector<Word>& regs) override;

  const PtTracer& tracer() const { return tracer_; }
  const WatchpointUnit& watchpoints() const { return watchpoints_; }
  // Accesses that hit the 4-watchpoint budget limit and could not be armed;
  // the cooperative fleet rotates these across other runs (§3.2.3).
  const std::vector<InstrId>& unarmed_accesses() const { return unarmed_; }

 private:
  void ArmSites(const std::vector<WatchArmSite>& sites, const std::vector<Word>& regs);

  const Module& module_;
  const InstrumentationPlan& plan_;
  const SiteTable& sites_;
  PtTracer tracer_;
  WatchpointUnit watchpoints_;
  std::vector<InstrId> unarmed_;
};

}  // namespace gist

#endif  // GIST_SRC_CORE_CLIENT_RUNTIME_H_
