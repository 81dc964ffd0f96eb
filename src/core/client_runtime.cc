#include "src/core/client_runtime.h"

#include <algorithm>

namespace gist {

ClientRuntime::ClientRuntime(const Module& module, const InstrumentationPlan& plan,
                             const SiteTable& sites, uint32_t num_cores, size_t pt_buffer_bytes,
                             uint32_t watchpoint_slots)
    : module_(module),
      plan_(plan),
      sites_(sites),
      tracer_(num_cores, pt_buffer_bytes, /*always_on=*/false),
      watchpoints_(watchpoint_slots) {
  // Statically-known addresses (globals) are armed before the run starts.
  for (Addr addr : plan.static_watch_addrs) {
    watchpoints_.Arm(addr);
  }
}

ClientRuntime::ClientRuntime(const Module& module, const PlanSnapshot& snapshot,
                             uint64_t client_index, uint32_t num_cores, size_t pt_buffer_bytes,
                             uint32_t watchpoint_slots)
    : ClientRuntime(module, snapshot.ForClient(client_index),
                    snapshot.SitesForClient(client_index), num_cores, pt_buffer_bytes,
                    watchpoint_slots == kSnapshotSlots ? snapshot.watchpoint_slots()
                                                       : watchpoint_slots) {}

void ClientRuntime::OnContextSwitch(CoreId core, ThreadId prev, ThreadId next,
                                    FunctionId next_function, BlockId next_block,
                                    uint32_t next_index) {
  tracer_.OnContextSwitch(core, prev, next, next_function, next_block, next_index);
}

void ClientRuntime::OnBlockEnter(ThreadId tid, CoreId core, FunctionId function, BlockId block) {
  // The tracer is never always-on here, so its own OnBlockEnter is a no-op
  // and only start blocks matter (which lets the VM deliver only those).
  if ((sites_.BlockFlags(function, block) & kSitePtStart) != 0) {
    tracer_.Enable(core, tid, function, block);
  }
}

void ClientRuntime::OnBranch(ThreadId tid, CoreId core, InstrId instr, bool taken) {
  tracer_.OnBranch(tid, core, instr, taken);
}

void ClientRuntime::OnMemAccess(const MemAccessEvent& event) {
  if ((sites_.instrs[event.instr] & kSiteWatch) != 0 && !watchpoints_.IsWatched(event.addr)) {
    // Arm on first execution of a tracked access: the runtime now knows the
    // concrete address the statically-planned watchpoint should cover.
    if (!watchpoints_.Arm(event.addr)) {
      if (std::find(unarmed_.begin(), unarmed_.end(), event.instr) == unarmed_.end()) {
        unarmed_.push_back(event.instr);
      }
    }
  }
  watchpoints_.OnMemAccess(event);
}

void ClientRuntime::OnReturn(ThreadId tid, CoreId core, InstrId instr, FunctionId to_function,
                             BlockId to_block, uint32_t to_index) {
  tracer_.OnReturn(tid, core, instr, to_function, to_block, to_index);
}

void ClientRuntime::OnInstrRetired(ThreadId /*tid*/, CoreId core, InstrId instr) {
  if ((sites_.instrs[instr] & kSitePtStop) != 0) {
    const InstrLocation& loc = module_.location(instr);
    tracer_.Disable(core, loc.function, loc.block, loc.index);
  }
}

void ClientRuntime::ArmSites(const std::vector<WatchArmSite>& sites,
                             const std::vector<Word>& regs) {
  for (const WatchArmSite& site : sites) {
    if (site.addr_reg >= regs.size()) {
      continue;
    }
    const Addr addr = static_cast<Addr>(regs[site.addr_reg]);
    if (addr == kNullAddr || watchpoints_.IsWatched(addr)) {
      continue;
    }
    if (!watchpoints_.Arm(addr)) {
      if (std::find(unarmed_.begin(), unarmed_.end(), site.target_access) == unarmed_.end()) {
        unarmed_.push_back(site.target_access);
      }
    }
  }
}

void ClientRuntime::BeforeInstr(ThreadId /*tid*/, InstrId instr, const std::vector<Word>& regs) {
  auto it = plan_.arm_before.find(instr);
  if (it != plan_.arm_before.end()) {
    ArmSites(it->second, regs);
  }
}

void ClientRuntime::AfterInstr(ThreadId /*tid*/, InstrId instr, const std::vector<Word>& regs) {
  auto it = plan_.arm_after.find(instr);
  if (it != plan_.arm_after.end()) {
    ArmSites(it->second, regs);
  }
}

RunTrace ClientRuntime::TakeTrace(uint64_t run_id, const RunResult& result) {
  tracer_.FlushAllPending();  // drain partial TNT packets (crash-ended runs)
  RunTrace trace;
  trace.run_id = run_id;
  trace.failed = !result.ok();
  trace.failure = result.failure;
  for (CoreId core = 0; core < tracer_.num_cores(); ++core) {
    trace.pt_buffers.push_back(tracer_.buffer(core).bytes());
  }
  trace.watch_events = watchpoints_.events();
  trace.activity.pt_bytes = tracer_.total_bytes_generated();
  trace.activity.pt_toggles = tracer_.toggle_count();
  trace.activity.watch_traps = watchpoints_.trap_count();
  trace.activity.watch_arms = watchpoints_.arm_operations();
  trace.baseline_instructions = result.stats.retired;
  return trace;
}

}  // namespace gist
