// Static instrumentation planning (paper §3.2.2–§3.2.3, Fig. 4).
//
// Given the slice window that Adaptive Slice Tracking currently monitors, the
// planner decides — entirely statically — where the client runtime must:
//
//   * start Intel PT tracing: at every predecessor block of a tracked
//     statement's block (box I of Fig. 4a), except when an already-processed
//     tracked statement strictly dominates it, in which case tracing is
//     already on when control arrives (the sdom optimization);
//   * stop Intel PT tracing: right after a tracked statement, before its
//     immediate postdominator (box II of Fig. 4a), except when the statement
//     strictly dominates the next tracked statement;
//   * arm hardware watchpoints: at each tracked shared-memory access, placed
//     after the access's immediate dominator (Fig. 4b); the runtime arms the
//     watchpoint with the address the access is about to touch.

#ifndef GIST_SRC_CORE_INSTRUMENTATION_H_
#define GIST_SRC_CORE_INSTRUMENTATION_H_

#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cfg/ticfg.h"

namespace gist {

// One watchpoint-arming site: when the anchor instruction executes, the
// client arms a watchpoint on the value of `addr_reg` — the address the
// tracked access will touch.
struct WatchArmSite {
  Reg addr_reg = kNoReg;
  InstrId target_access = kNoInstr;
};

struct InstrumentationPlan {
  // Blocks (function, block) whose entry starts PT tracing.
  std::set<std::pair<FunctionId, BlockId>> pt_start_blocks;
  // Instructions after which PT tracing stops.
  std::unordered_set<InstrId> pt_stop_instrs;
  // Shared-memory accesses to track with hardware watchpoints.
  std::unordered_set<InstrId> watch_instrs;
  // Arming instrumentation: arm after the keyed instruction executed (the
  // reaching definition of the access's address operand)...
  std::map<InstrId, std::vector<WatchArmSite>> arm_after;
  // ...or before it executes (function entry, for parameter-carried
  // addresses whose value exists from frame creation).
  std::map<InstrId, std::vector<WatchArmSite>> arm_before;
  // Addresses known statically (globals, possibly with constant offsets):
  // armed before the run starts, like a debugger setting a debug register on
  // a symbol. These catch racing accesses from threads outside the slice.
  std::vector<Addr> static_watch_addrs;
  // The slice window this plan monitors (proximity order, failure first).
  std::vector<InstrId> window;

  // Rough size of the binary patch bsdiff would ship (used by the fleet simulation).
  size_t site_count() const {
    return pt_start_blocks.size() + pt_stop_instrs.size() + watch_instrs.size();
  }
};

// Builds the plan for the given slice window (the first σ statements of the
// static slice).
InstrumentationPlan PlanInstrumentation(const Ticfg& ticfg, const std::vector<InstrId>& window);

// Order-independent content hash over every plan field (unordered sets are
// sorted first); the artifact-store key for cached rotation lists.
uint64_t HashPlan(const InstrumentationPlan& plan);

// Rough in-memory footprint, for artifact-store byte budgeting.
size_t ApproxPlanBytes(const InstrumentationPlan& plan);

// Resolves the address a shared-memory access touches when its address
// operand constant-folds to a global (addrof-global chains with constant
// offsets, via a backward reaching-def search over the access's function).
// nullopt for dynamic addresses (heap, parameter-carried), for merges of
// distinct addresses, and for non-access instructions. Fix synthesis uses
// this to find every access to the racy variable.
std::optional<Addr> StaticAccessAddr(const Module& module, InstrId access);

}  // namespace gist

#endif  // GIST_SRC_CORE_INSTRUMENTATION_H_
