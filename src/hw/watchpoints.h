// Simulated hardware watchpoints (x86 debug registers DR0–DR3).
//
// Gist uses the 4 available hardware watchpoints to track the data flow of
// slice statements: values read/written at watched addresses and — crucially
// — the total order of those accesses across threads, which Intel PT cannot
// provide (paper §3.2.3). Traps are recorded with a globally increasing
// sequence number taken from the VM's memory-access order.

#ifndef GIST_SRC_HW_WATCHPOINTS_H_
#define GIST_SRC_HW_WATCHPOINTS_H_

#include <map>
#include <vector>

#include "src/vm/observer.h"

namespace gist {

// x86 exposes exactly four debug-register watchpoint slots.
inline constexpr uint32_t kNumWatchpointSlots = 4;

// DR7-style trigger condition. Gist tracks both directions (it needs read
// values and write values alike); write-only triggers exist for tools that
// only care about mutations.
enum class WatchTrigger : uint8_t {
  kReadWrite,
  kWriteOnly,
};

// One watchpoint trap: a load or store at a watched address.
struct WatchEvent {
  uint64_t seq = 0;  // global memory-access order (total order across threads)
  ThreadId tid = kNoThread;
  InstrId instr = kNoInstr;
  Addr addr = kNullAddr;
  Word value = 0;
  bool is_write = false;

  bool operator==(const WatchEvent&) const = default;
};

class WatchpointUnit : public ExecutionObserver {
 public:
  // `num_slots` defaults to the x86 debug-register count; the ablation bench
  // explores smaller and (hypothetical-hardware) larger budgets.
  explicit WatchpointUnit(uint32_t num_slots = kNumWatchpointSlots)
      : slots_(num_slots), slot_arms_(num_slots, 0), slot_traps_(num_slots, 0) {}

  // Arms a watchpoint on `addr` with the given trigger condition. Returns
  // true if the address is now watched (including when it already was);
  // false when all slots are busy — the caller then falls back to the
  // cooperative multi-run strategy (§3.2.3).
  bool Arm(Addr addr, WatchTrigger trigger = WatchTrigger::kReadWrite);
  void Disarm(Addr addr);
  void DisarmAll();

  bool IsWatched(Addr addr) const;
  uint32_t active_count() const { return static_cast<uint32_t>(armed_.size()); }
  // The armed addresses, one per busy slot (in arm order). A client runtime
  // hands this to the VM, which delivers an access outside the runtime's
  // watch sites only when its address is in here.
  const std::vector<Addr>& armed() const { return armed_; }

  const std::vector<WatchEvent>& events() const { return events_; }
  // Number of debug traps delivered (each costs a trap round in the perf
  // model).
  uint64_t trap_count() const { return events_.size(); }
  // Number of Arm/Disarm operations (each is a ptrace-style syscall in the
  // perf model).
  uint64_t arm_operations() const { return arm_operations_; }
  // Arm requests refused because every debug register was busy — the
  // contention/exhaustion signal the cooperative rotation (§3.2.3) and the
  // fault-injection chaos suite (DESIGN.md §8) both observe.
  uint64_t denied_arms() const { return denied_arms_; }
  // Most debug registers simultaneously armed over the unit's lifetime — the
  // slot-occupancy figure the flight recorder reports (DESIGN.md §9).
  uint32_t peak_active() const { return peak_active_; }

  // --- profiler attribution (DESIGN.md §10) ---------------------------------
  // Per-debug-register contention: how often each slot was claimed by a fresh
  // arm, and how many traps each slot delivered. Index-aligned with the
  // physical slots, so slot 0 is DR0.
  const std::vector<uint64_t>& slot_arms() const { return slot_arms_; }
  const std::vector<uint64_t>& slot_traps() const { return slot_traps_; }
  // Trap counts attributed to the trapping instruction — the profiler prices
  // these at CostModel::cycles_per_watch_trap each.
  const std::map<InstrId, uint64_t>& traps_by_instr() const { return traps_by_instr_; }

  // --- ExecutionObserver ----------------------------------------------------
  // Debug registers only see data accesses; trap order is carried by the
  // events' `seq` fields.
  uint32_t SubscribedEvents() const override { return kEvMemAccess; }
  void OnMemAccess(const MemAccessEvent& event) override;

 private:
  struct Slot {
    Addr addr = kNullAddr;
    WatchTrigger trigger = WatchTrigger::kReadWrite;
  };

  std::vector<Slot> slots_;
  std::vector<Addr> armed_;  // addresses of the busy slots
  std::vector<WatchEvent> events_;
  uint64_t arm_operations_ = 0;
  uint64_t denied_arms_ = 0;
  uint32_t peak_active_ = 0;
  std::vector<uint64_t> slot_arms_;
  std::vector<uint64_t> slot_traps_;
  std::map<InstrId, uint64_t> traps_by_instr_;
};

}  // namespace gist

#endif  // GIST_SRC_HW_WATCHPOINTS_H_
