#include "src/hw/watchpoints.h"

#include <algorithm>

namespace gist {

bool WatchpointUnit::Arm(Addr addr, WatchTrigger trigger) {
  if (addr == kNullAddr) {
    ++denied_arms_;
    return false;
  }
  for (Slot& slot : slots_) {
    if (slot.addr == addr) {
      // Already armed; widen the trigger if needed without consuming a slot.
      if (slot.trigger == WatchTrigger::kWriteOnly && trigger == WatchTrigger::kReadWrite) {
        slot.trigger = WatchTrigger::kReadWrite;
        ++arm_operations_;
      }
      return true;
    }
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.addr == kNullAddr) {
      slot.addr = addr;
      slot.trigger = trigger;
      armed_.push_back(addr);
      ++arm_operations_;
      ++slot_arms_[i];  // fresh claim of this debug register
      const uint32_t active = active_count();
      if (active > peak_active_) {
        peak_active_ = active;
      }
      return true;
    }
  }
  ++denied_arms_;
  return false;  // every debug register busy (or none granted this run)
}

void WatchpointUnit::Disarm(Addr addr) {
  for (Slot& slot : slots_) {
    if (slot.addr == addr) {
      slot.addr = kNullAddr;
      ++arm_operations_;
    }
  }
  armed_.erase(std::remove(armed_.begin(), armed_.end(), addr), armed_.end());
}

void WatchpointUnit::DisarmAll() {
  for (Slot& slot : slots_) {
    if (slot.addr != kNullAddr) {
      slot.addr = kNullAddr;
      ++arm_operations_;
    }
  }
  armed_.clear();
}

bool WatchpointUnit::IsWatched(Addr addr) const {
  return std::find(armed_.begin(), armed_.end(), addr) != armed_.end();
}

void WatchpointUnit::OnMemAccess(const MemAccessEvent& event) {
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.addr != event.addr || slot.addr == kNullAddr) {
      continue;
    }
    if (slot.trigger == WatchTrigger::kWriteOnly && !event.is_write) {
      return;
    }
    ++slot_traps_[i];
    ++traps_by_instr_[event.instr];
    events_.push_back(WatchEvent{event.seq, event.tid, event.instr, event.addr, event.value,
                                 event.is_write});
    return;
  }
}

}  // namespace gist
