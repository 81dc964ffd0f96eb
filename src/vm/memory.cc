#include "src/vm/memory.h"

namespace gist {

FailureType MemFaultToFailure(MemFault fault) {
  switch (fault) {
    case MemFault::kOk:
      return FailureType::kNone;
    case MemFault::kNullDeref:
    case MemFault::kUnmapped:
      return FailureType::kSegFault;
    case MemFault::kUseAfterFree:
      return FailureType::kUseAfterFree;
    case MemFault::kDoubleFree:
      return FailureType::kDoubleFree;
    case MemFault::kInvalidFree:
      return FailureType::kInvalidFree;
  }
  return FailureType::kNone;
}

Addr StaticGlobalAddr(const Module& module, GlobalId id) {
  GIST_CHECK_LT(id, module.num_globals());
  Addr addr = kGlobalsBase;
  for (GlobalId g = 0; g < id; ++g) {
    addr += module.global(g).size_words;
  }
  return addr;
}

Memory::Memory(const Module& module) {
  global_addrs_.reserve(module.num_globals());
  for (GlobalId g = 0; g < module.num_globals(); ++g) {
    const GlobalVar& global = module.global(g);
    GIST_CHECK_LE(global.size_words, kMaxGlobalWords - globals_.size())
        << "global " << global.name << " overruns the globals segment";
    global_addrs_.push_back(kGlobalsBase + globals_.size());
    globals_.insert(globals_.end(), global.size_words, global.initial_value);
  }
}

Addr Memory::Alloc(uint64_t size_words) {
  GIST_CHECK_GT(size_words, 0u);
  const uint64_t base = heap_.size();
  // The block, then one guard word so adjacent blocks never touch.
  heap_.resize(base + size_words + 1);
  heap_fault_.resize(base + size_words, MemFault::kOk);
  heap_fault_.push_back(MemFault::kUnmapped);
  words_allocated_ += size_words;
  return kHeapBase + base;
}

MemFault Memory::Free(Addr addr) {
  if (addr == kNullAddr) {
    return MemFault::kNullDeref;
  }
  // Blocks are packed back to back, each behind the previous block's guard:
  // a block base is a mapped heap word at the heap's start or after a guard.
  uint64_t h = addr - kHeapBase;
  if (h >= heap_fault_.size() || heap_fault_[h] == MemFault::kUnmapped ||
      (h > 0 && heap_fault_[h - 1] != MemFault::kUnmapped)) {
    return MemFault::kInvalidFree;
  }
  if (heap_fault_[h] == MemFault::kUseAfterFree) {
    return MemFault::kDoubleFree;
  }
  for (; heap_fault_[h] == MemFault::kOk; ++h) {  // stops at the block's guard
    heap_fault_[h] = MemFault::kUseAfterFree;
  }
  return MemFault::kOk;
}

}  // namespace gist
