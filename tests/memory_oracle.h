// Test-local oracle for the VM's flat memory (src/vm/memory.h): the sparse
// map-based memory it replaced. Words live in a hash map, heap blocks in an
// ordered map keyed by base address, and every access looks its block up —
// slow, but obviously right, so tests/memory_test.cc can run random
// alloc/free/read/write/check sequences against both and demand identical
// fault classes and values.

#ifndef GIST_TESTS_MEMORY_ORACLE_H_
#define GIST_TESTS_MEMORY_ORACLE_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "src/vm/memory.h"

namespace gist {

class OracleMemory {
 public:
  explicit OracleMemory(const Module& module) {
    Addr next = kGlobalsBase;
    for (GlobalId g = 0; g < module.num_globals(); ++g) {
      const GlobalVar& global = module.global(g);
      global_addrs_.push_back(next);
      for (uint64_t i = 0; i < global.size_words; ++i) {
        words_[next + i] = global.initial_value;
      }
      next += global.size_words;
    }
    globals_end_ = next;
  }

  Addr GlobalAddr(GlobalId id) const { return global_addrs_.at(id); }
  Addr heap_next() const { return heap_next_; }

  MemFault Check(Addr addr) const {
    if (addr == kNullAddr) {
      return MemFault::kNullDeref;
    }
    if (addr >= kGlobalsBase && addr < globals_end_) {
      return MemFault::kOk;
    }
    const HeapBlock* block = FindBlock(addr);
    if (block == nullptr) {
      return MemFault::kUnmapped;
    }
    return block->live ? MemFault::kOk : MemFault::kUseAfterFree;
  }

  MemFault Read(Addr addr, Word* out) const {
    const MemFault fault = Check(addr);
    if (fault != MemFault::kOk) {
      return fault;
    }
    auto it = words_.find(addr);
    *out = it == words_.end() ? 0 : it->second;
    return MemFault::kOk;
  }

  MemFault Write(Addr addr, Word value) {
    const MemFault fault = Check(addr);
    if (fault != MemFault::kOk) {
      return fault;
    }
    words_[addr] = value;
    return MemFault::kOk;
  }

  Addr Alloc(uint64_t size_words) {
    const Addr base = heap_next_;
    heap_next_ += size_words + 1;  // +1 guard word so adjacent blocks never touch
    heap_blocks_[base] = HeapBlock{size_words, /*live=*/true};
    for (uint64_t i = 0; i < size_words; ++i) {
      words_[base + i] = 0;
    }
    words_allocated_ += size_words;
    return base;
  }

  MemFault Free(Addr addr) {
    if (addr == kNullAddr) {
      return MemFault::kNullDeref;
    }
    auto it = heap_blocks_.find(addr);
    if (it == heap_blocks_.end()) {
      return MemFault::kInvalidFree;
    }
    if (!it->second.live) {
      return MemFault::kDoubleFree;
    }
    it->second.live = false;
    return MemFault::kOk;
  }

  uint64_t bytes_allocated() const { return words_allocated_ * sizeof(Word); }

 private:
  struct HeapBlock {
    uint64_t size_words;
    bool live;
  };

  const HeapBlock* FindBlock(Addr addr) const {
    auto it = heap_blocks_.upper_bound(addr);
    if (it == heap_blocks_.begin()) {
      return nullptr;
    }
    --it;
    return addr < it->first + it->second.size_words ? &it->second : nullptr;
  }

  std::unordered_map<Addr, Word> words_;   // backing store (sparse)
  std::map<Addr, HeapBlock> heap_blocks_;  // by base address
  std::vector<Addr> global_addrs_;         // GlobalId -> base address
  Addr globals_end_ = kGlobalsBase;
  Addr heap_next_ = kHeapBase;
  uint64_t words_allocated_ = 0;
};

}  // namespace gist

#endif  // GIST_TESTS_MEMORY_ORACLE_H_
