// Flat word-granular memory with a fault-detecting heap.
//
// Address space layout (word addresses; the constants live in src/ir/ids.h):
//   [0]                          null, never mapped
//   [kGlobalsBase, globals end)  module globals, laid out in declaration order
//   [globals end, kHeapBase)     unmapped gap
//   [kHeapBase, heap next)       bump-allocated heap blocks, each followed by
//                                one unmapped guard word
//
// Both mapped segments are dense arrays indexed by `addr - base`, so an access
// is a range test and an index — no hashing, no tree walk (DESIGN.md §12).
// The heap keeps one fault byte per word beside its values: the MemFault an
// access to that word raises, kOk (live), kUseAfterFree (freed) or kUnmapped
// (guard). The heap never reuses addresses, so every dangling pointer access
// is detected precisely as kUseAfterFree (the analog of running the paper's
// workloads under a crash-on-error allocator).

#ifndef GIST_SRC_VM_MEMORY_H_
#define GIST_SRC_VM_MEMORY_H_

#include <vector>

#include "src/ir/module.h"
#include "src/vm/failure.h"

namespace gist {

// Outcome of a memory operation; kOk means the access went through.
enum class MemFault : uint8_t {
  kOk,
  kNullDeref,
  kUnmapped,
  kUseAfterFree,
  kDoubleFree,
  kInvalidFree,
};

FailureType MemFaultToFailure(MemFault fault);

// Address global `id` will occupy at runtime. Globals are laid out in
// declaration order from kGlobalsBase, so the address is a static property of
// the module — Gist's planner uses this to arm watchpoints on globals before
// the run starts, just as a debugger sets a debug register on a symbol.
Addr StaticGlobalAddr(const Module& module, GlobalId id);

class Memory {
 public:
  // Maps and initializes every global of `module`. The globals must fit below
  // kHeapBase (VerifyModule rejects modules where they do not).
  explicit Memory(const Module& module);

  // Word address of global `id` (its first element). Unchecked: the VM only
  // asks for ids DecodedModule validated at decode time.
  Addr GlobalAddr(GlobalId id) const { return global_addrs_[id]; }

  // Validity check without data transfer (used by lock/unlock). Addresses
  // below a segment's base wrap to huge offsets and fail its range test.
  MemFault Check(Addr addr) const {
    if (addr - kGlobalsBase < globals_.size()) {
      return MemFault::kOk;
    }
    if (addr - kHeapBase < heap_fault_.size()) {
      return heap_fault_[addr - kHeapBase];
    }
    return addr == kNullAddr ? MemFault::kNullDeref : MemFault::kUnmapped;
  }

  MemFault Read(Addr addr, Word* out) const {
    if (addr - kGlobalsBase < globals_.size()) {
      *out = globals_[addr - kGlobalsBase];
      return MemFault::kOk;
    }
    const uint64_t h = addr - kHeapBase;
    if (h < heap_fault_.size() && heap_fault_[h] == MemFault::kOk) {
      *out = heap_[h];
      return MemFault::kOk;
    }
    return Check(addr);
  }

  MemFault Write(Addr addr, Word value) {
    if (addr - kGlobalsBase < globals_.size()) {
      globals_[addr - kGlobalsBase] = value;
      return MemFault::kOk;
    }
    const uint64_t h = addr - kHeapBase;
    if (h < heap_fault_.size() && heap_fault_[h] == MemFault::kOk) {
      heap_[h] = value;
      return MemFault::kOk;
    }
    return Check(addr);
  }

  // Allocates `size_words` (> 0) and zero-initializes them. O(size_words).
  Addr Alloc(uint64_t size_words);
  // Frees the block based at `addr`. O(block size).
  MemFault Free(Addr addr);

  uint64_t bytes_allocated() const { return words_allocated_ * sizeof(Word); }

 private:
  std::vector<Word> globals_;         // word addr - kGlobalsBase
  std::vector<Addr> global_addrs_;    // GlobalId -> base address
  std::vector<Word> heap_;            // word addr - kHeapBase, guards included
  std::vector<MemFault> heap_fault_;  // per heap word: kOk, kUseAfterFree or kUnmapped
  uint64_t words_allocated_ = 0;
};

}  // namespace gist

#endif  // GIST_SRC_VM_MEMORY_H_
