#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "src/ir/module.h"
#include "src/support/rng.h"
#include "src/vm/memory.h"
#include "tests/memory_oracle.h"

namespace gist {
namespace {

std::unique_ptr<Module> ModuleWithGlobals() {
  auto module = std::make_unique<Module>();
  module->CreateGlobal("a", 2, 5);
  module->CreateGlobal("b", 3, -1);
  return module;
}

TEST(MemoryTest, GlobalsInitialized) {
  auto module = ModuleWithGlobals();
  Memory memory(*module);
  Word value = 0;
  EXPECT_EQ(memory.Read(memory.GlobalAddr(0), &value), MemFault::kOk);
  EXPECT_EQ(value, 5);
  EXPECT_EQ(memory.Read(memory.GlobalAddr(0) + 1, &value), MemFault::kOk);
  EXPECT_EQ(value, 5);
  EXPECT_EQ(memory.Read(memory.GlobalAddr(1) + 2, &value), MemFault::kOk);
  EXPECT_EQ(value, -1);
}

TEST(MemoryTest, GlobalsAreContiguousAndDistinct) {
  auto module = ModuleWithGlobals();
  Memory memory(*module);
  EXPECT_EQ(memory.GlobalAddr(0), kGlobalsBase);
  EXPECT_EQ(memory.GlobalAddr(1), kGlobalsBase + 2);
}

TEST(MemoryTest, NullAccessFaults) {
  Module module;
  Memory memory(module);
  Word value;
  EXPECT_EQ(memory.Read(kNullAddr, &value), MemFault::kNullDeref);
  EXPECT_EQ(memory.Write(kNullAddr, 1), MemFault::kNullDeref);
  EXPECT_EQ(memory.Check(kNullAddr), MemFault::kNullDeref);
}

TEST(MemoryTest, UnmappedAccessFaults) {
  Module module;
  Memory memory(module);
  Word value;
  EXPECT_EQ(memory.Read(kHeapBase + 123, &value), MemFault::kUnmapped);
  EXPECT_EQ(memory.Write(0x50, 1), MemFault::kUnmapped);
}

TEST(MemoryTest, HeapLifecycle) {
  Module module;
  Memory memory(module);
  const Addr block = memory.Alloc(4);
  EXPECT_GE(block, kHeapBase);
  Word value;
  // Zero-initialized.
  EXPECT_EQ(memory.Read(block + 3, &value), MemFault::kOk);
  EXPECT_EQ(value, 0);
  EXPECT_EQ(memory.Write(block + 3, 9), MemFault::kOk);
  EXPECT_EQ(memory.Read(block + 3, &value), MemFault::kOk);
  EXPECT_EQ(value, 9);
  EXPECT_EQ(memory.Free(block), MemFault::kOk);
  EXPECT_EQ(memory.Read(block + 3, &value), MemFault::kUseAfterFree);
  EXPECT_EQ(memory.Free(block), MemFault::kDoubleFree);
}

TEST(MemoryTest, FreeOfInteriorPointerIsInvalid) {
  Module module;
  Memory memory(module);
  const Addr block = memory.Alloc(4);
  EXPECT_EQ(memory.Free(block + 1), MemFault::kInvalidFree);
}

TEST(MemoryTest, FreeOfGlobalIsInvalid) {
  auto module = ModuleWithGlobals();
  Memory memory(*module);
  EXPECT_EQ(memory.Free(memory.GlobalAddr(0)), MemFault::kInvalidFree);
}

TEST(MemoryTest, AddressesNeverReused) {
  Module module;
  Memory memory(module);
  const Addr first = memory.Alloc(2);
  EXPECT_EQ(memory.Free(first), MemFault::kOk);
  const Addr second = memory.Alloc(2);
  EXPECT_NE(first, second);
  // The stale pointer still faults precisely.
  Word value;
  EXPECT_EQ(memory.Read(first, &value), MemFault::kUseAfterFree);
}

TEST(MemoryTest, GuardWordBetweenBlocks) {
  Module module;
  Memory memory(module);
  const Addr a = memory.Alloc(2);
  const Addr b = memory.Alloc(2);
  // One-past-the-end of block a must not alias block b.
  EXPECT_NE(a + 2, b);
  Word value;
  EXPECT_EQ(memory.Read(a + 2, &value), MemFault::kUnmapped);
}

TEST(MemoryTest, FaultToFailureMapping) {
  EXPECT_EQ(MemFaultToFailure(MemFault::kOk), FailureType::kNone);
  EXPECT_EQ(MemFaultToFailure(MemFault::kNullDeref), FailureType::kSegFault);
  EXPECT_EQ(MemFaultToFailure(MemFault::kUnmapped), FailureType::kSegFault);
  EXPECT_EQ(MemFaultToFailure(MemFault::kUseAfterFree), FailureType::kUseAfterFree);
  EXPECT_EQ(MemFaultToFailure(MemFault::kDoubleFree), FailureType::kDoubleFree);
  EXPECT_EQ(MemFaultToFailure(MemFault::kInvalidFree), FailureType::kInvalidFree);
}

TEST(MemoryTest, BytesAllocatedAccumulates) {
  Module module;
  Memory memory(module);
  memory.Alloc(3);
  memory.Alloc(5);
  EXPECT_EQ(memory.bytes_allocated(), 8 * sizeof(Word));
}

TEST(MemoryTest, GlobalsFillingTheSegmentStopAtTheHeap) {
  Module module;
  module.CreateGlobal("a", 1, 3);
  module.CreateGlobal("big", kMaxGlobalWords - 1, 7);
  Memory memory(module);
  const Addr last = memory.GlobalAddr(1) + kMaxGlobalWords - 2;
  EXPECT_EQ(last, kHeapBase - 1);
  const Addr block = memory.Alloc(1);
  EXPECT_EQ(block, kHeapBase);
  EXPECT_EQ(memory.Write(block, 42), MemFault::kOk);
  Word value = 0;
  EXPECT_EQ(memory.Read(last, &value), MemFault::kOk);
  EXPECT_EQ(value, 7);
  EXPECT_EQ(memory.Read(block, &value), MemFault::kOk);
  EXPECT_EQ(value, 42);
}

// A module built without the verifier cannot smuggle globals past kHeapBase,
// where the heap would alias them.
TEST(MemoryTest, GlobalsOverrunningTheSegmentAreFatal) {
  Module module;
  module.CreateGlobal("big", kMaxGlobalWords + 1, 7);
  EXPECT_DEATH(Memory memory(module), "overruns the globals segment");
}

TEST(MemoryTest, LowAndWrappedAddressesAreUnmapped) {
  auto module = ModuleWithGlobals();
  Memory memory(*module);
  memory.Alloc(2);
  Word value;
  for (const Addr addr : {Addr{1}, kGlobalsBase - 1, kGlobalsBase + 5, kHeapBase - 1,
                          kHeapBase + 3, std::numeric_limits<Addr>::max(),
                          std::numeric_limits<Addr>::max() - kHeapBase + 1}) {
    EXPECT_EQ(memory.Read(addr, &value), MemFault::kUnmapped) << addr;
    EXPECT_EQ(memory.Write(addr, 1), MemFault::kUnmapped) << addr;
    EXPECT_EQ(memory.Check(addr), MemFault::kUnmapped) << addr;
    EXPECT_EQ(memory.Free(addr), MemFault::kInvalidFree) << addr;
  }
}

// --- differential test against the map-based oracle ------------------------

// Runs one seeded random operation sequence against Memory and the oracle,
// comparing every fault class, value and address, then sweeps every address
// around both segments.
class MemoryDifferential {
 public:
  MemoryDifferential(const Module& module, uint64_t seed)
      : memory_(module), oracle_(module), rng_(seed) {
    globals_end_ = kGlobalsBase;
    for (GlobalId g = 0; g < module.num_globals(); ++g) {
      globals_end_ += module.global(g).size_words;
    }
  }

  void Run(int ops) {
    for (int i = 0; i < ops; ++i) {
      Step(i);
    }
    Sweep();
    EXPECT_EQ(memory_.bytes_allocated(), oracle_.bytes_allocated());
    // Every outcome came up: success and each fault class.
    EXPECT_EQ(seen_, (1u << (static_cast<int>(MemFault::kInvalidFree) + 1)) - 1) << seen_;
  }

 private:
  struct Block {
    Addr base;
    uint64_t size;
  };

  // An address from one of the layout's regions, chosen so every fault class
  // and both segment edges come up often.
  Addr PickAddr() {
    const auto near = [&](Addr base) { return base + rng_.NextBelow(5) - 2; };
    switch (rng_.NextBelow(11)) {
      case 0:
        return kNullAddr;
      case 1:  // below kGlobalsBase
        return 1 + rng_.NextBelow(kGlobalsBase - 1);
      case 2:  // a global
        return globals_end_ > kGlobalsBase
                   ? kGlobalsBase + rng_.NextBelow(globals_end_ - kGlobalsBase)
                   : near(kGlobalsBase);
      case 3:  // the segment edges
        return near(rng_.NextBelow(2) == 0 ? globals_end_ : kGlobalsBase);
      case 4:  // the globals-to-heap gap
        return globals_end_ + rng_.NextBelow(kHeapBase - globals_end_);
      case 5:  // around the heap's start and its bump pointer
        return near(rng_.NextBelow(2) == 0 ? kHeapBase : oracle_.heap_next());
      case 6:  // anywhere in the heap, and a little past it
        return kHeapBase + rng_.NextBelow(oracle_.heap_next() - kHeapBase + 8);
      case 7:  // wrapped past zero: a small negative offset from null
        return ~Addr{0} - rng_.NextBelow(16);
      case 8:  // any 64-bit value
        return rng_.NextU64();
      default: {  // a known block: its base, an interior word, its last word or its guard
        if (blocks_.empty()) {
          return near(kHeapBase);
        }
        const Block& block = blocks_[rng_.NextBelow(blocks_.size())];
        switch (rng_.NextBelow(4)) {
          case 0:
            return block.base;
          case 1:
            return block.base + rng_.NextBelow(block.size);
          case 2:
            return block.base + block.size - 1;
          default:
            return block.base + block.size;
        }
      }
    }
  }

  void Step(int i) {
    const std::string label = "op " + std::to_string(i);
    switch (rng_.NextBelow(8)) {
      case 0: {
        const uint64_t size = rng_.NextBelow(4) == 0 ? 1 + rng_.NextBelow(64) : 1 + rng_.NextBelow(4);
        const Addr got = memory_.Alloc(size);
        ASSERT_EQ(got, oracle_.Alloc(size)) << label;
        blocks_.push_back(Block{got, size});
        break;
      }
      case 1: {
        // Half the frees aim at a known block's base, so blocks get freed
        // (and freed again) often.
        const Addr addr = blocks_.empty() || rng_.NextBelow(2) == 0
                              ? PickAddr()
                              : blocks_[rng_.NextBelow(blocks_.size())].base;
        ASSERT_EQ(Seen(memory_.Free(addr)), oracle_.Free(addr)) << label << " free " << addr;
        break;
      }
      case 2: {
        const Addr addr = PickAddr();
        ASSERT_EQ(Seen(memory_.Check(addr)), oracle_.Check(addr)) << label << " check " << addr;
        break;
      }
      case 3:
      case 4: {
        const Addr addr = PickAddr();
        const Word value = static_cast<Word>(rng_.NextU64());
        ASSERT_EQ(Seen(memory_.Write(addr, value)), oracle_.Write(addr, value))
            << label << " write " << addr;
        break;
      }
      default: {
        const Addr addr = PickAddr();
        Word got = -1;
        Word want = -1;
        const MemFault fault = Seen(memory_.Read(addr, &got));
        ASSERT_EQ(fault, oracle_.Read(addr, &want)) << label << " read " << addr;
        if (fault == MemFault::kOk) {
          ASSERT_EQ(got, want) << label << " read " << addr;
        }
        break;
      }
    }
  }

  // Every word from just below kGlobalsBase to just past the globals, and
  // from just below kHeapBase to just past the bump pointer.
  void Sweep() {
    const auto sweep = [&](Addr from, Addr to) {
      for (Addr addr = from; addr < to; ++addr) {
        Word got = -1;
        Word want = -1;
        const MemFault fault = memory_.Read(addr, &got);
        ASSERT_EQ(fault, oracle_.Read(addr, &want)) << "sweep " << addr;
        ASSERT_EQ(memory_.Check(addr), oracle_.Check(addr)) << "sweep " << addr;
        if (fault == MemFault::kOk) {
          ASSERT_EQ(got, want) << "sweep " << addr;
        }
      }
    };
    sweep(kGlobalsBase - 3, globals_end_ + 3);
    sweep(kHeapBase - 3, oracle_.heap_next() + 3);
  }

  MemFault Seen(MemFault fault) {
    seen_ |= 1u << static_cast<int>(fault);
    return fault;
  }

  Memory memory_;
  OracleMemory oracle_;
  Rng rng_;
  Addr globals_end_;
  std::vector<Block> blocks_;
  uint32_t seen_ = 0;  // bit per MemFault value returned by a random op
};

TEST(MemoryDifferentialTest, MatchesOracleWithoutGlobals) {
  Module module;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MemoryDifferential(module, seed).Run(2000);
  }
}

TEST(MemoryDifferentialTest, MatchesOracleWithGlobals) {
  Module module;
  module.CreateGlobal("a", 1, 5);
  module.CreateGlobal("b", 7, -3);
  module.CreateGlobal("c", 40, 0);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MemoryDifferential(module, 100 + seed).Run(2000);
  }
}

// Globals ending one word short of kHeapBase: no gap word between the
// segments but one.
TEST(MemoryDifferentialTest, MatchesOracleWithGlobalsUpToTheHeap) {
  Module module;
  module.CreateGlobal("big", kMaxGlobalWords - 1, 11);
  MemoryDifferential(module, 7).Run(3000);
}

}  // namespace
}  // namespace gist
