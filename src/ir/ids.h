// Identifier types shared across the IR and every analysis built on it.
//
// MiniIR is the repository's LLVM-IR stand-in (see DESIGN.md §1.1): a register
// machine with a single 64-bit integer/word type. Instruction ids are unique
// module-wide and are the unit of slicing, tracing, and sketch accuracy
// accounting — the analog of "LLVM instructions" in the paper's Table 1.

#ifndef GIST_SRC_IR_IDS_H_
#define GIST_SRC_IR_IDS_H_

#include <cstdint>
#include <limits>

namespace gist {

// Virtual register index, local to a function.
using Reg = uint32_t;
inline constexpr Reg kNoReg = std::numeric_limits<Reg>::max();

// Index of a function within its module.
using FunctionId = uint32_t;
inline constexpr FunctionId kNoFunction = std::numeric_limits<FunctionId>::max();

// Index of a basic block within its function.
using BlockId = uint32_t;
inline constexpr BlockId kNoBlock = std::numeric_limits<BlockId>::max();

// Module-wide unique instruction id, assigned when instructions are appended.
using InstrId = uint32_t;
inline constexpr InstrId kNoInstr = std::numeric_limits<InstrId>::max();

// Index of a global variable within its module.
using GlobalId = uint32_t;

// Runtime thread identifier (VM-level, not OS-level).
using ThreadId = uint32_t;
inline constexpr ThreadId kNoThread = std::numeric_limits<ThreadId>::max();

// Abstract memory address: 64-bit word-granular slot number. Slot 0 is the
// null address and is never mapped.
using Addr = uint64_t;
inline constexpr Addr kNullAddr = 0;

// Runtime address-space layout (src/vm/memory.h): module globals occupy
// [kGlobalsBase, kHeapBase) in declaration order, heap blocks start at
// kHeapBase. The verifier rejects a module whose globals overrun the segment,
// since its tail would alias the heap.
inline constexpr Addr kGlobalsBase = 0x1000;
inline constexpr Addr kHeapBase = 0x100000;
inline constexpr uint64_t kMaxGlobalWords = kHeapBase - kGlobalsBase;

// Machine word: every MiniIR value is a signed 64-bit integer; addresses are
// carried in words via bit_cast-style conversion.
using Word = int64_t;

}  // namespace gist

#endif  // GIST_SRC_IR_IDS_H_
