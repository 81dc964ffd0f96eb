// Pre-decoded execution cache for the MiniIR interpreter.
//
// The VM's original Step re-resolved `module.function(...)` / `block(...)` /
// `instructions()[index]` for every retired instruction — three indirection
// chains plus bounds checks on the hottest path in the repository (every
// fleet run, every experiment). A DecodedModule flattens a Module once into
// contiguous per-function instruction arrays with
//   * hot instruction fields copied inline (opcode, dst, first two operands,
//     immediate, binop),
//   * successor blocks resolved to pointers (no BlockId -> block lookup on
//     branches),
//   * per-instruction flag bits (memory access / branch / call-like) so the
//     interpreter can classify without switching twice,
//   * per-function frame register counts,
// and validates every register index once at build time, so the interpreter
// runs unchecked afterwards.
//
// Decoding also compiles a fused body for every block whose shape permits it
// (DESIGN.md §12): a compact op array the interpreter runs straight-line,
// with no per-op bounds check, hook probe, profile test, or budget check.
// Every Vm interpreting from the module runs them, subject to the per-run
// deopt rules in src/vm/vm.cc.
//
// A DecodedModule is immutable after construction and holds only const
// references into the Module, so one instance is safely shared read-only by
// any number of concurrent VM runs (the fleet builds one per GistServer and
// ships it inside every PlanSnapshot). It must not outlive its Module, and a
// Module mutated after decoding (e.g. by the transform rewriter) must be
// re-decoded.

#ifndef GIST_SRC_VM_DECODED_MODULE_H_
#define GIST_SRC_VM_DECODED_MODULE_H_

#include <vector>

#include "src/ir/module.h"

namespace gist {

// Classification bits precomputed per instruction.
enum DecodedInstrFlags : uint8_t {
  kDiMemAccess = 1u << 0,   // load/store: emits a MemAccessEvent
  kDiBranch = 1u << 1,      // conditional branch (kBr)
  kDiCallLike = 1u << 2,    // kCall / kThreadCreate
  kDiTerminator = 1u << 3,  // kBr / kJmp / kRet
};

struct DecodedBlock;

// Flattened dispatch opcode: one value per interpreter action. BinOp
// variants are promoted to first-class values so the hot loop dispatches
// with a single indirect branch instead of switch-on-op + switch-on-binop.
enum class ExecOp : uint8_t {
  kConst,
  kMove,
  kNot,
  // kBinOp, split per operator.
  kAdd,
  kSub,
  kMul,
  kDiv,
  kRem,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kLoad,
  kStore,
  kAddrOfGlobal,
  kGep,
  kAlloc,
  kFree,
  kCall,
  kRet,
  kBr,
  kJmp,
  kAssert,
  kThreadCreate,
  kThreadJoin,
  kLock,
  kUnlock,
  kInput,
  kPrint,
  kNop,
};

// 64 bytes and cache-line aligned: stepping to the next instruction is a
// shift, and no decoded instruction straddles two lines.
struct alignas(64) DecodedInstr {
  // Hot scalar fields, copied out of the Instruction.
  InstrId id = kNoInstr;
  Opcode op = Opcode::kNop;
  ExecOp exec = ExecOp::kNop;
  uint8_t flags = 0;
  BinOp binop = BinOp::kAdd;
  Reg dst = kNoReg;
  Reg op0 = kNoReg;  // operands[0] when present
  Reg op1 = kNoReg;  // operands[1] when present
  uint32_t num_operands = 0;
  int64_t imm = 0;
  FunctionId callee = kNoFunction;
  GlobalId global = 0;
  // Successor blocks resolved to pointers (kBr: taken/fall-through; kJmp:
  // target0 only). Null for non-control instructions.
  const DecodedBlock* target0 = nullptr;
  const DecodedBlock* target1 = nullptr;
  // The full instruction, for cold paths (call argument lists, assert text,
  // failure messages).
  const Instruction* src = nullptr;
};

struct DecodedBlock {
  BlockId id = kNoBlock;
  const DecodedInstr* instrs = nullptr;
  uint32_t size = 0;
  // Dense module-wide block index (function-major, block order), assigned at
  // decode time. BlockProfile arrays (src/obs/profiler.h) are indexed by it,
  // so the interpreter can bump profile counters with one add.
  uint32_t profile_index = 0;
};

// One straight-line op of a fused body. Hot fields copied inline; `src`
// reaches back to the DecodedInstr for ids, fault messages, and observer
// payloads (cold paths only).
struct FusedOp {
  ExecOp exec = ExecOp::kNop;
  Reg dst = kNoReg;
  Reg a = kNoReg;  // operands[0] when present
  Reg b = kNoReg;  // operands[1] when present
  int64_t imm = 0;
  GlobalId global = 0;
  const DecodedInstr* src = nullptr;
};

// One fused basic block: the non-terminator ops (1:1 with instruction
// indices 0..size-2) followed by a sentinel terminator op at ops[body_len],
// which the VM's threaded dispatcher executes in-stream — control flows off
// the last body op straight into the kBr/kJmp handler.
//
// The fields the chain touches on every block transition are flattened to
// the front: `body`/`body_len` alias ops.data()/ops.size()-1 so the hot loop
// never walks the vector header, and the successor profile indices are baked
// so the next entry-table lookup needs no detour through the DecodedBlock.
struct FusedBlock {
  const FusedOp* body = nullptr;  // == ops.data()
  uint32_t body_len = 0;          // == ops.size() - 1 (excludes the sentinel)
  ExecOp term = ExecOp::kJmp;     // kBr or kJmp only
  Reg cond = kNoReg;              // kBr: condition register
  uint32_t taken_pi = 0;          // == taken->profile_index
  uint32_t not_taken_pi = 0;      // == not_taken->profile_index (kBr only)
  const DecodedBlock* taken = nullptr;      // kBr target0 / kJmp target
  const DecodedBlock* not_taken = nullptr;  // kBr target1
  const DecodedInstr* term_src = nullptr;
  uint32_t size = 0;  // source block size == ops.size() + 1
  uint32_t profile_index = 0;
  const DecodedBlock* block = nullptr;  // source block (deopt frame sync)
  std::vector<FusedOp> ops;             // stable storage behind `body`
};

struct DecodedFunction {
  FunctionId id = kNoFunction;
  uint32_t num_regs = 0;
  // All instructions of the function, block-contiguous; blocks index into it.
  std::vector<DecodedInstr> instrs;
  std::vector<DecodedBlock> blocks;

  const DecodedBlock& entry() const { return blocks.front(); }
};

class DecodedModule {
 public:
  // Flattens `module`. Validates register indices and control-flow targets
  // (GIST_CHECK) so the interpreter needs no per-step bounds checks.
  explicit DecodedModule(const Module& module);

  DecodedModule(const DecodedModule&) = delete;
  DecodedModule& operator=(const DecodedModule&) = delete;

  const Module& module() const { return module_; }

  const DecodedFunction& function(FunctionId id) const {
    GIST_CHECK_LT(id, functions_.size());
    return functions_[id];
  }
  size_t num_functions() const { return functions_.size(); }

  // Total basic blocks across all functions == 1 + max profile_index. Sizes
  // the BlockProfile arrays.
  uint32_t num_blocks() const { return num_blocks_; }

  // Fused bodies indexed by DecodedBlock::profile_index; null where the
  // block is not fusable: it holds a call, return, thread op, or lock
  // (anything that can block, switch threads, or grow the stack), or its
  // terminator is not kBr/kJmp.
  const std::vector<const FusedBlock*>& fused_entries() const { return fused_entries_; }

 private:
  void BuildFusedBlocks();

  const Module& module_;
  std::vector<DecodedFunction> functions_;
  uint32_t num_blocks_ = 0;
  std::vector<FusedBlock> fused_blocks_;          // stable storage for fused_entries_
  std::vector<const FusedBlock*> fused_entries_;  // by profile_index
};

}  // namespace gist

#endif  // GIST_SRC_VM_DECODED_MODULE_H_
