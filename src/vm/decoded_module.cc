#include "src/vm/decoded_module.h"

namespace gist {
namespace {

uint8_t FlagsFor(const Instruction& instr) {
  uint8_t flags = 0;
  if (instr.IsSharedAccess()) {
    flags |= kDiMemAccess;
  }
  if (instr.op == Opcode::kBr) {
    flags |= kDiBranch;
  }
  if (instr.IsCallLike()) {
    flags |= kDiCallLike;
  }
  if (instr.IsTerminator()) {
    flags |= kDiTerminator;
  }
  return flags;
}

ExecOp ExecOpFor(const Instruction& instr) {
  switch (instr.op) {
    case Opcode::kConst:
      return ExecOp::kConst;
    case Opcode::kMove:
      return ExecOp::kMove;
    case Opcode::kNot:
      return ExecOp::kNot;
    case Opcode::kBinOp:
      switch (instr.binop) {
        case BinOp::kAdd:
          return ExecOp::kAdd;
        case BinOp::kSub:
          return ExecOp::kSub;
        case BinOp::kMul:
          return ExecOp::kMul;
        case BinOp::kDiv:
          return ExecOp::kDiv;
        case BinOp::kRem:
          return ExecOp::kRem;
        case BinOp::kEq:
          return ExecOp::kEq;
        case BinOp::kNe:
          return ExecOp::kNe;
        case BinOp::kLt:
          return ExecOp::kLt;
        case BinOp::kLe:
          return ExecOp::kLe;
        case BinOp::kGt:
          return ExecOp::kGt;
        case BinOp::kGe:
          return ExecOp::kGe;
        case BinOp::kAnd:
          return ExecOp::kAnd;
        case BinOp::kOr:
          return ExecOp::kOr;
        case BinOp::kXor:
          return ExecOp::kXor;
        case BinOp::kShl:
          return ExecOp::kShl;
        case BinOp::kShr:
          return ExecOp::kShr;
      }
      GIST_UNREACHABLE("bad binop");
    case Opcode::kLoad:
      return ExecOp::kLoad;
    case Opcode::kStore:
      return ExecOp::kStore;
    case Opcode::kAddrOfGlobal:
      return ExecOp::kAddrOfGlobal;
    case Opcode::kGep:
      return ExecOp::kGep;
    case Opcode::kAlloc:
      return ExecOp::kAlloc;
    case Opcode::kFree:
      return ExecOp::kFree;
    case Opcode::kCall:
      return ExecOp::kCall;
    case Opcode::kRet:
      return ExecOp::kRet;
    case Opcode::kBr:
      return ExecOp::kBr;
    case Opcode::kJmp:
      return ExecOp::kJmp;
    case Opcode::kAssert:
      return ExecOp::kAssert;
    case Opcode::kThreadCreate:
      return ExecOp::kThreadCreate;
    case Opcode::kThreadJoin:
      return ExecOp::kThreadJoin;
    case Opcode::kLock:
      return ExecOp::kLock;
    case Opcode::kUnlock:
      return ExecOp::kUnlock;
    case Opcode::kInput:
      return ExecOp::kInput;
    case Opcode::kPrint:
      return ExecOp::kPrint;
    case Opcode::kNop:
      return ExecOp::kNop;
  }
  GIST_UNREACHABLE("bad opcode");
}

// The straight-line subset: ops that cannot block, switch threads, grow the
// stack, or emit per-op control-flow events. Faulting is fine (div-by-zero,
// memory faults, assert) — the fused executor syncs the frame and raises the
// identical failure.
bool IsFusableOp(const DecodedInstr& instr) {
  switch (instr.exec) {
    case ExecOp::kConst:
    case ExecOp::kMove:
    case ExecOp::kNot:
    case ExecOp::kAdd:
    case ExecOp::kSub:
    case ExecOp::kMul:
    case ExecOp::kDiv:
    case ExecOp::kRem:
    case ExecOp::kEq:
    case ExecOp::kNe:
    case ExecOp::kLt:
    case ExecOp::kLe:
    case ExecOp::kGt:
    case ExecOp::kGe:
    case ExecOp::kAnd:
    case ExecOp::kOr:
    case ExecOp::kXor:
    case ExecOp::kShl:
    case ExecOp::kShr:
    case ExecOp::kLoad:
    case ExecOp::kStore:
    case ExecOp::kAddrOfGlobal:
    case ExecOp::kGep:
    case ExecOp::kAlloc:
    case ExecOp::kFree:
    case ExecOp::kAssert:
    case ExecOp::kInput:
    case ExecOp::kPrint:
    case ExecOp::kNop:
      break;
    default:
      return false;
  }
  // Register-writing ops must have a real destination so the fused body can
  // store unconditionally (the interpreter's set_reg tolerates kNoReg; the
  // fused loop doesn't pay that branch).
  switch (instr.exec) {
    case ExecOp::kStore:
    case ExecOp::kFree:
    case ExecOp::kAssert:
    case ExecOp::kPrint:
    case ExecOp::kNop:
      return true;
    default:
      return instr.dst != kNoReg;
  }
}

bool IsFusableBlock(const DecodedBlock& block) {
  if (block.size == 0) {
    return false;
  }
  const DecodedInstr& term = block.instrs[block.size - 1];
  if (term.exec != ExecOp::kBr && term.exec != ExecOp::kJmp) {
    return false;
  }
  for (uint32_t i = 0; i + 1 < block.size; ++i) {
    if (!IsFusableOp(block.instrs[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

DecodedModule::DecodedModule(const Module& module) : module_(module) {
  functions_.resize(module.num_functions());
  for (FunctionId fid = 0; fid < module.num_functions(); ++fid) {
    const Function& function = module.function(fid);
    DecodedFunction& decoded = functions_[fid];
    decoded.id = fid;
    decoded.num_regs = function.num_regs();

    size_t total = 0;
    for (BlockId bid = 0; bid < function.num_blocks(); ++bid) {
      total += function.block(bid).size();
    }
    // Instructions live in one contiguous array per function; reserve the
    // exact size up front so block pointers into it stay stable.
    decoded.instrs.reserve(total);
    decoded.blocks.resize(function.num_blocks());

    for (BlockId bid = 0; bid < function.num_blocks(); ++bid) {
      const BasicBlock& block = function.block(bid);
      const size_t offset = decoded.instrs.size();
      for (const Instruction& instr : block.instructions()) {
        DecodedInstr di;
        di.id = instr.id;
        di.op = instr.op;
        di.exec = ExecOpFor(instr);
        di.flags = FlagsFor(instr);
        di.binop = instr.binop;
        di.dst = instr.dst;
        di.num_operands = static_cast<uint32_t>(instr.operands.size());
        if (!instr.operands.empty()) {
          di.op0 = instr.operands[0];
        }
        if (instr.operands.size() > 1) {
          di.op1 = instr.operands[1];
        }
        di.imm = instr.imm;
        di.callee = instr.callee;
        di.global = instr.global;
        di.src = &instr;
        // Validate once so the interpreter can index registers unchecked.
        GIST_CHECK(instr.dst == kNoReg || instr.dst < decoded.num_regs)
            << "decoded " << function.name() << ": dst register out of range";
        for (Reg operand : instr.operands) {
          GIST_CHECK_LT(operand, decoded.num_regs)
              << "decoded " << function.name() << ": operand register out of range";
        }
        if (instr.op == Opcode::kCall || instr.op == Opcode::kThreadCreate) {
          GIST_CHECK_LT(instr.callee, module.num_functions())
              << "decoded " << function.name() << ": callee out of range";
        }
        // Memory::GlobalAddr indexes unchecked.
        if (instr.op == Opcode::kAddrOfGlobal) {
          GIST_CHECK_LT(instr.global, module.num_globals())
              << "decoded " << function.name() << ": global out of range";
        }
        decoded.instrs.push_back(di);
      }
      decoded.blocks[bid] = DecodedBlock{bid, decoded.instrs.data() + offset,
                                         static_cast<uint32_t>(block.size()), num_blocks_++};
    }

    // Second pass: resolve branch targets to block pointers.
    for (DecodedInstr& di : decoded.instrs) {
      if (di.op == Opcode::kBr || di.op == Opcode::kJmp) {
        GIST_CHECK_LT(di.src->target0, decoded.blocks.size())
            << "decoded " << function.name() << ": branch target out of range";
        di.target0 = &decoded.blocks[di.src->target0];
        if (di.op == Opcode::kBr) {
          GIST_CHECK_LT(di.src->target1, decoded.blocks.size())
              << "decoded " << function.name() << ": branch target out of range";
          di.target1 = &decoded.blocks[di.src->target1];
        }
      }
    }
  }
  BuildFusedBlocks();
}

void DecodedModule::BuildFusedBlocks() {
  std::vector<const DecodedBlock*> fusable;
  for (const DecodedFunction& function : functions_) {
    for (const DecodedBlock& block : function.blocks) {
      if (IsFusableBlock(block)) {
        fusable.push_back(&block);
      }
    }
  }
  // Sized up front so FusedBlock addresses stay stable for the entry table.
  fused_blocks_.resize(fusable.size());
  fused_entries_.assign(num_blocks_, nullptr);
  for (size_t i = 0; i < fusable.size(); ++i) {
    const DecodedBlock& block = *fusable[i];
    FusedBlock& body = fused_blocks_[i];
    body.size = block.size;
    body.profile_index = block.profile_index;
    body.block = &block;
    body.ops.reserve(block.size);
    for (uint32_t k = 0; k + 1 < block.size; ++k) {
      const DecodedInstr& instr = block.instrs[k];
      FusedOp op;
      op.exec = instr.exec;
      op.dst = instr.dst;
      op.a = instr.op0;
      op.b = instr.op1;
      op.imm = instr.imm;
      op.global = instr.global;
      op.src = &instr;
      body.ops.push_back(op);
    }
    const DecodedInstr& term = block.instrs[block.size - 1];
    body.term = term.exec;
    body.cond = term.op0;
    body.taken = term.target0;
    body.not_taken = term.target1;
    body.taken_pi = term.target0 != nullptr ? term.target0->profile_index : 0;
    body.not_taken_pi = term.target1 != nullptr ? term.target1->profile_index : 0;
    body.term_src = &term;
    // Sentinel terminator at ops[body_len]: the VM's threaded dispatcher
    // flows off the last body op straight into the kBr/kJmp handler instead
    // of exiting and re-entering the dispatch stream (src/vm/vm.cc).
    FusedOp sentinel;
    sentinel.exec = term.exec;
    sentinel.a = term.op0;
    sentinel.src = &term;
    body.ops.push_back(sentinel);
    body.body = body.ops.data();
    body.body_len = static_cast<uint32_t>(body.ops.size()) - 1;
    fused_entries_[block.profile_index] = &body;
  }
}

}  // namespace gist
