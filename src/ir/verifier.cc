#include "src/ir/verifier.h"

#include "src/support/str.h"

namespace gist {
namespace {

Status Fail(const std::string& message) { return Status(Error(message)); }

Status VerifyInstruction(const Module& module, const Function& function, const BasicBlock& block,
                         uint32_t index, const Instruction& instr) {
  const std::string where = StrFormat("%s:^%u:%u", function.name().c_str(), block.id(), index);

  if (instr.dst != kNoReg && instr.dst >= function.num_regs()) {
    return Fail(where + ": dst register out of range");
  }
  for (Reg operand : instr.operands) {
    if (operand >= function.num_regs()) {
      return Fail(where + ": operand register out of range");
    }
  }

  auto check_operand_count = [&](size_t expected) -> Status {
    if (instr.operands.size() != expected) {
      return Fail(StrFormat("%s: %s expects %zu operands, has %zu", where.c_str(),
                            OpcodeName(instr.op), expected, instr.operands.size()));
    }
    return Status::Ok();
  };

  switch (instr.op) {
    case Opcode::kConst:
    case Opcode::kInput:
    case Opcode::kNop:
      return check_operand_count(0);
    case Opcode::kMove:
    case Opcode::kNot:
    case Opcode::kLoad:
    case Opcode::kAlloc:
    case Opcode::kFree:
    case Opcode::kAssert:
    case Opcode::kThreadJoin:
    case Opcode::kLock:
    case Opcode::kUnlock:
    case Opcode::kPrint:
      return check_operand_count(1);
    case Opcode::kBinOp:
    case Opcode::kStore:
    case Opcode::kGep:
      return check_operand_count(2);
    case Opcode::kAddrOfGlobal:
      if (instr.global >= module.num_globals()) {
        return Fail(where + ": global out of range");
      }
      return check_operand_count(0);
    case Opcode::kBr: {
      Status status = check_operand_count(1);
      if (!status.ok()) {
        return status;
      }
      if (instr.target0 >= function.num_blocks() || instr.target1 >= function.num_blocks()) {
        return Fail(where + ": branch target out of range");
      }
      return Status::Ok();
    }
    case Opcode::kJmp:
      if (instr.target0 >= function.num_blocks()) {
        return Fail(where + ": jump target out of range");
      }
      return check_operand_count(0);
    case Opcode::kRet:
      if (instr.operands.size() > 1) {
        return Fail(where + ": ret takes at most one operand");
      }
      return Status::Ok();
    case Opcode::kCall:
    case Opcode::kThreadCreate: {
      if (instr.callee >= module.num_functions()) {
        return Fail(where + ": callee out of range");
      }
      const Function& callee = module.function(instr.callee);
      if (instr.operands.size() != callee.num_params()) {
        return Fail(StrFormat("%s: call to %s passes %zu args, expects %u", where.c_str(),
                              callee.name().c_str(), instr.operands.size(), callee.num_params()));
      }
      if (instr.op == Opcode::kThreadCreate && instr.dst == kNoReg) {
        return Fail(where + ": spawn must produce a thread id");
      }
      return Status::Ok();
    }
  }
  return Fail(where + ": unknown opcode");
}

}  // namespace

Status VerifyModule(const Module& module) {
  if (module.num_functions() == 0) {
    return Fail("module has no functions");
  }
  // Globals are laid out back to back from kGlobalsBase; past kHeapBase they
  // would alias heap blocks.
  uint64_t global_words = 0;
  for (GlobalId g = 0; g < module.num_globals(); ++g) {
    const GlobalVar& global = module.global(g);
    if (global.size_words > kMaxGlobalWords - global_words) {
      return Fail(StrFormat("global %s overruns the globals segment (%llu words)",
                            global.name.c_str(),
                            static_cast<unsigned long long>(kMaxGlobalWords)));
    }
    global_words += global.size_words;
  }
  for (FunctionId f = 0; f < module.num_functions(); ++f) {
    const Function& function = module.function(f);
    if (function.num_blocks() == 0) {
      return Fail(StrFormat("function %s has no blocks", function.name().c_str()));
    }
    for (BlockId b = 0; b < function.num_blocks(); ++b) {
      const BasicBlock& block = function.block(b);
      if (block.empty()) {
        return Fail(StrFormat("%s:^%u is empty", function.name().c_str(), b));
      }
      const auto& instrs = block.instructions();
      for (uint32_t i = 0; i < instrs.size(); ++i) {
        const Instruction& instr = instrs[i];
        const bool is_last = (i + 1 == instrs.size());
        if (instr.IsTerminator() != is_last) {
          return Fail(StrFormat("%s:^%u:%u: %s", function.name().c_str(), b, i,
                                is_last ? "block does not end with a terminator"
                                        : "terminator in the middle of a block"));
        }
        Status status = VerifyInstruction(module, function, block, i, instr);
        if (!status.ok()) {
          return status;
        }
        // Instruction ids must round-trip through the module location table.
        if (instr.id == kNoInstr || instr.id >= module.num_instructions()) {
          return Fail(StrFormat("%s:^%u:%u: bad instruction id", function.name().c_str(), b, i));
        }
        const InstrLocation& loc = module.location(instr.id);
        if (loc.function != f || loc.block != b || loc.index != i) {
          return Fail(StrFormat("%s:^%u:%u: instruction id maps elsewhere",
                                function.name().c_str(), b, i));
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace gist
