// Randomized soundness property for the backward slicer: on random
// single-function programs (straight-line arithmetic, diamonds, bounded
// loops), the *dynamic* register-dependence chain of a chosen statement —
// computed by replaying the program and following actual last-writer edges —
// must be a subset of the static backward slice, for every input. Static
// slicing is path-insensitive, so it over-approximates; it must never miss a
// register dependence that really happened.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/analysis/slicer.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/support/rng.h"
#include "src/support/str.h"
#include "src/vm/vm.h"

namespace gist {
namespace {

struct GeneratedProgram {
  std::unique_ptr<Module> module;
  InstrId target = kNoInstr;  // the statement whose slice we check
};

// Random single-function program over `num_regs` registers. Every register
// is initialized first (some from inputs); then a mix of arithmetic,
// diamonds, and a bounded loop; the target is the final combining statement.
GeneratedProgram Generate(uint64_t seed) {
  Rng rng(seed);
  GeneratedProgram out;
  out.module = std::make_unique<Module>();
  IrBuilder b(*out.module);
  b.StartFunction("main", 0);

  constexpr uint32_t kNumRegs = 6;
  std::vector<Reg> regs;
  for (uint32_t i = 0; i < kNumRegs; ++i) {
    if (rng.NextChance(1, 2)) {
      regs.push_back(b.Input(static_cast<int64_t>(i)));
    } else {
      regs.push_back(b.Const(rng.NextInRange(1, 50)));
    }
  }
  auto random_reg = [&]() { return regs[rng.NextBelow(regs.size())]; };
  const BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kXor, BinOp::kMul};

  const int segments = 4 + static_cast<int>(rng.NextBelow(5));
  int label = 0;
  for (int s = 0; s < segments; ++s) {
    const uint64_t kind = rng.NextBelow(3);
    if (kind == 0) {
      // Arithmetic reassignment.
      b.AssignBinary(random_reg(), kOps[rng.NextBelow(4)], random_reg(), random_reg());
    } else if (kind == 1) {
      // Diamond: both sides reassign the same register differently.
      const Reg victim = random_reg();
      const Reg cond = random_reg();
      BasicBlock& then_block = b.NewBlock(StrFormat("t%d", label));
      BasicBlock& else_block = b.NewBlock(StrFormat("e%d", label));
      BasicBlock& merge = b.NewBlock(StrFormat("m%d", label));
      ++label;
      b.Br(cond, then_block.id(), else_block.id());
      b.SetInsertBlock(then_block);
      b.AssignBinary(victim, kOps[rng.NextBelow(4)], random_reg(), random_reg());
      b.Jmp(merge.id());
      b.SetInsertBlock(else_block);
      b.AssignConst(victim, rng.NextInRange(0, 9));
      b.Jmp(merge.id());
      b.SetInsertBlock(merge);
    } else {
      // Bounded loop accumulating into a register.
      const Reg acc = random_reg();
      const Reg step = random_reg();
      const Reg i = b.Const(0);
      const Reg bound = b.Const(static_cast<int64_t>(1 + rng.NextBelow(4)));
      const Reg one = b.Const(1);
      BasicBlock& head = b.NewBlock(StrFormat("lh%d", label));
      BasicBlock& body = b.NewBlock(StrFormat("lb%d", label));
      BasicBlock& done = b.NewBlock(StrFormat("ld%d", label));
      ++label;
      b.Jmp(head.id());
      b.SetInsertBlock(head);
      const Reg more = b.Lt(i, bound);
      b.Br(more, body.id(), done.id());
      b.SetInsertBlock(body);
      b.AssignBinary(acc, BinOp::kAdd, acc, step);
      b.AssignBinary(i, BinOp::kAdd, i, one);
      b.Jmp(head.id());
      b.SetInsertBlock(done);
    }
  }

  // The target: combine two random registers.
  const Reg result = b.Add(random_reg(), random_reg());
  out.target = b.last_instr_id();
  b.Print(result);
  b.Ret();
  return out;
}

// Replays the program and records, for the target statement's last execution,
// the transitive register-dependence closure (the dynamic slice restricted to
// register flow, which is exactly what Algorithm 1 promises to cover).
class DynamicChainTracker : public InstrumentationHook {
 public:
  DynamicChainTracker(const Module& module, InstrId target) : module_(module), target_(target) {}

  void BeforeInstr(ThreadId /*tid*/, InstrId instr, const std::vector<Word>& /*regs*/) override {
    const Instruction& instruction = module_.instr(instr);
    if (instr == target_) {
      // Snapshot the chain at this execution of the target.
      chain_.clear();
      CollectChain(instr);
    }
    if (instruction.HasDst()) {
      // Record the instruction and its operand provenance *before* updating
      // last_def (operands refer to prior defs).
      std::vector<InstrId> sources;
      for (Reg operand : instruction.operands) {
        auto it = last_def_.find(operand);
        if (it != last_def_.end()) {
          sources.push_back(it->second);
        }
      }
      provenance_[instr] = std::move(sources);
      last_def_[instruction.dst] = instr;
    }
  }

  const std::set<InstrId>& chain() const { return chain_; }

 private:
  void CollectChain(InstrId instr) {
    const Instruction& instruction = module_.instr(instr);
    for (Reg operand : instruction.operands) {
      auto it = last_def_.find(operand);
      if (it != last_def_.end()) {
        Visit(it->second);
      }
    }
  }

  void Visit(InstrId instr) {
    if (!chain_.insert(instr).second) {
      return;
    }
    auto it = provenance_.find(instr);
    if (it != provenance_.end()) {
      for (InstrId source : it->second) {
        Visit(source);
      }
    }
  }

  const Module& module_;
  InstrId target_;
  std::map<Reg, InstrId> last_def_;                 // register -> last writer
  std::map<InstrId, std::vector<InstrId>> provenance_;  // writer -> its sources
  std::set<InstrId> chain_;
};

class SlicerSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlicerSoundness, DynamicRegisterChainIsSubsetOfStaticSlice) {
  GeneratedProgram program = Generate(GetParam());
  ASSERT_TRUE(VerifyModule(*program.module).ok());

  Ticfg ticfg(*program.module);
  StaticSlice slice = ComputeBackwardSlice(ticfg, program.target);

  Rng inputs_rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 8; ++trial) {
    Workload workload;
    workload.schedule_seed = inputs_rng.NextU64();
    for (int i = 0; i < 6; ++i) {
      workload.inputs.push_back(inputs_rng.NextInRange(0, 40));
    }
    DynamicChainTracker tracker(*program.module, program.target);
    VmOptions options;
    options.hook = &tracker;
    Vm vm(*program.module, workload, options);
    RunResult result = vm.Run();
    ASSERT_TRUE(result.ok()) << result.failure.message;

    for (InstrId id : tracker.chain()) {
      EXPECT_TRUE(slice.Contains(id))
          << "dynamic dependence " << id << " ("
          << InstructionToString(program.module->instr(id))
          << ") missing from static slice (seed " << GetParam() << ", trial " << trial << ")";
    }
  }
}

TEST_P(SlicerSoundness, SliceIsDeterministic) {
  GeneratedProgram program = Generate(GetParam());
  Ticfg ticfg(*program.module);
  StaticSlice first = ComputeBackwardSlice(ticfg, program.target);
  StaticSlice second = ComputeBackwardSlice(ticfg, program.target);
  EXPECT_EQ(first.instrs, second.instrs);
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SlicerSoundness,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 21, 22, 23, 24, 25,
                                           101, 102, 103, 104, 105));

}  // namespace
}  // namespace gist
