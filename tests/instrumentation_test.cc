#include <gtest/gtest.h>

#include "src/core/instrumentation.h"
#include "src/ir/parser.h"
#include "src/vm/memory.h"

namespace gist {
namespace {

struct Program {
  std::unique_ptr<Module> module;
  std::unique_ptr<Ticfg> ticfg;
};

Program Load(const char* text) {
  auto module = ParseModule(text);
  EXPECT_TRUE(module.ok()) << module.error().message();
  Program program;
  program.module = std::move(*module);
  program.ticfg = std::make_unique<Ticfg>(*program.module);
  return program;
}

InstrId FindInstr(const Module& module, const std::string& function, Opcode op,
                  int occurrence = 0) {
  const FunctionId f = module.FindFunction(function);
  int seen = 0;
  for (BlockId b = 0; b < module.function(f).num_blocks(); ++b) {
    for (const Instruction& instr : module.function(f).block(b).instructions()) {
      if (instr.op == op && seen++ == occurrence) {
        return instr.id;
      }
    }
  }
  return kNoInstr;
}

TEST(InstrumentationTest, StartsAtPredecessorBlocks) {
  Program p = Load(R"(
func main() {
entry:
  r0 = input 0
  br r0, ^left, ^right
left:
  jmp ^merge
right:
  jmp ^merge
merge:
  r1 = const 0
  r2 = load r1
  ret
}
)");
  const InstrId load = FindInstr(*p.module, "main", Opcode::kLoad);
  InstrumentationPlan plan = PlanInstrumentation(*p.ticfg, {load});
  const Function& f = p.module->function(0);
  // Tracking the load in `merge` must start at both predecessors.
  EXPECT_TRUE(plan.pt_start_blocks.count({0, f.FindBlock("left")}));
  EXPECT_TRUE(plan.pt_start_blocks.count({0, f.FindBlock("right")}));
  EXPECT_FALSE(plan.pt_start_blocks.count({0, f.FindBlock("merge")}));
  // Tracing stops after the tracked statement.
  EXPECT_TRUE(plan.pt_stop_instrs.count(load));
}

TEST(InstrumentationTest, EntryBlockStatementStartsAtOwnBlock) {
  Program p = Load(R"(
func main() {
entry:
  r0 = const 0
  assert r0, "x"
  ret
}
)");
  const InstrId assert_instr = FindInstr(*p.module, "main", Opcode::kAssert);
  InstrumentationPlan plan = PlanInstrumentation(*p.ticfg, {assert_instr});
  // The entry block has no predecessors: tracing starts at the block itself.
  EXPECT_TRUE(plan.pt_start_blocks.count({0, 0}));
}

TEST(InstrumentationTest, StrictDominatorElidesStartAndStop) {
  Program p = Load(R"(
func main() {
entry:
  r0 = const 1
  r1 = const 2
  r2 = add r0, r1
  assert r2, "x"
  ret
}
)");
  // Track two statements in the same straight-line block: the earlier one
  // strictly dominates the later one, so no stop is planned between them.
  // (The block is also its own start block — the entry has no predecessors —
  // so the planner's no-stop-in-start-blocks rule elides the final stop too;
  // tracing then simply runs to thread end.)
  const InstrId add = FindInstr(*p.module, "main", Opcode::kBinOp);
  const InstrId assert_instr = FindInstr(*p.module, "main", Opcode::kAssert);
  InstrumentationPlan plan = PlanInstrumentation(*p.ticfg, {assert_instr, add});
  EXPECT_FALSE(plan.pt_stop_instrs.count(add)) << "add sdoms assert: no stop in between";
  EXPECT_TRUE(plan.pt_start_blocks.count({0, 0}));
}

TEST(InstrumentationTest, NoStopInsideStartBlocks) {
  Program p = Load(R"(
func main() {
entry:
  r0 = input 0
  r9 = const 7
  br r0, ^a, ^b
a:
  r1 = const 1
  jmp ^sink
b:
  r2 = const 2
  jmp ^sink
sink:
  r3 = const 0
  r4 = load r3
  ret
}
)");
  // Track a statement in `a` and the load in `sink`: block `a` is both the
  // home of a tracked statement and a predecessor (start block) of sink's.
  const InstrId const_in_a = FindInstr(*p.module, "main", Opcode::kConst, 1);
  const InstrId load = FindInstr(*p.module, "main", Opcode::kLoad);
  InstrumentationPlan plan = PlanInstrumentation(*p.ticfg, {load, const_in_a});
  const Function& f = p.module->function(0);
  ASSERT_TRUE(plan.pt_start_blocks.count({0, f.FindBlock("a")}));
  // A stop after the const would kill the tracing that the start in `a`
  // provides for the load; the planner must elide it.
  EXPECT_FALSE(plan.pt_stop_instrs.count(const_in_a));
}

TEST(InstrumentationTest, SharedAccessesGetWatchpoints) {
  Program p = Load(R"(
global cell 1 0
func main() {
entry:
  r0 = addrof cell
  r1 = load r0
  r2 = const 9
  store r0, r2
  assert r1, "x"
  ret
}
)");
  const InstrId load = FindInstr(*p.module, "main", Opcode::kLoad);
  const InstrId store = FindInstr(*p.module, "main", Opcode::kStore);
  const InstrId assert_instr = FindInstr(*p.module, "main", Opcode::kAssert);
  InstrumentationPlan plan = PlanInstrumentation(*p.ticfg, {assert_instr, load, store});
  EXPECT_TRUE(plan.watch_instrs.count(load));
  EXPECT_TRUE(plan.watch_instrs.count(store));
  EXPECT_FALSE(plan.watch_instrs.count(assert_instr));
}

TEST(InstrumentationTest, GlobalAddressesResolvedStatically) {
  Program p = Load(R"(
global a 4 0
global b 1 0
func main() {
entry:
  r0 = addrof b
  r1 = load r0
  r2 = addrof a + 2
  r3 = load r2
  assert r1, "x"
  ret
}
)");
  const InstrId load_b = FindInstr(*p.module, "main", Opcode::kLoad, 0);
  const InstrId load_a2 = FindInstr(*p.module, "main", Opcode::kLoad, 1);
  InstrumentationPlan plan = PlanInstrumentation(*p.ticfg, {load_b, load_a2});
  // Both addresses are compile-time constants; no dynamic arm sites needed.
  ASSERT_EQ(plan.static_watch_addrs.size(), 2u);
  EXPECT_TRUE(plan.arm_after.empty());
  const Addr a_addr = StaticGlobalAddr(*p.module, 0);
  const Addr b_addr = StaticGlobalAddr(*p.module, 1);
  EXPECT_TRUE(std::count(plan.static_watch_addrs.begin(), plan.static_watch_addrs.end(),
                         b_addr));
  EXPECT_TRUE(std::count(plan.static_watch_addrs.begin(), plan.static_watch_addrs.end(),
                         a_addr + 2));
}

TEST(InstrumentationTest, HeapAddressesArmDynamicallyAfterDef) {
  Program p = Load(R"(
func main() {
entry:
  r0 = const 2
  r1 = alloc r0
  r2 = load r1
  assert r2, "x"
  ret
}
)");
  const InstrId alloc = FindInstr(*p.module, "main", Opcode::kAlloc);
  const InstrId load = FindInstr(*p.module, "main", Opcode::kLoad);
  InstrumentationPlan plan = PlanInstrumentation(*p.ticfg, {load});
  EXPECT_TRUE(plan.static_watch_addrs.empty());
  // Armed right after the alloc that defines the address.
  ASSERT_EQ(plan.arm_after.count(alloc), 1u);
  EXPECT_EQ(plan.arm_after.at(alloc)[0].target_access, load);
}

TEST(InstrumentationTest, ParameterAddressesArmAtFunctionEntry) {
  Program p = Load(R"(
func reader(1) {
entry:
  r1 = load r0
  ret r1
}
func main() {
entry:
  r0 = const 2
  r1 = alloc r0
  r2 = call @reader(r1)
  ret
}
)");
  const InstrId load = FindInstr(*p.module, "reader", Opcode::kLoad);
  InstrumentationPlan plan = PlanInstrumentation(*p.ticfg, {load});
  // reader's address operand is its parameter: armed before the entry instr.
  const InstrId entry_instr =
      p.module->function(p.module->FindFunction("reader")).block(0).instructions()[0].id;
  ASSERT_EQ(plan.arm_before.count(entry_instr), 1u);
  EXPECT_EQ(plan.arm_before.at(entry_instr)[0].addr_reg, 0u);
}

TEST(InstrumentationTest, EmptyWindowYieldsEmptyPlan) {
  Program p = Load("func main() {\nentry:\n  ret\n}\n");
  InstrumentationPlan plan = PlanInstrumentation(*p.ticfg, {});
  EXPECT_TRUE(plan.pt_start_blocks.empty());
  EXPECT_TRUE(plan.pt_stop_instrs.empty());
  EXPECT_TRUE(plan.watch_instrs.empty());
  EXPECT_EQ(plan.site_count(), 0u);
}

}  // namespace
}  // namespace gist
