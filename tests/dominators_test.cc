// Dominator / postdominator tests, including randomized property checks
// against a brute-force reference computed by path enumeration.

#include <gtest/gtest.h>

#include <set>

#include "src/cfg/dominators.h"
#include "src/ir/builder.h"
#include "src/ir/parser.h"
#include "src/support/rng.h"
#include "src/support/str.h"

namespace gist {
namespace {

std::unique_ptr<Module> Diamond() {
  auto module = ParseModule(R"(
func main() {
entry:
  r0 = input 0
  br r0, ^left, ^right
left:
  jmp ^merge
right:
  jmp ^merge
merge:
  ret
}
)");
  EXPECT_TRUE(module.ok());
  return std::move(*module);
}

TEST(DominatorsTest, DiamondIdoms) {
  auto module = Diamond();
  const Function& f = module->function(0);
  Cfg cfg(f);
  DominatorTree dom = DominatorTree::ComputeDominators(cfg);
  const BlockId entry = f.FindBlock("entry");
  const BlockId left = f.FindBlock("left");
  const BlockId right = f.FindBlock("right");
  const BlockId merge = f.FindBlock("merge");
  EXPECT_EQ(dom.idom(entry), entry);
  EXPECT_EQ(dom.idom(left), entry);
  EXPECT_EQ(dom.idom(right), entry);
  EXPECT_EQ(dom.idom(merge), entry);  // neither branch side dominates merge
  EXPECT_TRUE(dom.Dominates(entry, merge));
  EXPECT_FALSE(dom.Dominates(left, merge));
  EXPECT_TRUE(dom.StrictlyDominates(entry, left));
  EXPECT_FALSE(dom.StrictlyDominates(entry, entry));
}

TEST(DominatorsTest, DiamondPostdoms) {
  auto module = Diamond();
  const Function& f = module->function(0);
  Cfg cfg(f);
  DominatorTree pdom = DominatorTree::ComputePostDominators(cfg);
  const BlockId entry = f.FindBlock("entry");
  const BlockId left = f.FindBlock("left");
  const BlockId merge = f.FindBlock("merge");
  // merge postdominates everything.
  EXPECT_TRUE(pdom.Dominates(merge, entry));
  EXPECT_TRUE(pdom.Dominates(merge, left));
  EXPECT_EQ(pdom.idom(entry), merge);
  // The virtual exit is merge's immediate postdominator.
  EXPECT_EQ(pdom.idom(merge), pdom.virtual_exit());
}

TEST(DominatorsTest, LoopHeaderDominatesBody) {
  auto module = ParseModule(R"(
func main() {
entry:
  jmp ^head
head:
  r0 = input 0
  br r0, ^body, ^exit
body:
  jmp ^head
exit:
  ret
}
)");
  ASSERT_TRUE(module.ok());
  const Function& f = (*module)->function(0);
  Cfg cfg(f);
  DominatorTree dom = DominatorTree::ComputeDominators(cfg);
  const BlockId head = f.FindBlock("head");
  const BlockId body = f.FindBlock("body");
  const BlockId exit = f.FindBlock("exit");
  EXPECT_TRUE(dom.Dominates(head, body));
  EXPECT_TRUE(dom.Dominates(head, exit));
  EXPECT_FALSE(dom.Dominates(body, exit));
}

// ---------------------------------------------------------------------------
// Property tests on random CFGs.
// ---------------------------------------------------------------------------

// Builds a random function with `num_blocks` blocks whose terminators are a
// random mix of br/jmp/ret (always at least one ret reachable shape-wise).
std::unique_ptr<Module> RandomCfgModule(uint64_t seed, uint32_t num_blocks) {
  Rng rng(seed);
  auto module = std::make_unique<Module>();
  IrBuilder b(*module);
  b.StartFunction("main", 0);
  std::vector<BlockId> blocks;
  blocks.push_back(0);
  for (uint32_t i = 1; i < num_blocks; ++i) {
    blocks.push_back(b.NewBlock(StrFormat("b%u", i)).id());
  }
  for (uint32_t i = 0; i < num_blocks; ++i) {
    b.SetInsertBlock(blocks[i]);
    const Reg cond = b.Const(static_cast<int64_t>(rng.NextBelow(2)));
    const uint64_t kind = i + 1 == num_blocks ? 2 : rng.NextBelow(3);
    if (kind == 0) {
      b.Br(cond, blocks[rng.NextBelow(num_blocks)], blocks[rng.NextBelow(num_blocks)]);
    } else if (kind == 1) {
      b.Jmp(blocks[rng.NextBelow(num_blocks)]);
    } else {
      b.Ret();
    }
  }
  return module;
}

// Reference dominance: a dominates b iff removing a from the graph makes b
// unreachable from the entry (for reachable a, b).
bool RefDominates(const Cfg& cfg, BlockId a, BlockId b) {
  if (a == b) {
    return true;
  }
  std::set<BlockId> visited;
  std::vector<BlockId> stack;
  if (0 != a) {
    stack.push_back(0);
    visited.insert(0);
  }
  while (!stack.empty()) {
    const BlockId node = stack.back();
    stack.pop_back();
    if (node == b) {
      return false;  // reached b while avoiding a
    }
    for (BlockId succ : cfg.succs(node)) {
      if (succ != a && visited.insert(succ).second) {
        stack.push_back(succ);
      }
    }
  }
  return true;
}

class RandomCfgSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCfgSweep, DominanceMatchesReachabilityDefinition) {
  auto module = RandomCfgModule(GetParam(), 8);
  Cfg cfg(module->function(0));
  DominatorTree dom = DominatorTree::ComputeDominators(cfg);
  for (BlockId a = 0; a < cfg.num_blocks(); ++a) {
    for (BlockId b = 0; b < cfg.num_blocks(); ++b) {
      if (!cfg.IsReachable(a) || !cfg.IsReachable(b)) {
        continue;
      }
      EXPECT_EQ(dom.Dominates(a, b), RefDominates(cfg, a, b))
          << "a=" << a << " b=" << b << " seed=" << GetParam();
    }
  }
}

TEST_P(RandomCfgSweep, EntryDominatesEveryReachableBlock) {
  auto module = RandomCfgModule(GetParam(), 10);
  Cfg cfg(module->function(0));
  DominatorTree dom = DominatorTree::ComputeDominators(cfg);
  for (BlockId b = 0; b < cfg.num_blocks(); ++b) {
    if (cfg.IsReachable(b)) {
      EXPECT_TRUE(dom.Dominates(0, b)) << "block " << b;
    }
  }
}

TEST_P(RandomCfgSweep, IdomIsStrictDominatorAndTreeIsAcyclic) {
  auto module = RandomCfgModule(GetParam(), 10);
  Cfg cfg(module->function(0));
  DominatorTree dom = DominatorTree::ComputeDominators(cfg);
  for (BlockId b = 0; b < cfg.num_blocks(); ++b) {
    if (!cfg.IsReachable(b) || b == 0) {
      continue;
    }
    const BlockId up = dom.idom(b);
    ASSERT_NE(up, kNoBlock);
    EXPECT_TRUE(dom.StrictlyDominates(up, b));
    // Walking idoms from any block must reach the entry without cycling.
    BlockId node = b;
    size_t hops = 0;
    while (node != 0) {
      node = dom.idom(node);
      ASSERT_LE(++hops, cfg.num_blocks());
    }
  }
}

TEST_P(RandomCfgSweep, PostdominatorsMirrorDominatorsOnReverseGraph) {
  auto module = RandomCfgModule(GetParam(), 8);
  Cfg cfg(module->function(0));
  DominatorTree pdom = DominatorTree::ComputePostDominators(cfg);
  // Definition check: a pdom b iff every path from b to any exit passes
  // through a. Verify via path search avoiding a.
  auto ref_postdominates = [&](BlockId a, BlockId b) {
    if (a == b) {
      return true;
    }
    std::set<BlockId> visited{b};
    std::vector<BlockId> stack{b};
    if (b == a) {
      return true;
    }
    while (!stack.empty()) {
      const BlockId node = stack.back();
      stack.pop_back();
      const auto& succs = cfg.succs(node);
      if (succs.empty()) {
        return false;  // reached an exit while avoiding a
      }
      for (BlockId succ : succs) {
        if (succ != a && visited.insert(succ).second) {
          stack.push_back(succ);
        }
      }
    }
    return true;
  };
  for (BlockId a = 0; a < cfg.num_blocks(); ++a) {
    for (BlockId b = 0; b < cfg.num_blocks(); ++b) {
      // Restrict to blocks that can reach an exit (pdom-reachable).
      if (pdom.idom(a) == kNoBlock || pdom.idom(b) == kNoBlock) {
        continue;
      }
      EXPECT_EQ(pdom.Dominates(a, b), ref_postdominates(a, b))
          << "a=" << a << " b=" << b << " seed=" << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCfgSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 47, 91, 133));

}  // namespace
}  // namespace gist
