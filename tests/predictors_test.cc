#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/core/predictors.h"
#include "src/ir/builder.h"

namespace gist {
namespace {

WatchEvent Access(uint64_t seq, ThreadId tid, InstrId instr, Addr addr, Word value,
                  bool is_write) {
  return WatchEvent{seq, tid, instr, addr, value, is_write};
}

bool HasKind(const std::vector<Predictor>& predictors, PredictorKind kind) {
  return std::any_of(predictors.begin(), predictors.end(),
                     [&](const Predictor& p) { return p.kind == kind; });
}

const Predictor* Find(const std::vector<Predictor>& predictors, PredictorKind kind) {
  for (const Predictor& p : predictors) {
    if (p.kind == kind) {
      return &p;
    }
  }
  return nullptr;
}

TEST(PredictorsTest, ValuePredictorsFromWatchLog) {
  std::vector<WatchEvent> log = {Access(0, 1, 10, 0x100, 42, false)};
  auto predictors = ExtractPredictors({}, log);
  // One exact-value predictor plus its sign-bucket range predicate.
  ASSERT_EQ(predictors.size(), 2u);
  const Predictor* exact = Find(predictors, PredictorKind::kValue);
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->a, 10u);
  EXPECT_EQ(exact->value, 42);
  const Predictor* sign = Find(predictors, PredictorKind::kValueSign);
  ASSERT_NE(sign, nullptr);
  EXPECT_EQ(sign->value, 1);  // positive bucket
}

TEST(PredictorsTest, SignBucketsCollapseDistinctValues) {
  // Two different negative values produce distinct exact predictors but one
  // shared range predicate — the generalization the paper's §6 asks for.
  std::vector<WatchEvent> log = {Access(0, 1, 10, 0x100, -5, false),
                                 Access(1, 1, 10, 0x100, -9, false)};
  auto predictors = ExtractPredictors({}, log);
  int exact = 0;
  int sign = 0;
  for (const Predictor& p : predictors) {
    exact += p.kind == PredictorKind::kValue;
    sign += p.kind == PredictorKind::kValueSign;
  }
  EXPECT_EQ(exact, 2);
  EXPECT_EQ(sign, 1);
}

TEST(PredictorsTest, BranchPredictorsFromDecodedTraces) {
  DecodedCoreTrace trace;
  trace.branches = {PtBranch{1, 7, true}, PtBranch{1, 7, true}, PtBranch{2, 7, false}};
  auto predictors = ExtractPredictors({PtBranchKeys(trace)}, {});
  // Deduplicated: (7, taken) and (7, not-taken).
  ASSERT_EQ(predictors.size(), 2u);
  EXPECT_TRUE(HasKind(predictors, PredictorKind::kBranch));
}

// Branch keys from several streams merge into one sorted prefix, and the
// whole vector equals the ordered set of every predictor, as if each branch
// bit and each watch-derived predictor were inserted into one std::set.
TEST(PredictorsTest, MergedStreamsMatchOrderedSetOfAllPredictors) {
  DecodedCoreTrace core0;
  core0.branches = {PtBranch{1, 9, false}, PtBranch{1, 3, true}, PtBranch{1, 9, false}};
  DecodedCoreTrace core1;
  core1.branches = {PtBranch{2, 3, false}, PtBranch{2, 9, false}, PtBranch{2, 12, true}};
  std::vector<WatchEvent> log = {
      Access(0, 1, 4, 100, 7, true),
      Access(1, 2, 5, 100, 7, false),
      Access(2, 1, 6, 100, -2, false),
  };
  std::set<Predictor> oracle;
  for (const DecodedCoreTrace* core : {&core0, &core1}) {
    for (const PtBranch& branch : core->branches) {
      Predictor predictor;
      predictor.a = branch.instr;
      predictor.taken = branch.taken;
      oracle.insert(predictor);
    }
  }
  for (const Predictor& predictor : ExtractPredictors({}, log)) {
    oracle.insert(predictor);
  }
  const std::vector<Predictor> got =
      ExtractPredictors({PtBranchKeys(core0), PtBranchKeys(core1)}, log);
  EXPECT_EQ(got, std::vector<Predictor>(oracle.begin(), oracle.end()));
  EXPECT_EQ(std::count_if(got.begin(), got.end(),
                          [](const Predictor& p) { return p.kind == PredictorKind::kBranch; }),
            4);
}

TEST(PredictorsTest, WrPairPattern) {
  std::vector<WatchEvent> log = {
      Access(0, 1, 10, 0x100, 5, true),   // T1 writes
      Access(1, 2, 11, 0x100, 5, false),  // T2 reads
  };
  auto predictors = ExtractPredictors({}, log);
  const Predictor* wr = Find(predictors, PredictorKind::kWR);
  ASSERT_NE(wr, nullptr);
  EXPECT_EQ(wr->a, 10u);
  EXPECT_EQ(wr->b, 11u);
}

TEST(PredictorsTest, RwAndWwPairs) {
  std::vector<WatchEvent> rw = {Access(0, 1, 10, 0x1, 0, false), Access(1, 2, 11, 0x1, 0, true)};
  EXPECT_TRUE(HasKind(ExtractPredictors({}, rw), PredictorKind::kRW));
  std::vector<WatchEvent> ww = {Access(0, 1, 10, 0x1, 0, true), Access(1, 2, 11, 0x1, 0, true)};
  EXPECT_TRUE(HasKind(ExtractPredictors({}, ww), PredictorKind::kWW));
}

TEST(PredictorsTest, ReadReadPairIsBenign) {
  std::vector<WatchEvent> log = {Access(0, 1, 10, 0x1, 0, false),
                                 Access(1, 2, 11, 0x1, 0, false)};
  auto predictors = ExtractPredictors({}, log);
  for (const Predictor& p : predictors) {
    EXPECT_FALSE(IsConcurrencyPredictor(p.kind));
  }
}

TEST(PredictorsTest, SameThreadPairIsNotAPattern) {
  std::vector<WatchEvent> log = {Access(0, 1, 10, 0x1, 0, true), Access(1, 1, 11, 0x1, 0, false)};
  auto predictors = ExtractPredictors({}, log);
  for (const Predictor& p : predictors) {
    EXPECT_FALSE(IsConcurrencyPredictor(p.kind));
  }
}

TEST(PredictorsTest, AtomicityViolationTriples) {
  // The paper's Fig. 5 patterns: T1 x, T2 y, T1 z on one address.
  struct Case {
    bool w1, w2, w3;
    PredictorKind kind;
  };
  const Case cases[] = {
      {false, true, false, PredictorKind::kRWR},
      {true, true, false, PredictorKind::kWWR},
      {false, true, true, PredictorKind::kRWW},
      {true, false, true, PredictorKind::kWRW},
  };
  for (const Case& c : cases) {
    std::vector<WatchEvent> log = {
        Access(0, 1, 10, 0x1, 0, c.w1),
        Access(1, 2, 11, 0x1, 0, c.w2),
        Access(2, 1, 12, 0x1, 0, c.w3),
    };
    auto predictors = ExtractPredictors({}, log);
    const Predictor* p = Find(predictors, c.kind);
    ASSERT_NE(p, nullptr) << PredictorKindName(c.kind);
    EXPECT_EQ(p->a, 10u);
    EXPECT_EQ(p->b, 11u);
    EXPECT_EQ(p->c, 12u);
  }
}

TEST(PredictorsTest, TripleRequiresSameOuterThread) {
  // T1, T2, T3: no Fig. 5 pattern (the outer accesses are different threads).
  std::vector<WatchEvent> log = {
      Access(0, 1, 10, 0x1, 0, false),
      Access(1, 2, 11, 0x1, 0, true),
      Access(2, 3, 12, 0x1, 0, false),
  };
  auto predictors = ExtractPredictors({}, log);
  EXPECT_FALSE(HasKind(predictors, PredictorKind::kRWR));
}

TEST(PredictorsTest, PatternsAreAddressLocal) {
  // A write and a read on different addresses never pair up.
  std::vector<WatchEvent> log = {Access(0, 1, 10, 0x1, 0, true),
                                 Access(1, 2, 11, 0x2, 0, false)};
  auto predictors = ExtractPredictors({}, log);
  for (const Predictor& p : predictors) {
    EXPECT_FALSE(IsConcurrencyPredictor(p.kind));
  }
}

TEST(PredictorsTest, NonAdjacentAccessesDoNotPair) {
  // T1 W, T1 R, T2 R: the W and T2's R are separated by T1's read, so the
  // adjacent-pair scan does not produce a WR pattern for (10, 12).
  std::vector<WatchEvent> log = {
      Access(0, 1, 10, 0x1, 0, true),
      Access(1, 1, 11, 0x1, 0, false),
      Access(2, 2, 12, 0x1, 0, false),
  };
  auto predictors = ExtractPredictors({}, log);
  const Predictor* wr = Find(predictors, PredictorKind::kWR);
  EXPECT_EQ(wr, nullptr);
}

TEST(PredictorsTest, DeduplicatedWithinRun) {
  std::vector<WatchEvent> log;
  for (int i = 0; i < 10; ++i) {
    log.push_back(Access(static_cast<uint64_t>(2 * i), 1, 10, 0x1, 7, true));
    log.push_back(Access(static_cast<uint64_t>(2 * i + 1), 2, 11, 0x1, 7, false));
  }
  auto predictors = ExtractPredictors({}, log);
  // One WR pattern + value predictors for instr 10 and 11 + one RW pattern
  // (the read->write seam between iterations).
  int wr = 0;
  for (const Predictor& p : predictors) {
    if (p.kind == PredictorKind::kWR) {
      ++wr;
    }
  }
  EXPECT_EQ(wr, 1);
}

TEST(PredictorsTest, ToStringMentionsKindAndStatements) {
  Predictor p;
  p.kind = PredictorKind::kRWR;
  p.a = 1;
  p.b = 2;
  p.c = 3;
  Module module;
  IrBuilder b(module);
  b.StartFunction("main", 0);
  b.Src(5, "x = y;");
  const Reg r0 = b.Const(0);
  const Reg r1 = b.Const(1);
  const Reg r2 = b.Const(2);
  const Reg r3 = b.Const(3);
  (void)r0;
  (void)r1;
  (void)r2;
  (void)r3;
  b.Ret();
  const std::string text = PredictorToString(p, module);
  EXPECT_NE(text.find("RWR"), std::string::npos);
  EXPECT_NE(text.find("x = y;"), std::string::npos);
}

}  // namespace
}  // namespace gist
