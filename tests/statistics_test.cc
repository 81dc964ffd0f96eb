#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/core/statistics.h"

namespace gist {
namespace {

Predictor BranchPredictor(InstrId instr, bool taken) {
  Predictor predictor;
  predictor.kind = PredictorKind::kBranch;
  predictor.a = instr;
  predictor.taken = taken;
  return predictor;
}

Predictor ValuePredictor(InstrId instr, Word value) {
  Predictor predictor;
  predictor.kind = PredictorKind::kValue;
  predictor.a = instr;
  predictor.value = value;
  return predictor;
}

Predictor PatternPredictor(PredictorKind kind, InstrId a, InstrId b, InstrId c = kNoInstr) {
  Predictor predictor;
  predictor.kind = kind;
  predictor.a = a;
  predictor.b = b;
  predictor.c = c;
  return predictor;
}

TEST(FMeasureTest, PerfectPredictor) {
  EXPECT_DOUBLE_EQ(FMeasure(1.0, 1.0, 0.5), 1.0);
}

TEST(FMeasureTest, ZeroWhenNoRecall) {
  EXPECT_DOUBLE_EQ(FMeasure(1.0, 0.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(FMeasure(0.0, 0.0, 0.5), 0.0);
}

TEST(FMeasureTest, BetaHalfFavoursPrecision) {
  // Same P/R values swapped: the precision-heavy one must score higher.
  const double precise = FMeasure(0.9, 0.5, 0.5);
  const double sensitive = FMeasure(0.5, 0.9, 0.5);
  EXPECT_GT(precise, sensitive);
}

TEST(FMeasureTest, MonotonicInPrecision) {
  double last = 0.0;
  for (double p = 0.1; p <= 1.0; p += 0.1) {
    const double f = FMeasure(p, 0.7, 0.5);
    EXPECT_GT(f, last);
    last = f;
  }
}

TEST(PredictorStatsTest, PerfectDiscriminatorRanksFirst) {
  PredictorStats stats;
  const Predictor good = PatternPredictor(PredictorKind::kRWR, 1, 2, 3);
  const Predictor noisy = BranchPredictor(7, true);
  // good appears in every failing run only; noisy appears everywhere.
  for (int i = 0; i < 5; ++i) {
    stats.RecordRun({good, noisy}, /*failed=*/true);
    stats.RecordRun({noisy}, /*failed=*/false);
  }
  auto ranked = stats.Ranked();
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].predictor, good);
  EXPECT_DOUBLE_EQ(ranked[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(ranked[0].recall, 1.0);
  EXPECT_DOUBLE_EQ(ranked[0].f_measure, 1.0);
  EXPECT_LT(ranked[1].f_measure, 1.0);
}

TEST(PredictorStatsTest, PrecisionAndRecallDefinitions) {
  PredictorStats stats;
  const Predictor predictor = ValuePredictor(4, 0);
  stats.RecordRun({predictor}, true);   // failing, present
  stats.RecordRun({predictor}, false);  // successful, present
  stats.RecordRun({}, true);            // failing, absent
  auto ranked = stats.Ranked();
  ASSERT_EQ(ranked.size(), 1u);
  // P = 1 failing-with / 2 runs-with; R = 1 failing-with / 2 failing runs.
  EXPECT_DOUBLE_EQ(ranked[0].precision, 0.5);
  EXPECT_DOUBLE_EQ(ranked[0].recall, 0.5);
}

TEST(PredictorStatsTest, BestPerFamily) {
  PredictorStats stats;
  const Predictor branch = BranchPredictor(1, true);
  const Predictor value = ValuePredictor(2, 0);
  const Predictor pattern = PatternPredictor(PredictorKind::kWW, 3, 4);
  stats.RecordRun({branch, value, pattern}, true);
  stats.RecordRun({branch}, false);
  const PredictorStats::FamilyLeaders leaders = stats.Leaders();
  ASSERT_TRUE(leaders.branch.has_value());
  ASSERT_TRUE(leaders.value.has_value());
  ASSERT_TRUE(leaders.concurrency.has_value());
  EXPECT_EQ(leaders.branch->predictor, branch);
  EXPECT_EQ(leaders.value->predictor, value);
  EXPECT_EQ(leaders.concurrency->predictor, pattern);
  // The branch also appears in a successful run: lower precision.
  EXPECT_LT(leaders.branch->f_measure, leaders.value->f_measure);
}

TEST(PredictorStatsTest, NoFamilyObserved) {
  PredictorStats stats;
  stats.RecordRun({BranchPredictor(1, false)}, true);
  const PredictorStats::FamilyLeaders leaders = stats.Leaders();
  EXPECT_TRUE(leaders.branch.has_value());
  EXPECT_FALSE(leaders.value.has_value());
  EXPECT_FALSE(leaders.concurrency.has_value());
}

// The first entry of each family in Ranked() order: the per-family scan the
// one-pass Leaders() replaces.
std::optional<ScoredPredictor> FirstRanked(const PredictorStats& stats,
                                           bool (*matches)(PredictorKind)) {
  for (const ScoredPredictor& entry : stats.Ranked()) {
    if (matches(entry.predictor.kind)) {
      return entry;
    }
  }
  return std::nullopt;
}

void ExpectSameScored(const std::optional<ScoredPredictor>& got,
                      const std::optional<ScoredPredictor>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (want.has_value()) {
    EXPECT_EQ(got->predictor, want->predictor);
    EXPECT_EQ(got->failing_with, want->failing_with);
    EXPECT_EQ(got->successful_with, want->successful_with);
    EXPECT_EQ(got->f_measure, want->f_measure);
  }
}

TEST(PredictorStatsTest, LeadersMatchRankedScanIncludingTies) {
  // Several predictors per family, many with equal F: the leader must be the
  // lowest predictor key among the highest F, as the sorted ranking puts it.
  PredictorStats stats;
  const std::vector<Predictor> all = {
      BranchPredictor(9, true),  BranchPredictor(3, false), BranchPredictor(3, true),
      ValuePredictor(7, 1),      ValuePredictor(2, 5),      ValuePredictor(2, -4),
      PatternPredictor(PredictorKind::kWR, 8, 1),
      PatternPredictor(PredictorKind::kWW, 4, 6),
      PatternPredictor(PredictorKind::kRWR, 5, 2, 5),
      PatternPredictor(PredictorKind::kRWR, 1, 2, 1),
      PatternPredictor(PredictorKind::kWRW, 1, 9, 1),
  };
  Predictor sign;
  sign.kind = PredictorKind::kValueSign;
  sign.a = 4;
  sign.value = -1;
  for (int round = 0; round < 3; ++round) {
    stats.RecordRun(all, true);
    stats.RecordRun({all[0], all[2], all[3], all[6], sign}, round != 1);
    stats.RecordRun({all[1], all[4], all[9]}, false);
    const PredictorStats::FamilyLeaders leaders = stats.Leaders();
    ExpectSameScored(leaders.branch, FirstRanked(stats, [](PredictorKind kind) {
                       return kind == PredictorKind::kBranch;
                     }));
    ExpectSameScored(leaders.value, FirstRanked(stats, [](PredictorKind kind) {
                       return kind == PredictorKind::kValue;
                     }));
    ExpectSameScored(leaders.value_range, FirstRanked(stats, [](PredictorKind kind) {
                       return kind == PredictorKind::kValueSign;
                     }));
    ExpectSameScored(leaders.concurrency, FirstRanked(stats, &IsConcurrencyPredictor));
    ExpectSameScored(leaders.atomicity, FirstRanked(stats, &IsAtomicityPattern));
  }
  // Ties did occur: B(9, taken) and B(3, taken) share every run, so they
  // share the leader's F and the lower key must win.
  const std::vector<ScoredPredictor> ranked = stats.Ranked();
  EXPECT_EQ(std::count_if(ranked.begin(), ranked.end(),
                          [&](const ScoredPredictor& entry) {
                            return entry.predictor.kind == PredictorKind::kBranch &&
                                   entry.f_measure == stats.Leaders().branch->f_measure;
                          }),
            2);
  EXPECT_EQ(stats.Leaders().branch->predictor, all[2]);
}

TEST(PredictorStatsTest, RankingDeterministicOnTies) {
  PredictorStats stats;
  const Predictor a = ValuePredictor(1, 10);
  const Predictor b = ValuePredictor(2, 20);
  stats.RecordRun({a, b}, true);
  auto first = stats.Ranked();
  auto second = stats.Ranked();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].predictor, second[0].predictor);
  EXPECT_EQ(first[1].predictor, second[1].predictor);
}

TEST(PredictorStatsTest, RunCountsTracked) {
  PredictorStats stats;
  stats.RecordRun({}, true);
  stats.RecordRun({}, false);
  stats.RecordRun({}, false);
  EXPECT_EQ(stats.failing_runs(), 1u);
  EXPECT_EQ(stats.successful_runs(), 2u);
}


// --- BehaviorStats: streaming aggregation with run-identity dedup ----------

TEST(BehaviorStatsTest, StreamsIntoPredictorStats) {
  BehaviorStats behavior;
  const Predictor predictor = ValuePredictor(4, 0);
  EXPECT_TRUE(behavior.RecordRun(1, {predictor}, true));
  EXPECT_TRUE(behavior.RecordRun(2, {predictor}, false));
  EXPECT_EQ(behavior.runs_recorded(), 2u);
  EXPECT_EQ(behavior.stats().failing_runs(), 1u);
  EXPECT_EQ(behavior.stats().successful_runs(), 1u);
}

// The fault-injection retry regression (DESIGN.md paragraph 14): a run killed
// mid-flight is retried and its upload can reach the server twice (wire
// reordering re-delivers the survivor). The statistics must count each run
// identity once, never double-counting its predictors.
TEST(BehaviorStatsTest, DuplicateUploadCountsOnce) {
  BehaviorStats behavior;
  const Predictor predictor = ValuePredictor(7, 1);
  EXPECT_TRUE(behavior.RecordRun(42, {predictor}, true));
  EXPECT_FALSE(behavior.RecordRun(42, {predictor}, true));  // duplicate upload
  EXPECT_FALSE(behavior.RecordRun(42, {predictor}, false));
  EXPECT_EQ(behavior.runs_recorded(), 1u);
  EXPECT_EQ(behavior.duplicates_ignored(), 2u);
  EXPECT_EQ(behavior.stats().failing_runs(), 1u);
  EXPECT_EQ(behavior.stats().successful_runs(), 0u);
  ASSERT_EQ(behavior.stats().Ranked().size(), 1u);
  EXPECT_EQ(behavior.stats().Ranked()[0].failing_with, 1u);
}

// A retried run re-executes under a NEW run id, so its survivor counts as a
// fresh run even though the workload (and predictor set) repeats.
TEST(BehaviorStatsTest, RetryUnderNewIdentityCounts) {
  BehaviorStats behavior;
  const Predictor predictor = ValuePredictor(7, 1);
  EXPECT_TRUE(behavior.RecordRun(42, {predictor}, true));
  EXPECT_TRUE(behavior.RecordRun(43, {predictor}, true));  // the retry
  EXPECT_EQ(behavior.runs_recorded(), 2u);
  EXPECT_EQ(behavior.duplicates_ignored(), 0u);
  EXPECT_EQ(behavior.stats().failing_runs(), 2u);
}

// run_id 0 means "no identity" (legacy callers): every upload counts.
TEST(BehaviorStatsTest, ZeroIdentityAlwaysCounts) {
  BehaviorStats behavior;
  EXPECT_TRUE(behavior.RecordRun(0, {}, true));
  EXPECT_TRUE(behavior.RecordRun(0, {}, true));
  EXPECT_TRUE(behavior.RecordRun(0, {}, false));
  EXPECT_EQ(behavior.runs_recorded(), 3u);
  EXPECT_EQ(behavior.duplicates_ignored(), 0u);
}

// Incremental streaming and a batch replay of the same (run, predictors,
// outcome) sequence must fingerprint byte-identically — the invariant the
// sketch builder's shadow mode enforces end to end.
TEST(BehaviorStatsTest, FingerprintMatchesBatchRecompute) {
  const Predictor branch = BranchPredictor(1, true);
  const Predictor value = ValuePredictor(2, 0);
  const Predictor pattern = PatternPredictor(PredictorKind::kWW, 3, 4);
  BehaviorStats incremental;
  incremental.RecordRun(1, {branch, value}, true);
  incremental.RecordRun(2, {branch}, false);
  incremental.RecordRun(2, {branch}, false);  // duplicate: must not skew
  incremental.RecordRun(3, {pattern, value}, true);
  incremental.RecordRun(4, {}, false);

  BehaviorStats batch;
  batch.RecordRun(1, {branch, value}, true);
  batch.RecordRun(2, {branch}, false);
  batch.RecordRun(3, {pattern, value}, true);
  batch.RecordRun(4, {}, false);
  EXPECT_EQ(incremental.Fingerprint(), batch.Fingerprint());
  EXPECT_FALSE(incremental.Fingerprint().empty());
}

TEST(BehaviorStatsTest, FingerprintSensitiveToOutcome) {
  const Predictor predictor = ValuePredictor(2, 0);
  BehaviorStats a;
  a.RecordRun(1, {predictor}, true);
  BehaviorStats b;
  b.RecordRun(1, {predictor}, false);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(BehaviorStatsTest, ResetClearsIdentityAndTallies) {
  BehaviorStats behavior;
  behavior.RecordRun(5, {ValuePredictor(1, 1)}, true);
  behavior.Reset();
  EXPECT_EQ(behavior.runs_recorded(), 0u);
  EXPECT_EQ(behavior.stats().failing_runs(), 0u);
  EXPECT_TRUE(behavior.stats().Ranked().empty());
  // Identity space resets too: the same run id records again.
  EXPECT_TRUE(behavior.RecordRun(5, {ValuePredictor(1, 1)}, true));
}

}  // namespace
}  // namespace gist
