#include "src/core/statistics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/support/str.h"

namespace gist {

double FMeasure(double precision, double recall, double beta) {
  const double b2 = beta * beta;
  const double denominator = b2 * precision + recall;
  if (denominator <= 0.0) {
    return 0.0;
  }
  return (1.0 + b2) * precision * recall / denominator;
}

void PredictorStats::RecordRun(const std::vector<Predictor>& predictors, bool failed) {
  if (failed) {
    ++failing_runs_;
  } else {
    ++successful_runs_;
  }
  for (const Predictor& predictor : predictors) {
    Counts& counts = counts_[predictor];
    if (failed) {
      ++counts.failing;
    } else {
      ++counts.successful;
    }
  }
}

ScoredPredictor PredictorStats::Score(const Predictor& predictor, const Counts& counts) const {
  ScoredPredictor entry;
  entry.predictor = predictor;
  entry.failing_with = counts.failing;
  entry.successful_with = counts.successful;
  const uint32_t with = counts.failing + counts.successful;
  entry.precision = with == 0 ? 0.0 : static_cast<double>(counts.failing) / with;
  entry.recall = failing_runs_ == 0 ? 0.0 : static_cast<double>(counts.failing) / failing_runs_;
  entry.f_measure = FMeasure(entry.precision, entry.recall, beta_);
  return entry;
}

std::vector<ScoredPredictor> PredictorStats::Ranked() const {
  std::vector<ScoredPredictor> scored;
  scored.reserve(counts_.size());
  for (const auto& [predictor, counts] : counts_) {
    scored.push_back(Score(predictor, counts));
  }
  std::sort(scored.begin(), scored.end(), [](const ScoredPredictor& a, const ScoredPredictor& b) {
    if (a.f_measure != b.f_measure) {
      return a.f_measure > b.f_measure;
    }
    return a.predictor < b.predictor;
  });
  return scored;
}

PredictorStats::FamilyLeaders PredictorStats::Leaders() const {
  // counts_ iterates in ascending predictor order, so keeping the first
  // strictly highest F per family breaks ties exactly as Ranked() sorts.
  auto offer = [](std::optional<ScoredPredictor>& best, const ScoredPredictor& entry) {
    if (!best.has_value() || entry.f_measure > best->f_measure) {
      best = entry;
    }
  };
  FamilyLeaders leaders;
  for (const auto& [predictor, counts] : counts_) {
    const ScoredPredictor entry = Score(predictor, counts);
    if (predictor.kind == PredictorKind::kBranch) {
      offer(leaders.branch, entry);
    }
    if (predictor.kind == PredictorKind::kValue) {
      offer(leaders.value, entry);
    }
    if (predictor.kind == PredictorKind::kValueSign) {
      offer(leaders.value_range, entry);
    }
    if (IsConcurrencyPredictor(predictor.kind)) {
      offer(leaders.concurrency, entry);
    }
    if (IsAtomicityPattern(predictor.kind)) {
      offer(leaders.atomicity, entry);
    }
  }
  return leaders;
}

bool BehaviorStats::RecordRun(uint64_t run_id, const std::vector<Predictor>& predictors,
                              bool failed) {
  if (run_id != 0 && !seen_run_ids_.insert(run_id).second) {
    ++duplicates_ignored_;
    return false;
  }
  stats_.RecordRun(predictors, failed);
  ++runs_recorded_;
  return true;
}

void BehaviorStats::Reset() {
  stats_ = PredictorStats(stats_.beta());
  seen_run_ids_.clear();
  runs_recorded_ = 0;
  duplicates_ignored_ = 0;
}

std::string BehaviorStats::Fingerprint() const {
  // "%.17g" round-trips every double exactly, so equal fingerprints mean
  // equal scores to the last bit, not just equal-looking ones.
  std::string out = StrFormat("runs failing=%u successful=%u\n", stats_.failing_runs(),
                              stats_.successful_runs());
  for (const ScoredPredictor& entry : stats_.Ranked()) {
    const Predictor& p = entry.predictor;
    out += StrFormat("p kind=%u a=%u b=%u c=%u value=%" PRId64
                     " taken=%u failing=%u successful=%u precision=%.17g recall=%.17g f=%.17g\n",
                     static_cast<unsigned>(p.kind), p.a, p.b, p.c,
                     static_cast<int64_t>(p.value), p.taken ? 1u : 0u, entry.failing_with,
                     entry.successful_with, entry.precision, entry.recall, entry.f_measure);
  }
  return out;
}

std::optional<ScoredPredictor> PredictorStats::BestSuccessOrderPair() const {
  std::optional<ScoredPredictor> best;
  double best_f = -1.0;
  for (const auto& [predictor, counts] : counts_) {
    const bool is_pair = predictor.kind == PredictorKind::kWR ||
                         predictor.kind == PredictorKind::kRW ||
                         predictor.kind == PredictorKind::kWW;
    if (!is_pair) {
      continue;
    }
    const uint32_t with = counts.failing + counts.successful;
    const double precision = with == 0 ? 0.0 : static_cast<double>(counts.successful) / with;
    const double recall = successful_runs_ == 0
                              ? 0.0
                              : static_cast<double>(counts.successful) / successful_runs_;
    const double f = FMeasure(precision, recall, beta_);
    if (f > best_f) {
      best_f = f;
      ScoredPredictor scored;
      scored.predictor = predictor;
      scored.failing_with = counts.failing;
      scored.successful_with = counts.successful;
      scored.precision = precision;
      scored.recall = recall;
      scored.f_measure = f;
      best = scored;
    }
  }
  return best;
}

}  // namespace gist
