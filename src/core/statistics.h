// Statistical ranking of failure predictors (paper §3.3).
//
// For each predictor observed across monitored runs, Gist computes
//   precision P = (failing runs containing it) / (runs containing it)
//   recall    R = (failing runs containing it) / (all failing runs)
// and ranks predictors by the F-measure
//   F_β = (1 + β²) · P·R / (β²·P + R)
// with β = 0.5, deliberately favouring precision: a wrong "root cause" is
// worse for the developer than a missed one.

#ifndef GIST_SRC_CORE_STATISTICS_H_
#define GIST_SRC_CORE_STATISTICS_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/predictors.h"

namespace gist {

inline constexpr double kDefaultBeta = 0.5;

double FMeasure(double precision, double recall, double beta);

struct ScoredPredictor {
  Predictor predictor;
  uint32_t failing_with = 0;     // failing runs containing the predictor
  uint32_t successful_with = 0;  // successful runs containing it
  double precision = 0.0;
  double recall = 0.0;
  double f_measure = 0.0;
};

class PredictorStats {
 public:
  explicit PredictorStats(double beta = kDefaultBeta) : beta_(beta) {}

  // Records one run's deduplicated predictor set and outcome.
  void RecordRun(const std::vector<Predictor>& predictors, bool failed);

  // Records runs that produced no predictor set at all — killed clients,
  // dropped or timed-out uploads, quarantined traces (DESIGN.md §8). Lost
  // runs deliberately do NOT enter the P/R denominators: precision and
  // recall are already defined over the runs actually observed, so the
  // ranking self-renormalizes over the surviving run set. The counter exists
  // so callers can report attrition and enforce a survivor quorum.
  void RecordLostRuns(uint64_t count) { lost_runs_ += count; }

  double beta() const { return beta_; }
  uint32_t failing_runs() const { return failing_runs_; }
  uint32_t successful_runs() const { return successful_runs_; }
  uint64_t lost_runs() const { return lost_runs_; }
  // Distinct predictors observed — each is scored once per Leaders() call, so
  // this is also the per-sketch predictor-evaluation count (DESIGN.md §9).
  size_t predictor_count() const { return counts_.size(); }

  // All predictors scored and sorted by decreasing F-measure (ties broken
  // deterministically by predictor key).
  std::vector<ScoredPredictor> Ranked() const;

  // Highest-F predictor of each family, absent where none was observed: the
  // sketch shows the best branch, value, and concurrency predictor (Fig.
  // 1/7/8's dotted boxes).
  struct FamilyLeaders {
    std::optional<ScoredPredictor> branch;
    std::optional<ScoredPredictor> value;
    std::optional<ScoredPredictor> value_range;
    std::optional<ScoredPredictor> concurrency;
    // Highest-F Fig. 5 atomicity-violation pattern (drives fix synthesis).
    std::optional<ScoredPredictor> atomicity;
  };
  // All five leaders from one scoring pass; each is the predictor a scan of
  // Ranked() would meet first in its family (ties: lowest predictor key).
  FamilyLeaders Leaders() const;

  // Order-violation fixes need the *correct* order: the pair pattern (WR/RW/
  // WW) that correlates best with SUCCESS — its (a, b) order is the one a fix
  // must enforce. Scored with the same F-measure computed against successful
  // runs instead of failing ones.
  std::optional<ScoredPredictor> BestSuccessOrderPair() const;

 private:
  struct Counts {
    uint32_t failing = 0;
    uint32_t successful = 0;
  };

  ScoredPredictor Score(const Predictor& predictor, const Counts& counts) const;

  double beta_;
  uint32_t failing_runs_ = 0;
  uint32_t successful_runs_ = 0;
  uint64_t lost_runs_ = 0;
  std::map<Predictor, Counts> counts_;
};

// Streaming behavior statistics (DESIGN.md §14): one PredictorStats kept
// up to date as each MonitoredRun lands on the coordinator, keyed on run
// identity. The ingest path records every accepted run's predictor set once
// — O(run events) per run — so sketch builds rank from the running
// aggregation instead of re-walking every stored trace per recurrence.
//
// Run identity is RunTrace::run_id: a second upload carrying the same
// nonzero id (a retried or duplicated ship of the same production run) is
// ignored, so attrition retries can never double-count a survivor.
// run_id 0 means "no identity" and always counts — standalone callers that
// never assign ids keep the historical semantics.
//
// Determinism contract: the aggregate is a pure fold of (run_id, predictor
// set, outcome) records and is independent of arrival order, so the
// coordinator's run-index-order updates produce byte-identical results to a
// batch recompute over the traces shadow mode retains — Fingerprint() is
// the shadow mode's byte-equality witness.
class BehaviorStats {
 public:
  explicit BehaviorStats(double beta = kDefaultBeta) : stats_(beta) {}

  // Records one run's deduplicated predictor set and outcome. Returns false
  // — and changes nothing — when `run_id` is nonzero and already recorded.
  bool RecordRun(uint64_t run_id, const std::vector<Predictor>& predictors, bool failed);

  // Forwarded attrition accounting (see PredictorStats::RecordLostRuns).
  void RecordLostRuns(uint64_t count) { stats_.RecordLostRuns(count); }

  // Drops every record (new failure target, same server).
  void Reset();

  // The running aggregation; same ranking surface sketch construction uses.
  const PredictorStats& stats() const { return stats_; }

  uint64_t runs_recorded() const { return runs_recorded_; }
  // Uploads ignored because their run identity was already counted.
  uint64_t duplicates_ignored() const { return duplicates_ignored_; }

  // Canonical serialization of the run tallies and every ranked predictor's
  // counts and scores. Two BehaviorStats fed the same run set — in any order,
  // incremental or batch — fingerprint identically, byte for byte. Lost-run
  // counts are excluded: they are coordinator-side accounting a batch replay
  // of stored traces cannot see.
  std::string Fingerprint() const;

 private:
  PredictorStats stats_;
  std::set<uint64_t> seen_run_ids_;
  uint64_t runs_recorded_ = 0;
  uint64_t duplicates_ignored_ = 0;
};

}  // namespace gist

#endif  // GIST_SRC_CORE_STATISTICS_H_
