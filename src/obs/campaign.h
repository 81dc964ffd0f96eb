// Campaign observatory (DESIGN.md §14): sketch-convergence telemetry for one
// diagnosis campaign, recorded per AsT iteration on the coordinator thread.
//
// The tracker answers "how close is this diagnosis to converging?" with
// deterministic, replayable numbers:
//   - sketch edit distance: Levenshtein distance between this iteration's
//     sketch statement sequence and the previous one — 0 means the sketch
//     stopped moving;
//   - predictor-rank churn: how many of the top-K ranked predictors changed
//     position since the previous iteration;
//   - watchpoint-rotation coverage: what fraction of the watch set the
//     per-client debug registers cover (per-mille, so the journal stays
//     integer-only);
//   - quorum / fault survivorship: how many consumed runs actually reached
//     the server intact.
//
// Like the flight recorder, the tracker lives on VIRTUAL time (retired
// instructions over consumed work) and its `gist.campaign.v1` journal is a
// pure function of (module, options, fleet_seed): bit-identical for any
// --jobs and execution tier. Wall-clock or otherwise non-deterministic
// numbers ride the annotation side channel ONLY and never appear in
// JournalJson().
//
// Layering: src/obs sits below core/coop, so the API is plain data — the
// fleet adapts server state (sketch statements, ranked predictors) into a
// CampaignIterationSample per iteration.

#ifndef GIST_SRC_OBS_CAMPAIGN_H_
#define GIST_SRC_OBS_CAMPAIGN_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gist {

// Everything one AsT iteration contributes, as observed at its end.
struct CampaignIterationSample {
  uint32_t iteration = 0;
  uint32_t sigma = 0;
  uint64_t virtual_end = 0;  // tracker clock (retired instructions) at the end
  uint32_t failing_runs = 0;
  uint32_t successful_runs = 0;
  uint32_t lost_runs = 0;
  uint32_t quarantined_runs = 0;
  uint32_t retries = 0;
  bool quorum_met = true;
  bool root_cause_found = false;
  uint32_t recurrences = 0;  // cumulative target recurrences so far
  // Watchpoint-rotation coverage inputs: the tracked watch set vs the
  // per-client debug-register budget, and how many rotation subsets the last
  // frozen snapshot carried (0 = the set fits, no rotation needed).
  uint32_t rotation_count = 0;
  uint32_t watch_instrs = 0;
  uint32_t watchpoint_slots = 0;
  uint32_t slice_statements = 0;
  uint32_t window_statements = 0;
  bool slice_exhausted = false;
  // The current sketch's statement ids in step order (empty before the first
  // successful build) — the edit-distance input.
  std::vector<uint64_t> sketch_statements;
  // Top-ranked predictor descriptions, best first — the rank-churn input.
  std::vector<std::string> top_predictors;
};

// Convergence-trend buckets, derived from the recorded samples.
//   converged   the last iteration's sketch satisfied the root-cause check
//   closing     the sketch is still changing, but less than before
//   monitoring  collecting data; no trend yet
//   stalled     the sketch stopped changing without converging (σ growth or
//               slice exhaustion is doing nothing)
// The ETA bucket is the developer-facing summary: "done", "1-2 iterations",
// "3+ iterations", or "unknown".

class CampaignTracker {
 public:
  // Top-K window the rank-churn metric compares across iterations.
  static constexpr size_t kRankWindow = 5;

  explicit CampaignTracker(std::string title = "failure") : title_(std::move(title)) {}

  // Virtual clock, advanced by the coordinator for consumed work only (the
  // flight-recorder discipline): probes and monitored runs, in run-index
  // order, so `now()` is independent of worker count.
  uint64_t now() const { return clock_; }
  void AdvanceClock(uint64_t retired_instructions) { clock_ += retired_instructions; }

  // Records one finished AsT iteration; computes edit distance, rank churn,
  // coverage, and survivorship against the previous record.
  void RecordIteration(CampaignIterationSample sample);

  struct Record {
    CampaignIterationSample sample;
    uint32_t sketch_edit_distance = 0;   // vs the previous iteration's sketch
    uint32_t predictor_rank_churn = 0;   // top-K positions that changed
    uint32_t watch_coverage_permille = 0;
    uint32_t survivor_permille = 0;
    uint32_t runs_consumed = 0;
  };

  size_t iterations() const { return records_.size(); }
  const std::vector<Record>& records() const { return records_; }
  const std::string& title() const { return title_; }

  std::string_view trend() const;
  std::string_view eta_bucket() const;

  // The deterministic `gist.campaign.v1` journal: per-iteration records plus
  // the live status block. Integer and string fields only — no doubles, no
  // wall clock — so byte-equality across --jobs and tier is checkable with
  // cmp(1).
  std::string JournalJson() const;

  // --- non-deterministic side channel --------------------------------------
  // Same quarantine rule as FlightRecorder::Annotate: named doubles for
  // bench-only data (wall-clock seconds), NEVER part of JournalJson().
  void Annotate(std::string_view name, double value);
  double annotation(std::string_view name, double missing = 0.0) const;

 private:
  std::string title_;
  uint64_t clock_ = 0;
  std::vector<Record> records_;
  std::map<std::string, double, std::less<>> annotations_;
};

}  // namespace gist

#endif  // GIST_SRC_OBS_CAMPAIGN_H_
