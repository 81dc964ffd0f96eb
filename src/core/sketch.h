// Failure sketch data model and construction (paper §3.2–§3.3, Figs. 1/7/8).
//
// A failure sketch is a compact, time-ordered view of the statements leading
// to a failure, annotated with the thread that executed each statement in the
// failing run, the data values hardware watchpoints observed, and the
// highest-ranked failure predictors (the differences between failing and
// successful runs).
//
// Construction = slice refinement + predictor statistics:
//   1. pick the reference failing run — the one whose executed-instruction
//      bitset (kept per failing trace at ingest, DESIGN.md §15) covers the
//      most of the window; its bitset says which window statements actually
//      executed (removes never-executed slice statements), and its recorded
//      per-thread positions give their program order, so no PT stream is
//      decoded again;
//   2. add watchpoint-discovered statements that the alias-analysis-free
//      static slice missed (§3.2.3);
//   3. order statements by the watchpoint total order, interpolating
//      unwatched statements by per-thread program order between anchors
//      (cross-core order beyond that is unavailable — a PT limitation the
//      paper accepts);
//   4. attach per-statement values and the top branch / value / concurrency
//      predictors from the statistics over all monitored runs.

#ifndef GIST_SRC_CORE_SKETCH_H_
#define GIST_SRC_CORE_SKETCH_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/run_trace.h"
#include "src/core/statistics.h"
#include "src/ir/module.h"
#include "src/pt/decoder.h"
#include "src/support/result.h"

namespace gist {

struct SketchStatement {
  InstrId instr = kNoInstr;
  ThreadId tid = kNoThread;      // thread that executed it in the failing run
  uint32_t step = 0;             // row in the sketch's time axis (1-based)
  std::optional<Word> value;     // last observed value (watched accesses)
  bool is_failure_point = false;
  bool highlighted = false;      // involved in a top failure predictor
  bool discovered_at_runtime = false;  // added by data-flow refinement
};

struct FailureSketch {
  std::string title;
  FailureType failure_type = FailureType::kNone;
  InstrId failing_instr = kNoInstr;
  std::vector<SketchStatement> statements;  // ordered by step
  std::vector<ThreadId> threads;            // distinct tids, column order

  // Best predictor per family over all monitored runs (absent if none seen).
  std::optional<ScoredPredictor> best_branch;
  std::optional<ScoredPredictor> best_value;
  std::optional<ScoredPredictor> best_value_range;
  std::optional<ScoredPredictor> best_concurrency;
  // Best Fig. 5 atomicity pattern (may differ from best_concurrency when a
  // pair pattern outranks the triples); input to fix synthesis.
  std::optional<ScoredPredictor> best_atomicity;
  // Pair pattern most correlated with SUCCESS: the order a fix for an order
  // violation must enforce (input to order-fix synthesis).
  std::optional<ScoredPredictor> success_order;

  uint32_t failing_runs_used = 0;
  uint32_t successful_runs_used = 0;
  // Distinct predictors scored while ranking (flight-recorder input,
  // DESIGN.md §9).
  uint32_t predictors_evaluated = 0;
  // PT streams this build decoded into visit lists (flight-recorder input,
  // DESIGN.md §15). Only the batch path decodes, once per core of every
  // trace. With streaming statistics and shadow mode off a build decodes
  // nothing, so this is 0.
  uint64_t pt_decodes = 0;
  // Traces excluded from this sketch because their PT streams would not
  // decode (server-side quarantine plus any undecodable trace handed
  // directly to BuildFailureSketch). Purely informational: the sketch is
  // built over the surviving runs (DESIGN.md §8).
  uint64_t quarantined_traces = 0;

  bool Contains(InstrId id) const;
  std::vector<InstrId> InstrSet() const;
  // Statements in step order restricted to shared-memory accesses — the
  // sequence the ordering-accuracy metric compares (§5.2).
  std::vector<InstrId> SharedAccessOrder(const Module& module) const;
};

// What the server keeps from one accepted failing trace (DESIGN.md §15):
// the set of instructions its PT streams cover, which reference-run
// selection reads, and the last position of every executed (instruction,
// thread) pair, which the sketch layout reads if the trace becomes the
// reference. Together they are everything a build needs from the streams.
struct FailingTraceSummary {
  size_t trace_index = 0;  // position of the trace in the list it summarizes
  InstrBitset executed;
  // One entry per executed pair, sorted by (instr, tid): grows with the
  // pairs the trace executed, not with module size.
  std::vector<ExecutedPosition> positions;

  bool operator==(const FailingTraceSummary&) const = default;
};

struct SketchOptions {
  double beta = kDefaultBeta;
  std::string title;
  // Statements known to have been added to the slice by data-flow refinement
  // (GistServer::discovered_instrs); the sketch marks them '+' even after
  // they entered the tracked window.
  const std::vector<InstrId>* discovered = nullptr;
  // Uploads the server already quarantined before `traces`; carried into
  // FailureSketch::quarantined_traces so the sketch reports the full count.
  uint64_t quarantined = 0;
  // Streaming statistics maintained by the trace-ingest path (DESIGN.md
  // §14). When set, the sketch ranks from this aggregation instead of
  // re-extracting every stored trace's predictors, and picks and lays out
  // the reference run from `failing_summaries` (which must then be set), so
  // it decodes nothing — the caller guarantees every trace in `traces`
  // already passed ingest validation, which GistServer does. Null keeps the
  // batch path: decode every trace once, aggregate, and summarize the
  // failing ones.
  const BehaviorStats* behavior = nullptr;
  // One summary per failing trace of `traces`, in trace order (DESIGN.md
  // §15); read only with `behavior`.
  const std::vector<FailingTraceSummary>* failing_summaries = nullptr;
  // Shadow mode: with `behavior` set, ALSO run the batch path and CHECK-fail
  // unless both aggregations fingerprint byte-identically, both pick the
  // same reference trace, and its batch summary equals the ingest-time one
  // (executed set and positions). The incremental path's correctness gate;
  // tests and GIST_STATS_SHADOW=1 turn it on.
  bool shadow_check = false;
};

// Builds a sketch from the monitored runs. `window` is the slice portion AsT
// currently tracks; `traces` are all collected run traces (at least one
// failing). A trace whose PT streams fail to decode is skipped — counted in
// FailureSketch::quarantined_traces, never fatal — so one corrupt upload
// cannot block diagnosis. Returns an error only when no failing trace
// survives.
Result<FailureSketch> BuildFailureSketch(const Module& module,
                                         const std::vector<InstrId>& window,
                                         const std::vector<RunTrace>& traces,
                                         const SketchOptions& options = {});

}  // namespace gist

#endif  // GIST_SRC_CORE_SKETCH_H_
