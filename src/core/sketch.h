// Failure sketch data model and construction (paper §3.2–§3.3, Figs. 1/7/8).
//
// A failure sketch is a compact, time-ordered view of the statements leading
// to a failure, annotated with the thread that executed each statement in the
// failing run, the data values hardware watchpoints observed, and the
// highest-ranked failure predictors (the differences between failing and
// successful runs).
//
// Construction reads predictor statistics and one FailingTraceSummary per
// failing run, never a trace (the server reduces each upload at ingest,
// ReduceTraces a whole trace list; DESIGN.md §15):
//   1. pick the reference failing run — the summary whose executed-
//      instruction bitset covers the most of the window; its bitset says
//      which window statements executed, and its per-thread positions give
//      their program order;
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
  // DESIGN.md §15). Only a batch reduction decodes, once per core of every
  // trace: the RunTrace overload, or a server build in shadow mode. The
  // layout decodes nothing, so a server build with shadow mode off reads 0.
  uint64_t pt_decodes = 0;
  // Traces excluded from this sketch because they failed validation
  // (server-side quarantine plus any undecodable trace handed directly to
  // BuildFailureSketch). Purely informational: the sketch is
  // built over the surviving runs (DESIGN.md §8).
  uint64_t quarantined_traces = 0;

  bool Contains(InstrId id) const;
  std::vector<InstrId> InstrSet() const;
  // Statements in step order restricted to shared-memory accesses — the
  // sequence the ordering-accuracy metric compares (§5.2).
  std::vector<InstrId> SharedAccessOrder(const Module& module) const;
};

// What the server keeps from one accepted failing trace (DESIGN.md §15):
// everything a sketch build reads of it. Reference-run selection reads the
// executed set and the watch-event count; the layout reads the positions,
// the failure report and the watch events.
struct FailingTraceSummary {
  InstrBitset executed;
  // One entry per executed pair, sorted by (instr, tid): grows with the
  // pairs the trace executed, not with module size.
  std::vector<ExecutedPosition> positions;
  FailureReport failure;
  std::vector<WatchEvent> watch_events;

  bool operator==(const FailingTraceSummary&) const = default;
};

// Batch reduction: every trace decoded once into visit lists, its predictors
// aggregated and, if it failed, summarized from those visits. An undecodable
// trace is skipped and counted, never fatal (DESIGN.md §8).
struct TraceReduction {
  BehaviorStats behavior;
  std::vector<FailingTraceSummary> failing;  // in trace order
  uint64_t quarantined = 0;
  uint64_t pt_decodes = 0;  // streams decoded, one per core of every trace
};

TraceReduction ReduceTraces(const Module& module, const std::vector<RunTrace>& traces,
                            double beta = kDefaultBeta);

struct SketchOptions {
  std::string title;
  // Statements known to have been added to the slice by data-flow refinement
  // (GistServer::discovered_instrs); the sketch marks them '+' even after
  // they entered the tracked window.
  const std::vector<InstrId>* discovered = nullptr;
  // Uploads quarantined before they reached the summaries; carried into
  // FailureSketch::quarantined_traces so the sketch reports the full count.
  uint64_t quarantined = 0;
};

// Lays out a sketch from the predictor statistics over all monitored runs
// and the failing-trace summaries. `window` is the slice portion AsT
// currently tracks. Reads no trace and decodes nothing (pt_decodes is 0).
// Returns an error only when `summaries` is empty.
Result<FailureSketch> BuildFailureSketch(const Module& module,
                                         const std::vector<InstrId>& window,
                                         const PredictorStats& stats,
                                         const std::vector<FailingTraceSummary>& summaries,
                                         const SketchOptions& options);

// ReduceTraces over `traces` (all collected run traces, at least one
// failing) at the default beta, then the layout above; the sketch counts
// the reduction's decodes and quarantined traces. For callers that hold raw
// traces (Fig. 10, tests).
Result<FailureSketch> BuildFailureSketch(const Module& module,
                                         const std::vector<InstrId>& window,
                                         const std::vector<RunTrace>& traces,
                                         const SketchOptions& options = {});

}  // namespace gist

#endif  // GIST_SRC_CORE_SKETCH_H_
