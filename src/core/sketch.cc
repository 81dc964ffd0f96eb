#include "src/core/sketch.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>

#include "src/pt/decoder.h"

namespace gist {

bool FailureSketch::Contains(InstrId id) const {
  for (const SketchStatement& statement : statements) {
    if (statement.instr == id) {
      return true;
    }
  }
  return false;
}

std::vector<InstrId> FailureSketch::InstrSet() const {
  std::set<InstrId> unique;
  for (const SketchStatement& statement : statements) {
    unique.insert(statement.instr);
  }
  return std::vector<InstrId>(unique.begin(), unique.end());
}

std::vector<InstrId> FailureSketch::SharedAccessOrder(const Module& module) const {
  std::vector<InstrId> order;
  for (const SketchStatement& statement : statements) {  // already step-ordered
    if (module.instr(statement.instr).IsSharedAccess() && statement.value.has_value()) {
      order.push_back(statement.instr);
    }
  }
  return order;
}

namespace {

struct LayoutEntry {
  InstrId instr = kNoInstr;
  ThreadId tid = kNoThread;
  int64_t pos = -1;          // per-thread program-order position (-1: unknown)
  double anchor = 0.0;       // global sort key
  bool watched = false;
  std::optional<Word> value;
  bool discovered = false;
};

// Decodes every core of `trace` into visit lists; counts the decodes into
// `*pt_decodes`. Returns nothing when a stream is corrupt.
std::optional<std::vector<PtDecodeResult>> DecodeTrace(const PtWalkTable& table,
                                                       const RunTrace& trace,
                                                       uint64_t* pt_decodes) {
  std::vector<PtDecodeResult> decoded;
  decoded.reserve(trace.pt_buffers.size());
  for (size_t core = 0; core < trace.pt_buffers.size(); ++core) {
    ++*pt_decodes;
    PtDecodeResult one = DecodePt(table, static_cast<CoreId>(core), trace.pt_buffers[core]);
    if (!one.ok()) {
      return std::nullopt;
    }
    decoded.push_back(std::move(one));
  }
  return decoded;
}

// The reference failing run used for layout: the failing run whose PT trace
// covers the most of the *current* window. Summaries accumulate across AsT
// iterations, and early-iteration runs executed under narrower plans —
// judging them by raw watch-event counts alone would let a stale σ=2 trace
// outrank every wider-σ recurrence forever, hiding statements the grown
// window now tracks. Coverage ties break toward the most captured data
// flow, then toward the most recent run. Returns an index into `summaries`.
std::optional<size_t> SelectReferenceRun(const Module& module,
                                         const std::vector<InstrId>& window,
                                         const std::vector<FailingTraceSummary>& summaries) {
  InstrBitset window_bits((module.num_instructions() + 63) / 64, 0);
  for (InstrId id : window) {
    if (id < module.num_instructions()) {
      window_bits[id / 64] |= uint64_t{1} << (id % 64);
    }
  }
  std::optional<size_t> reference;
  size_t reference_coverage = 0;
  for (size_t i = 0; i < summaries.size(); ++i) {
    const InstrBitset& executed = summaries[i].executed;
    size_t coverage = 0;
    for (size_t word = 0; word < window_bits.size() && word < executed.size(); ++word) {
      coverage += static_cast<size_t>(std::popcount(window_bits[word] & executed[word]));
    }
    if (!reference.has_value() || coverage > reference_coverage ||
        (coverage == reference_coverage &&
         summaries[i].watch_events.size() >= summaries[*reference].watch_events.size())) {
      reference = i;
      reference_coverage = coverage;
    }
  }
  return reference;
}

}  // namespace

TraceReduction ReduceTraces(const Module& module, const std::vector<RunTrace>& traces,
                            double beta) {
  TraceReduction reduction{BehaviorStats(beta), {}, 0, 0};
  PtTraceSummarizer summarizer(module);
  for (const RunTrace& trace : traces) {
    auto decoded = DecodeTrace(summarizer.table(), trace, &reduction.pt_decodes);
    if (!decoded.has_value()) {
      ++reduction.quarantined;
      continue;
    }
    std::vector<std::vector<uint64_t>> keys;
    for (const auto& result : *decoded) {
      keys.push_back(PtBranchKeys(result.trace));
    }
    reduction.behavior.RecordRun(
        trace.run_id,
        ExtractPredictors(std::vector<std::span<const uint64_t>>(keys.begin(), keys.end()),
                          trace.watch_events),
        trace.failed);
    if (trace.failed) {
      PtTraceSummary summary = summarizer.Summarize(*decoded);
      reduction.failing.push_back(FailingTraceSummary{std::move(summary.executed),
                                                      std::move(summary.positions),
                                                      trace.failure, trace.watch_events});
    }
  }
  return reduction;
}

Result<FailureSketch> BuildFailureSketch(const Module& module,
                                         const std::vector<InstrId>& window,
                                         const std::vector<RunTrace>& traces,
                                         const SketchOptions& options) {
  const TraceReduction reduction = ReduceTraces(module, traces);
  SketchOptions layout_options = options;
  layout_options.quarantined += reduction.quarantined;
  Result<FailureSketch> sketch = BuildFailureSketch(
      module, window, reduction.behavior.stats(), reduction.failing, layout_options);
  if (sketch.ok()) {
    sketch->pt_decodes = reduction.pt_decodes;
  }
  return sketch;
}

Result<FailureSketch> BuildFailureSketch(const Module& module,
                                         const std::vector<InstrId>& window,
                                         const PredictorStats& stats,
                                         const std::vector<FailingTraceSummary>& summaries,
                                         const SketchOptions& options) {
  const std::optional<size_t> chosen = SelectReferenceRun(module, window, summaries);
  if (!chosen.has_value()) {
    return Error("no failing run collected yet");
  }
  const FailingTraceSummary& reference = summaries[*chosen];

  // --- Refinement -----------------------------------------------------------
  // (a) control flow: window statements that actually executed in the
  //     reference failing run (its executed-instruction bitset);
  // (b) data flow: statements the watchpoints caught that static slicing
  //     missed (no alias analysis), added to the sketch.
  std::set<InstrId> members;
  for (InstrId id : window) {
    if (TestInstrBit(reference.executed, id) || id == reference.failure.failing_instr) {
      members.insert(id);
    }
  }
  std::set<InstrId> discovered;
  if (options.discovered != nullptr) {
    discovered.insert(options.discovered->begin(), options.discovered->end());
  }
  for (const WatchEvent& event : reference.watch_events) {
    if (members.insert(event.instr).second) {
      discovered.insert(event.instr);
    }
  }
  members.insert(reference.failure.failing_instr);

  // --- Layout ---------------------------------------------------------------
  // Per-(thread, statement) entries with per-thread order positions from the
  // reference summary and global anchors from the watchpoint total order.
  std::map<std::pair<ThreadId, InstrId>, LayoutEntry> entries;

  // Members ascend and the positions are sorted by instruction, so each
  // search starts where the previous one stopped.
  auto position = reference.positions.begin();
  for (InstrId id : members) {
    position = std::lower_bound(
        position, reference.positions.end(), id,
        [](const ExecutedPosition& entry, InstrId target) { return entry.instr < target; });
    for (; position != reference.positions.end() && position->instr == id; ++position) {
      LayoutEntry& entry = entries[{position->tid, id}];
      entry.instr = id;
      entry.tid = position->tid;
      entry.pos = position->pos;
    }
  }
  for (const WatchEvent& event : reference.watch_events) {
    LayoutEntry& entry = entries[{event.tid, event.instr}];
    entry.instr = event.instr;
    entry.tid = event.tid;
    entry.watched = true;
    entry.anchor = static_cast<double>(event.seq);  // last occurrence wins
    entry.value = event.value;
    entry.discovered = discovered.count(event.instr) != 0;
  }

  // The failure point always appears, attributed to the failing thread.
  {
    LayoutEntry& entry =
        entries[{reference.failure.failing_thread, reference.failure.failing_instr}];
    entry.instr = reference.failure.failing_instr;
    entry.tid = reference.failure.failing_thread;
  }

  // Interpolate anchors for unwatched entries: per thread, walk entries in
  // program order and place them just after the previous watched anchor.
  std::map<ThreadId, std::vector<LayoutEntry*>> by_thread;
  for (auto& [key, entry] : entries) {
    by_thread[key.first].push_back(&entry);
  }
  for (auto& [tid, list] : by_thread) {
    (void)tid;
    std::sort(list.begin(), list.end(), [](const LayoutEntry* a, const LayoutEntry* b) {
      if (a->pos != b->pos) {
        return a->pos < b->pos;
      }
      return a->instr < b->instr;
    });
    double current = 0.0;
    int sub = 0;
    for (LayoutEntry* entry : list) {
      if (entry->watched) {
        current = entry->anchor;
        sub = 0;
      } else {
        entry->anchor = current + 0.001 * (++sub);
      }
    }
  }

  // Global order: anchors first, thread id and program position as
  // deterministic tie-breaks; the failure point is forced last.
  std::vector<LayoutEntry*> ordered;
  LayoutEntry* failure_entry =
      &entries[{reference.failure.failing_thread, reference.failure.failing_instr}];
  for (auto& [key, entry] : entries) {
    (void)key;
    if (&entry != failure_entry) {
      ordered.push_back(&entry);
    }
  }
  std::sort(ordered.begin(), ordered.end(), [](const LayoutEntry* a, const LayoutEntry* b) {
    if (a->anchor != b->anchor) {
      return a->anchor < b->anchor;
    }
    if (a->tid != b->tid) {
      return a->tid < b->tid;
    }
    return a->pos < b->pos;
  });
  ordered.push_back(failure_entry);

  // --- Assemble ---------------------------------------------------------------
  FailureSketch sketch;
  sketch.title = options.title;
  sketch.failure_type = reference.failure.type;
  sketch.failing_instr = reference.failure.failing_instr;
  const PredictorStats::FamilyLeaders leaders = stats.Leaders();
  sketch.best_branch = leaders.branch;
  sketch.best_value = leaders.value;
  sketch.best_value_range = leaders.value_range;
  sketch.best_concurrency = leaders.concurrency;
  sketch.best_atomicity = leaders.atomicity;
  sketch.success_order = stats.BestSuccessOrderPair();
  sketch.failing_runs_used = stats.failing_runs();
  sketch.successful_runs_used = stats.successful_runs();
  sketch.quarantined_traces = options.quarantined;
  sketch.predictors_evaluated = static_cast<uint32_t>(stats.predictor_count());

  std::set<InstrId> highlighted;
  auto mark = [&](const std::optional<ScoredPredictor>& scored) {
    if (!scored.has_value()) {
      return;
    }
    for (InstrId id : {scored->predictor.a, scored->predictor.b, scored->predictor.c}) {
      if (id != kNoInstr) {
        highlighted.insert(id);
      }
    }
  };
  mark(sketch.best_branch);
  mark(sketch.best_value);
  mark(sketch.best_value_range);
  mark(sketch.best_concurrency);

  std::set<ThreadId> tids;
  uint32_t step = 0;
  for (const LayoutEntry* entry : ordered) {
    SketchStatement statement;
    statement.instr = entry->instr;
    statement.tid = entry->tid;
    statement.step = ++step;
    statement.value = entry->value;
    statement.is_failure_point = (entry == failure_entry);
    statement.highlighted = highlighted.count(entry->instr) != 0;
    statement.discovered_at_runtime = entry->discovered;
    sketch.statements.push_back(statement);
    tids.insert(entry->tid);
  }
  sketch.threads.assign(tids.begin(), tids.end());
  return sketch;
}

}  // namespace gist
