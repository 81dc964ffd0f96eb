#include "src/core/sketch.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>

#include "src/pt/decoder.h"
#include "src/support/check.h"
#include "src/support/str.h"

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

FailingTraceSummary SummarizeFailingTrace(const Module& module, size_t trace_index,
                                          const std::vector<PtDecodeResult>& decoded) {
  // Per thread: the next program-order position and the last position of
  // each instruction it retired (-1: never). Threads are few, so a linear
  // lookup per visit beats a map.
  struct ThreadWalk {
    ThreadId tid = kNoThread;
    int64_t next = 0;
    std::vector<int64_t> last;
  };
  const size_t num_instrs = module.num_instructions();
  std::vector<ThreadWalk> threads;
  for (const auto& result : decoded) {
    ThreadWalk* walk = nullptr;
    for (const PtVisit& visit : result.trace.visits) {
      if (visit.first_index > visit.last_index) {
        continue;  // truncated-away visit
      }
      if (walk == nullptr || walk->tid != visit.tid) {
        auto it = std::find_if(threads.begin(), threads.end(),
                               [&](const ThreadWalk& t) { return t.tid == visit.tid; });
        if (it == threads.end()) {
          it = threads.insert(threads.end(),
                              ThreadWalk{visit.tid, 0, std::vector<int64_t>(num_instrs, -1)});
        }
        walk = &*it;
      }
      const auto& instrs = module.function(visit.function).block(visit.block).instructions();
      const size_t end = std::min<size_t>(size_t{visit.last_index} + 1, instrs.size());
      for (size_t i = visit.first_index; i < end; ++i) {
        walk->last[instrs[i].id] = walk->next++;  // last occurrence wins
      }
    }
  }
  std::sort(threads.begin(), threads.end(),
            [](const ThreadWalk& a, const ThreadWalk& b) { return a.tid < b.tid; });

  FailingTraceSummary summary;
  summary.trace_index = trace_index;
  summary.executed.assign((num_instrs + 63) / 64, 0);
  for (InstrId id = 0; id < num_instrs; ++id) {
    for (const ThreadWalk& walk : threads) {
      if (walk.last[id] >= 0) {
        summary.executed[id / 64] |= uint64_t{1} << (id % 64);
        summary.positions.push_back(ExecutedPosition{id, walk.tid, walk.last[id]});
      }
    }
  }
  return summary;
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

// Decodes every core of `trace`; counts the decodes into `*pt_decodes`.
// Returns nothing when a stream is corrupt.
std::optional<std::vector<PtDecodeResult>> DecodeTrace(const Module& module,
                                                       const RunTrace& trace,
                                                       uint64_t* pt_decodes) {
  std::vector<PtDecodeResult> decoded;
  decoded.reserve(trace.pt_buffers.size());
  for (size_t core = 0; core < trace.pt_buffers.size(); ++core) {
    ++*pt_decodes;
    PtDecodeResult one = DecodePt(module, static_cast<CoreId>(core), trace.pt_buffers[core]);
    if (!one.ok()) {
      return std::nullopt;
    }
    decoded.push_back(std::move(one));
  }
  return decoded;
}

// The reference failing run used for layout: the failing run whose PT trace
// covers the most of the *current* window. Traces accumulate across AsT
// iterations, and early-iteration runs executed under narrower plans —
// judging them by raw watch-event counts alone would let a stale σ=2 trace
// outrank every wider-σ recurrence forever, hiding statements the grown
// window now tracks. Coverage ties break toward the most captured data
// flow, then toward the most recent run. Returns an index into `summaries`.
std::optional<size_t> SelectReferenceRun(const Module& module,
                                         const std::vector<InstrId>& window,
                                         const std::vector<RunTrace>& traces,
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
    bool better = !reference.has_value();
    if (!better && coverage != reference_coverage) {
      better = coverage > reference_coverage;
    } else if (!better) {
      better = traces[summaries[i].trace_index].watch_events.size() >=
               traces[summaries[*reference].trace_index].watch_events.size();
    }
    if (better) {
      reference = i;
      reference_coverage = coverage;
    }
  }
  return reference;
}

}  // namespace

Result<FailureSketch> BuildFailureSketch(const Module& module,
                                         const std::vector<InstrId>& window,
                                         const std::vector<RunTrace>& traces,
                                         const SketchOptions& options) {
  // Batch path (standalone, or shadow): decode every trace once, aggregate
  // its predictors, and summarize the failing ones. With a maintained
  // BehaviorStats the ranking is already aggregated and the failing traces
  // were summarized at ingest, so no stored trace is decoded here; in shadow
  // mode the batch path still runs and must agree with the incremental one
  // (fingerprint, reference choice and reference summary) or the build
  // CHECK-fails.
  BehaviorStats batch(options.beta);
  std::vector<FailingTraceSummary> batch_summaries;
  const bool incremental = options.behavior != nullptr;
  uint64_t pt_decodes = 0;
  uint64_t quarantined = options.quarantined;
  if (!incremental || options.shadow_check) {
    for (size_t i = 0; i < traces.size(); ++i) {
      const RunTrace& trace = traces[i];
      auto decoded = DecodeTrace(module, trace, &pt_decodes);
      if (!decoded.has_value()) {
        // Corrupt upload that bypassed server ingestion: quarantine it here
        // rather than abandoning the sketch (DESIGN.md §8).
        ++quarantined;
        continue;
      }
      std::vector<std::vector<uint64_t>> keys;
      for (const auto& result : *decoded) {
        keys.push_back(PtBranchKeys(result.trace));
      }
      batch.RecordRun(trace.run_id,
                      ExtractPredictors(
                          std::vector<std::span<const uint64_t>>(keys.begin(), keys.end()),
                          trace.watch_events),
                      trace.failed);
      if (trace.failed) {
        batch_summaries.push_back(SummarizeFailingTrace(module, i, *decoded));
      }
    }
  }
  if (incremental) {
    GIST_CHECK(options.failing_summaries != nullptr)
        << "streaming statistics need the ingest-time failing-trace summaries";
  }
  const std::vector<FailingTraceSummary>& summaries =
      incremental ? *options.failing_summaries : batch_summaries;
  const std::optional<size_t> chosen = SelectReferenceRun(module, window, traces, summaries);
  if (!chosen.has_value()) {
    return Error("no failing run collected yet");
  }
  const FailingTraceSummary& summary = summaries[*chosen];
  if (incremental && options.shadow_check) {
    GIST_CHECK(batch.Fingerprint() == options.behavior->Fingerprint())
        << "shadow mode: incremental BehaviorStats diverged from batch recompute\n--- batch:\n"
        << batch.Fingerprint() << "--- incremental:\n"
        << options.behavior->Fingerprint();
    const std::optional<size_t> batch_chosen =
        SelectReferenceRun(module, window, traces, batch_summaries);
    GIST_CHECK(batch_chosen.has_value() &&
               batch_summaries[*batch_chosen].trace_index == summary.trace_index)
        << "shadow mode: summary-based reference run (trace " << summary.trace_index
        << ") differs from the batch selection";
    GIST_CHECK(batch_summaries[*batch_chosen] == summary)
        << "shadow mode: ingest-time summary of reference trace " << summary.trace_index
        << " differs from the batch one (executed set or positions)";
  }
  const PredictorStats& stats = incremental ? options.behavior->stats() : batch.stats();
  const RunTrace* reference = &traces[summary.trace_index];

  // --- Refinement -----------------------------------------------------------
  // (a) control flow: window statements that actually executed in the
  //     reference failing run (its executed-instruction bitset);
  // (b) data flow: statements the watchpoints caught that static slicing
  //     missed (no alias analysis), added to the sketch.
  std::set<InstrId> members;
  for (InstrId id : window) {
    if (TestInstrBit(summary.executed, id) || id == reference->failure.failing_instr) {
      members.insert(id);
    }
  }
  std::set<InstrId> discovered;
  if (options.discovered != nullptr) {
    discovered.insert(options.discovered->begin(), options.discovered->end());
  }
  for (const WatchEvent& event : reference->watch_events) {
    if (members.insert(event.instr).second) {
      discovered.insert(event.instr);
    }
  }
  members.insert(reference->failure.failing_instr);

  // --- Layout ---------------------------------------------------------------
  // Per-(thread, statement) entries with per-thread order positions from the
  // reference summary and global anchors from the watchpoint total order.
  std::map<std::pair<ThreadId, InstrId>, LayoutEntry> entries;

  // Members ascend and the positions are sorted by instruction, so each
  // search starts where the previous one stopped.
  auto position = summary.positions.begin();
  for (InstrId id : members) {
    position = std::lower_bound(
        position, summary.positions.end(), id,
        [](const ExecutedPosition& entry, InstrId target) { return entry.instr < target; });
    for (; position != summary.positions.end() && position->instr == id; ++position) {
      LayoutEntry& entry = entries[{position->tid, id}];
      entry.instr = id;
      entry.tid = position->tid;
      entry.pos = position->pos;
    }
  }
  for (const WatchEvent& event : reference->watch_events) {
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
        entries[{reference->failure.failing_thread, reference->failure.failing_instr}];
    entry.instr = reference->failure.failing_instr;
    entry.tid = reference->failure.failing_thread;
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
      &entries[{reference->failure.failing_thread, reference->failure.failing_instr}];
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
  sketch.failure_type = reference->failure.type;
  sketch.failing_instr = reference->failure.failing_instr;
  const PredictorStats::FamilyLeaders leaders = stats.Leaders();
  sketch.best_branch = leaders.branch;
  sketch.best_value = leaders.value;
  sketch.best_value_range = leaders.value_range;
  sketch.best_concurrency = leaders.concurrency;
  sketch.best_atomicity = leaders.atomicity;
  sketch.success_order = stats.BestSuccessOrderPair();
  sketch.failing_runs_used = stats.failing_runs();
  sketch.successful_runs_used = stats.successful_runs();
  sketch.quarantined_traces = quarantined;
  sketch.pt_decodes = pt_decodes;
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
