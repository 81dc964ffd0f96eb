// Test-local oracle for the failing-run summary walk (DESIGN.md §15): the
// decode-then-summarize path that ingest replaced. It decodes each stream
// into visit lists with DecodePt, reduces every decode to its digest with
// PtBranchKeys, and walks the visits with one program-order counter per
// thread, across cores in core order, into the executed set and the last
// position of every (instruction, thread) pair.

#ifndef GIST_TESTS_SUMMARY_ORACLE_H_
#define GIST_TESTS_SUMMARY_ORACLE_H_

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/core/sketch.h"
#include "src/pt/decoder.h"

namespace gist {

// The digest of an already materialized decode.
inline PtStreamDigest DigestOf(const PtDecodeResult& result) {
  PtStreamDigest digest;
  digest.stats = result.stats;
  digest.error = result.error;
  digest.branch_keys = PtBranchKeys(result.trace);
  return digest;
}

// Summarizes one trace from its decoded PT streams in one walk over their
// visits; the failure report and watch log stay empty. PGD-dropped visits
// (first_index > last_index) count nothing.
inline FailingTraceSummary SummarizeFailingTrace(const Module& module,
                                                 const std::vector<PtDecodeResult>& decoded) {
  std::map<ThreadId, int64_t> next;                             // per thread
  std::map<std::pair<InstrId, ThreadId>, int64_t> last;         // per executed pair
  for (const PtDecodeResult& result : decoded) {
    for (const PtVisit& visit : result.trace.visits) {
      if (visit.first_index > visit.last_index) {
        continue;
      }
      const auto& instrs = module.function(visit.function).block(visit.block).instructions();
      const size_t end = std::min<size_t>(size_t{visit.last_index} + 1, instrs.size());
      for (size_t i = visit.first_index; i < end; ++i) {
        last[{instrs[i].id, visit.tid}] = next[visit.tid]++;  // last occurrence wins
      }
    }
  }
  FailingTraceSummary summary;
  summary.executed.assign((module.num_instructions() + 63) / 64, 0);
  for (const auto& [pair, pos] : last) {
    summary.executed[pair.first / 64] |= uint64_t{1} << (pair.first % 64);
    summary.positions.push_back(ExecutedPosition{pair.first, pair.second, pos});
  }
  return summary;
}

// The oracle's PtTraceSummary of `streams`: DecodePt per core, in core
// order, then the digests and the visit walk above.
inline PtTraceSummary OracleSummary(const Module& module,
                                    const std::vector<std::vector<uint8_t>>& streams) {
  std::vector<PtDecodeResult> decoded;
  PtTraceSummary summary;
  for (size_t core = 0; core < streams.size(); ++core) {
    decoded.push_back(DecodePt(module, static_cast<CoreId>(core), streams[core]));
    summary.cores.push_back(DigestOf(decoded.back()));
  }
  FailingTraceSummary folded = SummarizeFailingTrace(module, decoded);
  summary.executed = std::move(folded.executed);
  summary.positions = std::move(folded.positions);
  return summary;
}

}  // namespace gist

#endif  // GIST_TESTS_SUMMARY_ORACLE_H_
