// Failure predictors and their extraction from run traces (paper §3.3).
//
// Gist tracks three predictor families:
//   * branch predictors  — (branch statement, outcome), from decoded PT;
//   * value predictors   — (access statement, data value), from watchpoints;
//   * concurrency predictors — observed inter-thread access patterns on one
//     shared address, from the watchpoint total order: adjacent pairs from
//     different threads (WW / WR / RW — data race & order patterns) and
//     adjacent T1-T2-T1 triples (RWR / WWR / RWW / WRW — the single-variable
//     atomicity-violation patterns of Fig. 5).
//
// Each distinct predictor is counted at most once per run; the statistics
// layer correlates per-run presence with the run's outcome.

#ifndef GIST_SRC_CORE_PREDICTORS_H_
#define GIST_SRC_CORE_PREDICTORS_H_

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/hw/watchpoints.h"
#include "src/ir/module.h"
#include "src/pt/decoder.h"

namespace gist {

enum class PredictorKind : uint8_t {
  kBranch,
  kValue,
  // Range/inequality predicate on a data value (the paper's §6 future work):
  // sign buckets value < 0 / == 0 / > 0, which catch whole failure classes
  // ("bandwidth went negative") that exact-value predictors fragment across
  // many distinct values.
  kValueSign,
  kRWR,  // atomicity violations (Fig. 5)
  kWWR,
  kRWW,
  kWRW,
  kWW,  // race / order patterns (Fig. 6)
  kWR,
  kRW,
};

const char* PredictorKindName(PredictorKind kind);
bool IsConcurrencyPredictor(PredictorKind kind);
// The single-variable atomicity-violation patterns of Fig. 5, plus WW (a
// write-write race is serializable by the same lock insertion).
bool IsAtomicityPattern(PredictorKind kind);

struct Predictor {
  PredictorKind kind = PredictorKind::kBranch;
  // Statements involved: branch/value use `a`; pair patterns use `a, b`;
  // triple patterns use `a, b, c` (in observed order).
  InstrId a = kNoInstr;
  InstrId b = kNoInstr;
  InstrId c = kNoInstr;
  Word value = 0;      // kValue: the observed data value; kValueSign: -1/0/+1
  bool taken = false;  // kBranch: the observed outcome

  auto Key() const { return std::make_tuple(kind, a, b, c, value, taken); }
  bool operator==(const Predictor& other) const { return Key() == other.Key(); }
  bool operator<(const Predictor& other) const { return Key() < other.Key(); }
};

std::string PredictorToString(const Predictor& predictor, const Module& module);

// Extracts the deduplicated predictor set of one run from the branch-outcome
// keys of each of its PT streams (each sorted and unique: a
// PtStreamDigest's, or PtBranchKeys of a full decode) and its watch log.
// Branch predictors sort first, so they are the merged keys in order; only
// the watch-derived predictors need a set.
std::vector<Predictor> ExtractPredictors(const std::vector<std::span<const uint64_t>>& branch_keys,
                                         const std::vector<WatchEvent>& data_flow);

}  // namespace gist

#endif  // GIST_SRC_CORE_PREDICTORS_H_
