#include "src/core/predictors.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/support/str.h"

namespace gist {

const char* PredictorKindName(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kBranch:
      return "branch";
    case PredictorKind::kValue:
      return "value";
    case PredictorKind::kValueSign:
      return "value-range";
    case PredictorKind::kRWR:
      return "RWR";
    case PredictorKind::kWWR:
      return "WWR";
    case PredictorKind::kRWW:
      return "RWW";
    case PredictorKind::kWRW:
      return "WRW";
    case PredictorKind::kWW:
      return "WW";
    case PredictorKind::kWR:
      return "WR";
    case PredictorKind::kRW:
      return "RW";
  }
  return "?";
}

bool IsConcurrencyPredictor(PredictorKind kind) {
  return kind != PredictorKind::kBranch && kind != PredictorKind::kValue &&
         kind != PredictorKind::kValueSign;
}

bool IsAtomicityPattern(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kRWR:
    case PredictorKind::kWWR:
    case PredictorKind::kRWW:
    case PredictorKind::kWRW:
    case PredictorKind::kWW:
      return true;
    default:
      return false;
  }
}

std::string PredictorToString(const Predictor& predictor, const Module& module) {
  auto stmt = [&](InstrId id) {
    if (id == kNoInstr) {
      return std::string("?");
    }
    const Instruction& instr = module.instr(id);
    if (!instr.loc.text.empty()) {
      return StrFormat("%s:%u \"%s\"", instr.loc.function.c_str(), instr.loc.line,
                       instr.loc.text.c_str());
    }
    return StrFormat("#%u", id);
  };
  switch (predictor.kind) {
    case PredictorKind::kBranch:
      return StrFormat("branch %s %s", stmt(predictor.a).c_str(),
                       predictor.taken ? "taken" : "not-taken");
    case PredictorKind::kValue:
      return StrFormat("value %s == %lld", stmt(predictor.a).c_str(),
                       static_cast<long long>(predictor.value));
    case PredictorKind::kValueSign:
      return StrFormat("value %s %s", stmt(predictor.a).c_str(),
                       predictor.value < 0   ? "< 0"
                       : predictor.value > 0 ? "> 0"
                                             : "== 0");
    default:
      break;
  }
  std::string out = StrFormat("%s pattern: %s -> %s", PredictorKindName(predictor.kind),
                              stmt(predictor.a).c_str(), stmt(predictor.b).c_str());
  if (predictor.c != kNoInstr) {
    out += " -> " + stmt(predictor.c);
  }
  return out;
}

namespace {

PredictorKind PairKind(bool first_write, bool second_write) {
  if (first_write && second_write) {
    return PredictorKind::kWW;
  }
  if (first_write) {
    return PredictorKind::kWR;
  }
  if (second_write) {
    return PredictorKind::kRW;
  }
  // Read-read pairs are benign; the caller filters them out.
  GIST_UNREACHABLE("RR pair is not a predictor");
}

// Maps the (rw, rw, rw) signature of a T1-T2-T1 triple to a Fig. 5 pattern,
// or returns false if the signature is not one of the four.
bool TripleKind(bool w1, bool w2, bool w3, PredictorKind* out) {
  if (!w1 && w2 && !w3) {
    *out = PredictorKind::kRWR;
    return true;
  }
  if (w1 && w2 && !w3) {
    *out = PredictorKind::kWWR;
    return true;
  }
  if (!w1 && w2 && w3) {
    *out = PredictorKind::kRWW;
    return true;
  }
  if (w1 && !w2 && w3) {
    *out = PredictorKind::kWRW;
    return true;
  }
  return false;
}

}  // namespace

std::vector<Predictor> ExtractPredictors(const std::vector<std::span<const uint64_t>>& branch_keys,
                                         const std::vector<WatchEvent>& data_flow) {
  // Branch predictors from the decoded control flow: the union of the
  // per-stream key sets.
  std::vector<uint64_t> merged;
  for (std::span<const uint64_t> keys : branch_keys) {
    merged.insert(merged.end(), keys.begin(), keys.end());
  }
  if (branch_keys.size() > 1) {
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  }

  // Watch-derived predictors; every kind here sorts after kBranch.
  std::set<Predictor> found;

  // Value predictors from the watchpoint log: the exact value plus its sign
  // bucket (range/inequality predicate, paper §6 future work).
  for (const WatchEvent& event : data_flow) {
    Predictor predictor;
    predictor.kind = PredictorKind::kValue;
    predictor.a = event.instr;
    predictor.value = event.value;
    found.insert(predictor);

    Predictor sign;
    sign.kind = PredictorKind::kValueSign;
    sign.a = event.instr;
    sign.value = event.value < 0 ? -1 : event.value > 0 ? 1 : 0;
    found.insert(sign);
  }

  // Concurrency predictors: group the (already totally ordered) watch log by
  // address, then scan adjacent pairs and triples.
  std::map<Addr, std::vector<const WatchEvent*>> by_addr;
  for (const WatchEvent& event : data_flow) {
    by_addr[event.addr].push_back(&event);
  }
  for (const auto& [addr, events] : by_addr) {
    (void)addr;
    // Pairs: adjacent conflicting accesses from different threads (the
    // race/order patterns of Fig. 6c/d).
    for (size_t i = 0; i + 1 < events.size(); ++i) {
      const WatchEvent& first = *events[i];
      const WatchEvent& second = *events[i + 1];
      if (first.tid != second.tid && (first.is_write || second.is_write)) {
        Predictor predictor;
        predictor.kind = PairKind(first.is_write, second.is_write);
        predictor.a = first.instr;
        predictor.b = second.instr;
        found.insert(predictor);
      }
    }
    // Triples: each access is paired with the same thread's previous access
    // to the variable and every remote access interleaved between the two —
    // the standard unserializable-interleaving reading of Fig. 5 (the remote
    // access breaks the local pair's atomicity whether or not it is strictly
    // adjacent to either end).
    std::map<ThreadId, size_t> previous_by_tid;
    for (size_t i = 0; i < events.size(); ++i) {
      const WatchEvent& current = *events[i];
      auto prev_it = previous_by_tid.find(current.tid);
      if (prev_it != previous_by_tid.end()) {
        for (size_t k = prev_it->second + 1; k < i; ++k) {
          const WatchEvent& local_prev = *events[prev_it->second];
          const WatchEvent& remote = *events[k];
          PredictorKind kind;
          if (remote.tid != current.tid &&
              TripleKind(local_prev.is_write, remote.is_write, current.is_write, &kind)) {
            Predictor predictor;
            predictor.kind = kind;
            predictor.a = local_prev.instr;
            predictor.b = remote.instr;
            predictor.c = current.instr;
            found.insert(predictor);
          }
        }
      }
      previous_by_tid[current.tid] = i;
    }
  }

  std::vector<Predictor> predictors;
  predictors.reserve(merged.size() + found.size());
  for (uint64_t key : merged) {
    Predictor predictor;
    predictor.kind = PredictorKind::kBranch;
    predictor.a = static_cast<InstrId>(key >> 1);
    predictor.taken = (key & 1) != 0;
    predictors.push_back(predictor);
  }
  predictors.insert(predictors.end(), found.begin(), found.end());
  return predictors;
}

}  // namespace gist
