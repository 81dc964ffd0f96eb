#include "src/obs/profiler.h"

#include <algorithm>
#include <cstdlib>

#include "src/hw/perf_model.h"
#include "src/ir/module.h"
#include "src/obs/metrics.h"
#include "src/support/check.h"
#include "src/support/str.h"
#include "src/vm/decoded_module.h"

namespace gist {
namespace {

// Virtual cycles one debug trap costs in the perf model (CostModel::
// cycles_per_watch_trap); the profile keeps it integral so exports stay
// bit-stable.
uint64_t TrapCycles() {
  return static_cast<uint64_t>(CostModel{}.cycles_per_watch_trap);
}

// Event classes in ObservedEvents bit order; the names label the dispatch
// breakdown in the JSON export.
constexpr const char* kEventNames[7] = {
    "context_switch", "block_enter", "branch",          "mem_access",
    "return",         "instr_retired", "thread_lifecycle",
};

// JSON string escape for function names / labels / app titles. The IR only
// produces identifier-ish names, but app titles are free text.
std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string U64(uint64_t value) {
  return StrFormat("%llu", static_cast<unsigned long long>(value));
}

}  // namespace

void HotPathProfiler::Attach(const DecodedModule& decoded, std::string app) {
  attached_ = true;
  app_ = std::move(app);
  info_.clear();
  info_.reserve(decoded.num_blocks());
  total_ = BlockProfile{};
  total_.EnsureSize(decoded.num_blocks());
  runs_ = 0;
  std::fill(std::begin(events_), std::end(events_), 0);
  masks_.clear();
  watch_denied_arms_ = 0;
  watch_slot_arms_.clear();
  watch_slot_traps_.clear();
  watch_traps_by_instr_.clear();

  const Module& module = decoded.module();
  for (FunctionId fid = 0; fid < decoded.num_functions(); ++fid) {
    const DecodedFunction& function = decoded.function(fid);
    const Function& source = module.function(fid);
    for (const DecodedBlock& block : function.blocks) {
      GIST_CHECK_EQ(static_cast<size_t>(block.profile_index), info_.size());
      BlockStatic info;
      info.function = source.name();
      info.label = source.block(block.id).label();
      info.size = block.size;
      if (block.size > 0) {
        const DecodedInstr& last = block.instrs[block.size - 1];
        if (last.op == Opcode::kBr) {
          info.taken = last.target0->profile_index;
          info.not_taken = last.target1->profile_index;
        } else if (last.op == Opcode::kJmp) {
          info.jump = last.target0->profile_index;
        }
      }
      info_.push_back(std::move(info));
    }
  }
}

void HotPathProfiler::AddRun(const BlockProfile& blocks, const ProfiledRunSample& sample) {
  GIST_CHECK(attached_) << "HotPathProfiler::AddRun before Attach";
  total_.Merge(blocks);
  ++runs_;

  const uint64_t class_counts[7] = {
      sample.context_switches, sample.block_enters, sample.branches, sample.mem_accesses,
      sample.returns,          sample.retired,      sample.thread_events,
  };
  for (uint32_t bit = 0; bit < 7; ++bit) {
    events_[bit] += class_counts[bit];
  }
  for (uint32_t mask : sample.observer_masks) {
    MaskCost& cost = masks_[mask];
    ++cost.observers;
    for (uint32_t bit = 0; bit < 7; ++bit) {
      if (mask & (1u << bit)) {
        cost.selected += class_counts[bit];
      }
    }
  }

  watch_denied_arms_ += sample.watch_denied_arms;
  if (watch_slot_arms_.size() < sample.watch_slot_arms.size()) {
    watch_slot_arms_.resize(sample.watch_slot_arms.size(), 0);
    watch_slot_traps_.resize(sample.watch_slot_arms.size(), 0);
  }
  for (size_t i = 0; i < sample.watch_slot_arms.size(); ++i) {
    watch_slot_arms_[i] += sample.watch_slot_arms[i];
  }
  for (size_t i = 0; i < sample.watch_slot_traps.size(); ++i) {
    watch_slot_traps_[i] += sample.watch_slot_traps[i];
  }
  for (const auto& [instr, traps] : sample.watch_traps_by_instr) {
    watch_traps_by_instr_[instr] += traps;
  }
}

std::string HotPathProfiler::ProfileJson() const {
  std::string out = "{\n";
  out += "  \"schema\": \"gist.profile.v1\",\n";
  out += "  \"app\": \"" + EscapeJson(app_) + "\",\n";
  out += "  \"runs\": " + U64(runs_) + ",\n";

  uint64_t retired = 0;
  uint64_t entries = 0;
  uint64_t taken = 0;
  uint64_t not_taken = 0;
  uint64_t executed = 0;
  for (size_t i = 0; i < info_.size(); ++i) {
    retired += total_.retired[i];
    entries += total_.exec[i];
    taken += total_.taken[i];
    not_taken += total_.not_taken[i];
    executed += (total_.exec[i] != 0 || total_.retired[i] != 0) ? 1 : 0;
  }
  out += "  \"totals\": {\"retired\": " + U64(retired) + ", \"block_entries\": " + U64(entries) +
         ", \"taken\": " + U64(taken) + ", \"not_taken\": " + U64(not_taken) +
         ", \"blocks_executed\": " + U64(executed) + ", \"blocks_total\": " + U64(info_.size()) +
         "},\n";

  // Per-block histogram, block-index (function-major) order; blocks a fleet
  // never touched are elided to keep profiles reviewable.
  out += "  \"blocks\": [";
  bool first = true;
  for (size_t i = 0; i < info_.size(); ++i) {
    if (total_.exec[i] == 0 && total_.retired[i] == 0) {
      continue;
    }
    out += StrFormat("%s\n    {\"id\": %zu, \"function\": \"%s\", \"block\": \"%s\", "
                     "\"size\": %u, \"exec\": %llu, \"retired\": %llu, \"taken\": %llu, "
                     "\"not_taken\": %llu}",
                     first ? "" : ",", i, EscapeJson(info_[i].function).c_str(),
                     EscapeJson(info_[i].label).c_str(), info_[i].size,
                     static_cast<unsigned long long>(total_.exec[i]),
                     static_cast<unsigned long long>(total_.retired[i]),
                     static_cast<unsigned long long>(total_.taken[i]),
                     static_cast<unsigned long long>(total_.not_taken[i]));
    first = false;
  }
  out += first ? "],\n" : "\n  ],\n";

  // CFG edge profile: one entry per traversed edge, source-index order.
  out += "  \"edges\": [";
  first = true;
  auto edge = [&](size_t from, uint32_t to, const char* kind, uint64_t count) {
    if (to == kNoSuccessor || count == 0) {
      return;
    }
    out += StrFormat("%s\n    {\"from\": %zu, \"to\": %u, \"kind\": \"%s\", \"count\": %llu}",
                     first ? "" : ",", from, to, kind,
                     static_cast<unsigned long long>(count));
    first = false;
  };
  for (size_t i = 0; i < info_.size(); ++i) {
    edge(i, info_[i].taken, "taken", total_.taken[i]);
    edge(i, info_[i].not_taken, "not_taken", total_.not_taken[i]);
    // An unconditional jump is traversed once per entry of its block.
    edge(i, info_[i].jump, "jump", total_.exec[i]);
  }
  out += first ? "],\n" : "\n  ],\n";

  // Hot chains: seed at the hottest blocks by retired count, extend each
  // chain along its dominant outgoing edge — the hottest straight-line
  // paths through the module.
  std::vector<uint32_t> order(info_.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (total_.retired[a] != total_.retired[b]) {
      return total_.retired[a] > total_.retired[b];
    }
    return a < b;  // deterministic tie-break
  });
  out += "  \"hot_chains\": [";
  first = true;
  std::vector<bool> seeded(info_.size(), false);
  uint32_t chains = 0;
  for (uint32_t seed : order) {
    if (chains >= options_.hot_chain_count || total_.retired[seed] == 0) {
      break;
    }
    if (seeded[seed]) {
      continue;  // already part of an earlier (hotter) chain
    }
    std::vector<uint32_t> chain;
    std::vector<bool> in_chain(info_.size(), false);
    uint64_t chain_retired = 0;
    uint32_t at = seed;
    while (chain.size() < options_.hot_chain_max_len && !in_chain[at]) {
      chain.push_back(at);
      in_chain[at] = true;
      seeded[at] = true;
      chain_retired += total_.retired[at];
      const BlockStatic& info = info_[at];
      uint32_t next = kNoSuccessor;
      uint64_t weight = 0;
      if (info.jump != kNoSuccessor) {
        next = info.jump;
        weight = total_.exec[at];
      } else if (info.taken != kNoSuccessor) {
        // Dominant side of the conditional; ties go to the taken edge.
        next = total_.taken[at] >= total_.not_taken[at] ? info.taken : info.not_taken;
        weight = std::max(total_.taken[at], total_.not_taken[at]);
      }
      if (next == kNoSuccessor || weight == 0) {
        break;
      }
      at = next;
    }
    ++chains;
    out += StrFormat("%s\n    {\"retired\": %llu, \"blocks\": [", first ? "" : ",",
                     static_cast<unsigned long long>(chain_retired));
    for (size_t i = 0; i < chain.size(); ++i) {
      out += StrFormat("%s\"%s:%s\"", i == 0 ? "" : ", ",
                       EscapeJson(info_[chain[i]].function).c_str(),
                       EscapeJson(info_[chain[i]].label).c_str());
    }
    out += "]}";
    first = false;
  }
  out += first ? "],\n" : "\n  ],\n";

  // Watchpoint-slot contention and trap-cost attribution (src/hw).
  const uint64_t trap_cycles = TrapCycles();
  out += "  \"watch\": {\"cycles_per_trap\": " + U64(trap_cycles) +
         ", \"denied_arms\": " + U64(watch_denied_arms_) + ", \"slots\": [";
  for (size_t i = 0; i < watch_slot_arms_.size(); ++i) {
    out += StrFormat("%s{\"slot\": %zu, \"arms\": %llu, \"traps\": %llu}", i == 0 ? "" : ", ", i,
                     static_cast<unsigned long long>(watch_slot_arms_[i]),
                     static_cast<unsigned long long>(watch_slot_traps_[i]));
  }
  out += "], \"by_instr\": [";
  first = true;
  for (const auto& [instr, traps] : watch_traps_by_instr_) {
    out += StrFormat("%s{\"instr\": %u, \"traps\": %llu, \"cycles\": %llu}", first ? "" : ", ",
                     instr, static_cast<unsigned long long>(traps),
                     static_cast<unsigned long long>(traps * trap_cycles));
    first = false;
  }
  out += "]},\n";

  // Observer-dispatch cost per subscriber mask, from the declared masks and
  // the mode-independent event tallies.
  out += "  \"dispatch\": {\"events\": {";
  for (uint32_t bit = 0; bit < 7; ++bit) {
    out += StrFormat("%s\"%s\": %llu", bit == 0 ? "" : ", ", kEventNames[bit],
                     static_cast<unsigned long long>(events_[bit]));
  }
  out += "}, \"masks\": [";
  first = true;
  for (const auto& [mask, cost] : masks_) {
    out += StrFormat("%s{\"mask\": %u, \"observers\": %llu, \"selected\": %llu}",
                     first ? "" : ", ", mask, static_cast<unsigned long long>(cost.observers),
                     static_cast<unsigned long long>(cost.selected));
    first = false;
  }
  out += "]}\n";
  out += "}\n";
  return out;
}

std::string HotPathProfiler::ProfileCollapsed() const {
  // Flamegraph collapsed-stack convention: "frame;frame;frame count". The
  // stack is app → function → block; only executed blocks emit a line.
  std::string out;
  for (size_t i = 0; i < info_.size(); ++i) {
    if (total_.retired[i] == 0) {
      continue;
    }
    out += app_ + ";" + info_[i].function + ";" + info_[i].label + " " +
           U64(total_.retired[i]) + "\n";
  }
  return out;
}

void HotPathProfiler::PublishSummary(MetricsRegistry* metrics) const {
  uint64_t retired = 0;
  uint64_t entries = 0;
  uint64_t taken = 0;
  uint64_t not_taken = 0;
  uint64_t executed = 0;
  for (size_t i = 0; i < total_.retired.size(); ++i) {
    retired += total_.retired[i];
    entries += total_.exec[i];
    taken += total_.taken[i];
    not_taken += total_.not_taken[i];
    executed += (total_.exec[i] != 0 || total_.retired[i] != 0) ? 1 : 0;
  }
  uint64_t traps = 0;
  for (uint64_t value : watch_slot_traps_) {
    traps += value;
  }
  metrics->Add("profile.runs", runs_);
  metrics->Add("profile.retired_total", retired);
  metrics->Add("profile.block_entries", entries);
  metrics->Add("profile.edges_taken", taken);
  metrics->Add("profile.edges_not_taken", not_taken);
  metrics->Add("profile.watch_traps_attributed", traps);
  metrics->Set("profile.blocks_executed", static_cast<int64_t>(executed));
  metrics->Set("profile.schema_version", 1);
}

// --- profile diff -----------------------------------------------------------

namespace {

// Minimal recursive-descent JSON reader, just enough to consume the
// profiler's own exports (objects, arrays, strings, unsigned integers,
// true/false/null). Rejecting anything else is fine: a baseline that does
// not round-trip through this reader is not a profile we wrote.
struct JsonValue {
  enum Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  uint64_t number = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [name, value] : fields) {
      if (name == key) {
        return &value;
      }
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char escaped = text_[pos_++];
        switch (escaped) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return false;
            }
            c = static_cast<char>(
                std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          }
          default:
            c = escaped;  // \" \\ \/ and friends
        }
      }
      out->push_back(c);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      if (Consume('}')) {
        return true;
      }
      do {
        std::string key;
        JsonValue value;
        if (!ParseString(&key) || !Consume(':') || !ParseValue(&value)) {
          return false;
        }
        out->fields.emplace_back(std::move(key), std::move(value));
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      if (Consume(']')) {
        return true;
      }
      do {
        JsonValue value;
        if (!ParseValue(&value)) {
          return false;
        }
        out->items.push_back(std::move(value));
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (c >= '0' && c <= '9') {
      out->kind = JsonValue::kNumber;
      uint64_t value = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        value = value * 10 + static_cast<uint64_t>(text_[pos_++] - '0');
      }
      out->number = value;
      return true;
    }
    auto literal = [&](const char* word, size_t len) {
      if (text_.compare(pos_, len, word) == 0) {
        pos_ += len;
        return true;
      }
      return false;
    };
    if (literal("true", 4)) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      return true;
    }
    if (literal("false", 5)) {
      out->kind = JsonValue::kBool;
      return true;
    }
    if (literal("null", 4)) {
      return true;
    }
    return false;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Parses one profile export into a (function;block -> retired) map plus the
// totals.retired figure. Empty error on success.
bool LoadProfileBlocks(const std::string& json, const char* which,
                       std::map<std::string, uint64_t>* blocks, uint64_t* total_retired,
                       std::string* error) {
  JsonValue root;
  if (!JsonReader(json).Parse(&root) || root.kind != JsonValue::kObject) {
    *error = StrFormat("%s: not valid JSON", which);
    return false;
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::kString ||
      schema->str != "gist.profile.v1") {
    *error = StrFormat("%s: missing or unsupported schema tag (want gist.profile.v1)", which);
    return false;
  }
  const JsonValue* totals = root.Find("totals");
  const JsonValue* retired = totals != nullptr ? totals->Find("retired") : nullptr;
  const JsonValue* array = root.Find("blocks");
  if (retired == nullptr || retired->kind != JsonValue::kNumber || array == nullptr ||
      array->kind != JsonValue::kArray) {
    *error = StrFormat("%s: missing totals.retired or blocks", which);
    return false;
  }
  *total_retired = retired->number;
  for (const JsonValue& block : array->items) {
    const JsonValue* function = block.Find("function");
    const JsonValue* label = block.Find("block");
    const JsonValue* count = block.Find("retired");
    if (function == nullptr || label == nullptr || count == nullptr ||
        count->kind != JsonValue::kNumber) {
      *error = StrFormat("%s: malformed block entry", which);
      return false;
    }
    (*blocks)[function->str + ";" + label->str] += count->number;
  }
  return true;
}

}  // namespace

ProfileDiffResult DiffProfiles(const std::string& baseline_json, const std::string& current_json,
                               const ProfileDiffOptions& options) {
  ProfileDiffResult result;
  std::map<std::string, uint64_t> before;
  std::map<std::string, uint64_t> after;
  uint64_t total_before = 0;
  uint64_t total_after = 0;
  if (!LoadProfileBlocks(baseline_json, "baseline", &before, &total_before, &result.error) ||
      !LoadProfileBlocks(current_json, "current", &after, &total_after, &result.error)) {
    return result;
  }
  result.parsed = true;

  struct Drift {
    std::string key;
    uint64_t before = 0;
    uint64_t after = 0;
    uint64_t permille = 0;  // relative drift vs the baseline count
  };
  std::vector<Drift> regressed;
  std::vector<Drift> improved;
  // Walk the union of keys; both maps are ordered, so the scan (and with it
  // the report) is deterministic.
  auto classify = [&](const std::string& key, uint64_t b, uint64_t a) {
    if (a == b) {
      return;
    }
    const uint64_t delta = a > b ? a - b : b - a;
    const uint64_t permille = delta * 1000 / std::max<uint64_t>(b, 1);
    (a > b ? regressed : improved).push_back(Drift{key, b, a, permille});
  };
  for (const auto& [key, count] : before) {
    const auto it = after.find(key);
    classify(key, count, it == after.end() ? 0 : it->second);
  }
  for (const auto& [key, count] : after) {
    if (before.find(key) == before.end()) {
      classify(key, 0, count);
    }
  }

  auto by_delta = [](const Drift& a, const Drift& b) {
    const uint64_t da = a.after > a.before ? a.after - a.before : a.before - a.after;
    const uint64_t db = b.after > b.before ? b.after - b.before : b.before - b.after;
    if (da != db) {
      return da > db;
    }
    return a.key < b.key;
  };
  std::sort(regressed.begin(), regressed.end(), by_delta);
  std::sort(improved.begin(), improved.end(), by_delta);

  uint64_t worst_permille = 0;
  for (const std::vector<Drift>* side : {&regressed, &improved}) {
    for (const Drift& drift : *side) {
      worst_permille = std::max(worst_permille, drift.permille);
    }
  }
  result.ok = worst_permille <= options.max_drift_permille;

  result.report = StrFormat("totals.retired: %llu -> %llu; %zu block(s) regressed, %zu improved "
                            "(max drift %llu permille, allowed %llu)\n",
                            static_cast<unsigned long long>(total_before),
                            static_cast<unsigned long long>(total_after),
                            regressed.size(), improved.size(),
                            static_cast<unsigned long long>(worst_permille),
                            static_cast<unsigned long long>(options.max_drift_permille));
  auto report_side = [&](const char* title, const std::vector<Drift>& side) {
    if (side.empty()) {
      return;
    }
    result.report += StrFormat("top %s blocks:\n", title);
    for (size_t i = 0; i < side.size() && i < options.top_n; ++i) {
      const Drift& drift = side[i];
      result.report += StrFormat("  %-40s retired %llu -> %llu (%llu permille)\n",
                                 drift.key.c_str(),
                                 static_cast<unsigned long long>(drift.before),
                                 static_cast<unsigned long long>(drift.after),
                                 static_cast<unsigned long long>(drift.permille));
    }
  };
  report_side("regressed", regressed);
  report_side("improved", improved);
  return result;
}

}  // namespace gist
