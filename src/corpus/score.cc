#include "src/corpus/score.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/coop/fleet.h"
#include "src/support/str.h"
#include "src/support/thread_pool.h"

namespace gist {
namespace {

// Fixed-precision double formatting: the report must be byte-identical
// across --jobs and tiers, so every double goes through one formatter.
std::string Fixed(double value) { return StrFormat("%.4f", value); }

// Fraction of the manifest's expected (before, after) statement pairs the
// sketch's shared-access order honors. Pairs with a missing endpoint count
// as not honored; no pairs at all counts as fully honored.
double EdgeRecall(const Module& module, const FailureSketch& sketch,
                  const CorpusManifest& manifest) {
  if (manifest.sketch_edges.empty()) {
    return 1.0;
  }
  const std::vector<InstrId> order = sketch.SharedAccessOrder(module);
  auto position = [&](InstrId id) {
    const auto it = std::find(order.begin(), order.end(), id);
    return it == order.end() ? -1 : static_cast<int>(it - order.begin());
  };
  uint32_t honored = 0;
  for (const auto& [before, after] : manifest.sketch_edges) {
    const int before_pos = position(before);
    const int after_pos = position(after);
    if (before_pos >= 0 && after_pos >= 0 && before_pos < after_pos) {
      ++honored;
    }
  }
  return static_cast<double>(honored) / static_cast<double>(manifest.sketch_edges.size());
}

double Rate(uint32_t part, size_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

ProgramScore ScoreProgram(const GeneratedProgram& program, const CorpusScoreOptions& options,
                          ThreadPool* shared_pool) {
  const CorpusManifest& manifest = program.manifest;
  ProgramScore score;
  score.name = manifest.name;
  score.family = manifest.family;

  FleetOptions fleet_options;
  fleet_options.gist.tier = options.tier;
  fleet_options.gist.title = manifest.name;
  fleet_options.runs_per_iteration = options.runs_per_iteration;
  fleet_options.max_iterations = options.max_iterations;
  fleet_options.fleet_seed = DeriveSeed(options.fleet_seed, program.index);
  fleet_options.jobs = options.jobs;
  fleet_options.shared_pool = shared_pool;
  fleet_options.faults = options.faults;
  fleet_options.recorder = options.recorder;

  Fleet fleet(
      *program.module,
      [&manifest](uint64_t run_index, Rng& rng) {
        return CorpusWorkload(manifest, run_index, rng);
      },
      fleet_options);
  const FleetResult result = fleet.Run([&manifest](const FailureSketch& sketch) {
    return std::all_of(manifest.root_cause.begin(), manifest.root_cause.end(),
                       [&sketch](InstrId id) { return sketch.Contains(id); });
  });

  score.manifested = result.first_failure_found;
  score.failure_match = result.first_failure_found &&
                        result.first_failure.type == manifest.failure_type &&
                        result.first_failure.failing_instr == manifest.failing_instr;
  score.root_cause_found = result.root_cause_found;
  score.recurrences = result.failure_recurrences;
  score.sim_seconds = result.sim_seconds;
  if (result.first_failure_found) {
    score.accuracy = MeasureAccuracy(*program.module, result.sketch, manifest.ideal);
    score.edge_recall = EdgeRecall(*program.module, result.sketch, manifest);
  }
  score.sketch = result.sketch;
  return score;
}

CorpusScore ScoreCorpus(const std::vector<GeneratedProgram>& programs,
                        const CorpusScoreOptions& options) {
  // One pool for the whole sweep: spawning/joining a fresh pool per program
  // dominates small-program fleets. Scores are identical for any size.
  ThreadPool pool(options.jobs);
  CorpusScore score;
  score.programs.reserve(programs.size());
  for (const GeneratedProgram& program : programs) {
    score.programs.push_back(ScoreProgram(program, options, &pool));
    const ProgramScore& p = score.programs.back();
    if (p.accuracy.overall >= 90.0) {
      ++score.bucket_a90;
    } else if (p.accuracy.overall >= 75.0) {
      ++score.bucket_a75;
    } else if (p.accuracy.overall >= 50.0) {
      ++score.bucket_a50;
    } else {
      ++score.bucket_low;
    }
  }
  return score;
}

std::string CorpusScore::ReportJson() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"gist.corpusscore.v1\",\n";
  out << "  \"programs\": [\n";
  for (size_t i = 0; i < programs.size(); ++i) {
    const ProgramScore& p = programs[i];
    out << "    {\"name\": \"" << p.name << "\", \"family\": \"" << BugFamilyName(p.family)
        << "\", \"manifested\": " << (p.manifested ? 1 : 0)
        << ", \"failure_match\": " << (p.failure_match ? 1 : 0)
        << ", \"root_cause\": " << (p.root_cause_found ? 1 : 0)
        << ", \"relevance\": " << Fixed(p.accuracy.relevance)
        << ", \"ordering\": " << Fixed(p.accuracy.ordering)
        << ", \"overall\": " << Fixed(p.accuracy.overall)
        << ", \"edge_recall\": " << Fixed(p.edge_recall)
        << ", \"recurrences\": " << p.recurrences
        << ", \"sim_seconds\": " << Fixed(p.sim_seconds) << "}"
        << (i + 1 < programs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"summary\": {\n";
  bool first = true;
  for (const auto& [key, value] : BaselineMetrics()) {
    out << (first ? "" : ",\n") << "    \"" << key << "\": " << Fixed(value);
    first = false;
  }
  out << "\n  }\n";
  out << "}\n";
  return out.str();
}

std::map<std::string, double> CorpusScore::BaselineMetrics() const {
  std::map<std::string, double> metrics;
  uint32_t manifested = 0;
  uint32_t matched = 0;
  uint32_t root_cause = 0;
  double sum_relevance = 0.0;
  double sum_ordering = 0.0;
  double sum_overall = 0.0;
  double sum_edges = 0.0;
  struct FamilyTally {
    uint32_t count = 0;
    uint32_t root_cause = 0;
    double sum_overall = 0.0;
  };
  std::map<BugFamily, FamilyTally> families;
  for (const ProgramScore& p : programs) {
    manifested += p.manifested ? 1 : 0;
    matched += p.failure_match ? 1 : 0;
    root_cause += p.root_cause_found ? 1 : 0;
    sum_relevance += p.accuracy.relevance;
    sum_ordering += p.accuracy.ordering;
    sum_overall += p.accuracy.overall;
    sum_edges += p.edge_recall;
    FamilyTally& tally = families[p.family];
    ++tally.count;
    tally.root_cause += p.root_cause_found ? 1 : 0;
    tally.sum_overall += p.accuracy.overall;
  }
  const size_t n = programs.size();
  metrics["corpus_programs"] = static_cast<double>(n);
  metrics["corpus_manifested_rate"] = Rate(manifested, n);
  metrics["corpus_failure_match_rate"] = Rate(matched, n);
  metrics["corpus_root_cause_rate"] = Rate(root_cause, n);
  metrics["corpus_mean_relevance"] = n == 0 ? 0.0 : sum_relevance / static_cast<double>(n);
  metrics["corpus_mean_ordering"] = n == 0 ? 0.0 : sum_ordering / static_cast<double>(n);
  metrics["corpus_mean_overall"] = n == 0 ? 0.0 : sum_overall / static_cast<double>(n);
  metrics["corpus_mean_edge_recall"] = n == 0 ? 0.0 : sum_edges / static_cast<double>(n);
  metrics["corpus_bucket_a90_rate"] = Rate(bucket_a90, n);
  metrics["corpus_bucket_a75_rate"] = Rate(bucket_a75, n);
  metrics["corpus_bucket_a50_rate"] = Rate(bucket_a50, n);
  metrics["corpus_bucket_low_rate"] = Rate(bucket_low, n);
  for (const auto& [family, tally] : families) {
    const std::string prefix = StrFormat("corpus_%s_", BugFamilyName(family));
    metrics[prefix + "root_cause_rate"] = Rate(tally.root_cause, tally.count);
    metrics[prefix + "mean_overall"] =
        tally.count == 0 ? 0.0 : tally.sum_overall / static_cast<double>(tally.count);
  }
  return metrics;
}

BaselineCheck CheckAgainstBaseline(const CorpusScore& score,
                                   const std::map<std::string, double>& baseline) {
  // Baselines round-trip through %.6g (six significant digits), so a value
  // near 100 can shift by up to 5e-5 on re-read; the tolerance only absorbs
  // that formatting loss, never a real regression.
  constexpr double kTolerance = 1e-4;
  BaselineCheck check;
  for (const auto& [key, value] : score.BaselineMetrics()) {
    const auto it = baseline.find(key);
    if (it == baseline.end()) {
      check.violations.push_back("baseline is missing \"" + key + "\"");
      continue;
    }
    if (key == "corpus_programs") {
      if (value != it->second) {
        check.violations.push_back(StrFormat(
            "corpus_programs mismatch: scored %.0f, baseline %.0f", value, it->second));
      }
      continue;
    }
    // `bucket_low` counts the bad tail: it may only shrink. Everything else
    // is higher-is-better and floors at the committed value.
    if (key == "corpus_bucket_low_rate") {
      if (value > it->second + kTolerance) {
        check.violations.push_back(StrFormat("%s rose: %.6f > baseline %.6f", key.c_str(),
                                             value, it->second));
      }
      continue;
    }
    if (value + kTolerance < it->second) {
      check.violations.push_back(StrFormat("%s regressed: %.6f < baseline %.6f", key.c_str(),
                                           value, it->second));
    }
  }
  check.ok = check.violations.empty();
  return check;
}

FaultOptions CorpusChaosFaults() {
  FaultOptions faults;
  faults.enabled = true;
  faults.kill_permille = 40;
  faults.truncate_pt_permille = 30;
  faults.corrupt_pt_permille = 30;
  faults.drop_wire_permille = 30;
  faults.reorder_wire_permille = 150;
  faults.exhaust_watchpoints_permille = 40;
  faults.delay_result_permille = 50;
  faults.wire_mtu_bytes = 512;  // small MTU: real multi-chunk uploads
  return faults;
}

std::map<std::string, double> ReadFlatJson(const std::string& path) {
  std::map<std::string, double> values;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return values;
  }
  std::string text;
  char chunk[4096];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    text.append(chunk, got);
  }
  std::fclose(file);

  size_t pos = 0;
  while (true) {
    const size_t open = text.find('"', pos);
    if (open == std::string::npos) {
      break;
    }
    const size_t close = text.find('"', open + 1);
    if (close == std::string::npos) {
      break;
    }
    const size_t colon = text.find(':', close);
    if (colon == std::string::npos) {
      break;
    }
    const std::string key = text.substr(open + 1, close - open - 1);
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + colon + 1, &end);
    if (end == text.c_str() + colon + 1) {
      break;  // not a number
    }
    values[key] = value;
    pos = static_cast<size_t>(end - text.c_str());
  }
  return values;
}

bool WriteFlatJson(const std::string& path, const std::map<std::string, double>& values) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "{\n");
  size_t index = 0;
  for (const auto& [key, value] : values) {
    const char* separator = ++index < values.size() ? "," : "";
    if (value == std::floor(value) && std::abs(value) < 9.0e15) {
      std::fprintf(file, "  \"%s\": %lld%s\n", key.c_str(), static_cast<long long>(value),
                   separator);
    } else {
      std::fprintf(file, "  \"%s\": %.6g%s\n", key.c_str(), value, separator);
    }
  }
  std::fprintf(file, "}\n");
  std::fclose(file);
  return true;
}

}  // namespace gist
