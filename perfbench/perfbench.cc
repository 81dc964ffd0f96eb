// Diagnosis benchmark: runs one pinned workload (inputs.h) end to end and
// prints its metrics. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   gist_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 (end to end): builds the workload's inputs, runs a discarded
// warm-up over every 8th diagnosis, times kSetupRepeats more builds
// (setup_s is the median), then repeats whole passes over all diagnoses
// while they fit in S seconds. Every diagnosis is checked against its
// ground truth, and the digest of all outcomes must be identical in every
// pass.
//
// --trace 1 (per layer): one real Fleet::Run pass at the workload's worker
// count with a FlightRecorder attached and a counting workload generator,
// then one traced pass (traced.h) whose outcomes must equal the real ones.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "src/obs/flight_recorder.h"
#include "src/support/logging.h"
#include "src/support/thread_pool.h"
#include "traced.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 51;
constexpr size_t kWarmupStride = 8;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// High-water resident set of this process image. getrusage's ru_maxrss is
// not used: Linux carries it across execve, so it would report the parent's
// peak whenever that was larger.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

// Pins the calling thread to one of the CPUs the process may use, chosen by
// `slot` modulo their count. On a shared virtual machine each vCPU runs
// faster or slower as its host core's neighbours come and go; a run left on
// one vCPU inherits that vCPU's luck (single-worker runs split into a fast
// and a ~20% slower mode). Rotating the slot per diagnosis and per pass
// spreads every pass evenly over the vCPUs and gives each diagnosis's median
// samples from different ones, which halved the run-to-run spread.
void PinToCpu(size_t slot) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          allowed.push_back(cpu);
        }
      }
    }
    return allowed;
  }();
  if (cpus.size() < 2) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// Linear-interpolated quantile of `values` (q in [0, 1]).
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

void AppendF(std::string* out, const char* format, ...) __attribute__((format(printf, 2, 3)));
void AppendF(std::string* out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  if (n > 0) {
    const size_t start = out->size();
    out->resize(start + static_cast<size_t>(n) + 1);
    std::vsnprintf(out->data() + start, static_cast<size_t>(n) + 1, format, args);
    out->resize(start + static_cast<size_t>(n));
  }
  va_end(args);
}

uint64_t Fnv1a(const std::string& bytes, uint64_t hash = 0xcbf29ce484222325ULL) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// One diagnosis's graded outcome.
struct Outcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process user+sys, all threads
  bool failure_match = false;
  bool root_cause = false;
  double overall = 0.0;
  uint32_t recurrences = 0;
  double sim_seconds = 0.0;
  double overhead_pct = 0.0;
  uint64_t monitored = 0;  // monitored runs consumed
  uint64_t delivered = 0;  // ... of which reached the server intact
  // Everything the pipeline decided, in a canonical byte form: the digest
  // input and the traced/untraced comparison key.
  std::string canonical;

  bool ok() const { return failure_match && root_cause; }
};

std::string Canonical(const Diagnosis& diagnosis, const gist::FleetResult& result) {
  std::string out = diagnosis.name;
  AppendF(&out, " found=%d rc=%d rec=%u sim=%.17g lost=%u quar=%u retries=%u sigma=%u ovh=%.17g",
          result.first_failure_found ? 1 : 0, result.root_cause_found ? 1 : 0,
          result.failure_recurrences, result.sim_seconds, result.lost_runs,
          result.quarantined_runs, result.retries, result.sigma_final,
          result.avg_overhead_percent);
  AppendF(&out, " fail=%u@%u", static_cast<unsigned>(result.first_failure.type),
          static_cast<unsigned>(result.first_failure.failing_instr));
  out += " sketch=";
  for (const gist::SketchStatement& s : result.sketch.statements) {
    AppendF(&out, "%u.%u.%u.%lld.%d%d%d;", static_cast<unsigned>(s.instr),
            static_cast<unsigned>(s.tid), s.step,
            s.value.has_value() ? static_cast<long long>(*s.value) : -1LL,
            s.is_failure_point ? 1 : 0, s.highlighted ? 1 : 0, s.discovered_at_runtime ? 1 : 0);
  }
  return out;
}

Outcome Grade(const Diagnosis& diagnosis, const gist::FleetResult& result) {
  Outcome outcome;
  const gist::FailureReport& failure = result.first_failure;
  if (diagnosis.exact_failure) {
    outcome.failure_match = result.first_failure_found &&
                            failure.type == diagnosis.failure_type &&
                            failure.failing_instr == diagnosis.failing_instr;
  } else {
    // Apps have no manifest PC (apache-3 manifests as either a double free
    // or a use-after-free): the final sketch must explain the failure the
    // fleet first reported.
    outcome.failure_match = result.first_failure_found && failure.IsFailure() &&
                            result.sketch.failure_type == failure.type &&
                            result.sketch.failing_instr == failure.failing_instr;
  }
  outcome.root_cause =
      result.root_cause_found &&
      std::all_of(diagnosis.root_cause.begin(), diagnosis.root_cause.end(),
                  [&](gist::InstrId id) { return result.sketch.Contains(id); });
  if (result.first_failure_found) {
    outcome.overall =
        gist::MeasureAccuracy(*diagnosis.module, result.sketch, *diagnosis.ideal).overall;
  }
  outcome.recurrences = result.failure_recurrences;
  outcome.sim_seconds = result.sim_seconds;
  outcome.overhead_pct = result.avg_overhead_percent;
  for (const gist::FleetIterationStats& it : result.iterations) {
    outcome.delivered += it.successful_runs + it.failing_runs;
    outcome.monitored +=
        it.successful_runs + it.failing_runs + it.lost_runs + it.quarantined_runs;
  }
  outcome.canonical = Canonical(diagnosis, result);
  return outcome;
}

gist::FleetResult RunFleet(const Diagnosis& diagnosis, gist::ThreadPool& pool,
                           gist::FlightRecorder* recorder) {
  gist::FleetOptions options = diagnosis.options;
  options.shared_pool = &pool;
  options.recorder = recorder;
  gist::Fleet fleet(*diagnosis.module, diagnosis.generator, std::move(options));
  return fleet.Run([&](const gist::FailureSketch& sketch) {
    return std::all_of(diagnosis.root_cause.begin(), diagnosis.root_cause.end(),
                       [&](gist::InstrId id) { return sketch.Contains(id); });
  });
}

struct Pass {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
  uint64_t digest = 0;
};

// Diagnoses every `stride`-th input, untraced, and grades each outcome.
// `rotation` offsets the CPU each diagnosis is pinned to.
Pass RunPass(const std::vector<Diagnosis>& diagnoses, gist::ThreadPool& pool, size_t stride,
             size_t rotation) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < diagnoses.size(); i += stride) {
    PinToCpu(i + rotation);
    const double cpu_start = CpuSeconds();
    const Clock::time_point diagnosis_start = Clock::now();
    const gist::FleetResult result = RunFleet(diagnoses[i], pool, nullptr);
    const double wall = SecondsSince(diagnosis_start);
    const double cpu = CpuSeconds() - cpu_start;
    pass.outcomes.push_back(Grade(diagnoses[i], result));
    pass.outcomes.back().wall_s = wall;
    pass.outcomes.back().cpu_s = cpu;
  }
  pass.wall_s = SecondsSince(start);
  // Hashed in name order, so the digest does not depend on the run order
  // and is the same for every seed of a workload.
  std::vector<const std::string*> canonical;
  for (const Outcome& outcome : pass.outcomes) {
    canonical.push_back(&outcome.canonical);
  }
  std::sort(canonical.begin(), canonical.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  pass.digest = 0xcbf29ce484222325ULL;
  for (const std::string* line : canonical) {
    pass.digest = Fnv1a(*line + "\n", pass.digest);
  }
  return pass;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  // False: printed in the table only, not part of the JSON result.
  bool in_result = true;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %-6s samples=%zu%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples, m.in_result ? "" : "  (table only)");
  }
  std::string json;
  AppendF(&json, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
          correct ? "true" : "false", static_cast<unsigned long long>(attempted),
          static_cast<unsigned long long>(failed));
  const char* separator = "";
  for (const Metric& m : metrics) {
    if (!m.in_result) {
      continue;
    }
    AppendF(&json, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator,
            m.name.c_str(), m.value, m.unit.c_str());
    separator = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') return false;
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

// Median wall time of building the workload's inputs from scratch. Timed
// after the warm-up pass, so it measures steady state rather than the first
// touches of a cold process.
double TimeSetup(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<double> times;
  for (int r = 0; r < kSetupRepeats; ++r) {
    PinToCpu(static_cast<size_t>(r));
    const Clock::time_point start = Clock::now();
    const std::unique_ptr<WorkloadInputs> inputs = BuildInputs(spec, seed);
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

// Checks that a subset pass agrees with the full pass on the diagnoses both
// ran; returns the number of disagreements.
uint64_t CompareSubset(const Pass& subset, const Pass& full, size_t stride) {
  uint64_t mismatches = 0;
  for (size_t k = 0; k < subset.outcomes.size(); ++k) {
    if (subset.outcomes[k].canonical != full.outcomes[k * stride].canonical) {
      ++mismatches;
    }
  }
  return mismatches;
}

int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  const std::unique_ptr<WorkloadInputs> inputs = BuildInputs(spec, args.seed);
  const std::vector<Diagnosis>& diagnoses = inputs->diagnoses;
  gist::ThreadPool pool(spec.workers);

  const Pass warmup = RunPass(diagnoses, pool, kWarmupStride, 0);
  const double setup_s = TimeSetup(spec, args.seed);
  // Whole passes only, as many as fit in the measuring time. Peak memory is
  // read after the first, so it does not grow with the pass count.
  std::vector<Pass> passes;
  double peak_rss_mb = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(RunPass(diagnoses, pool, 1, passes.size()));
    if (passes.size() == 1) {
      peak_rss_mb = PeakRssMb();
    }
  } while (SecondsSince(start) * static_cast<double>(passes.size() + 1) /
               static_cast<double>(passes.size()) <=
           args.seconds);

  const size_t n = diagnoses.size();
  uint64_t digest_mismatches = CompareSubset(warmup, passes[0], kWarmupStride);
  uint64_t failed = digest_mismatches;
  for (const Pass& pass : passes) {
    for (size_t i = 0; i < n; ++i) {
      const Outcome& outcome = pass.outcomes[i];
      if (!outcome.ok()) {
        ++failed;
        std::fprintf(stderr, "error: %s: failure_match=%d root_cause=%d\n",
                     diagnoses[i].name.c_str(), outcome.failure_match, outcome.root_cause);
      }
    }
    if (pass.digest != passes[0].digest) {
      ++digest_mismatches;
      failed += n;
    }
  }
  std::printf("workload %s seed %llu: %zu diagnoses x %zu passes, digest %016llx\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), n, passes.size(),
              static_cast<unsigned long long>(passes[0].digest));
  std::printf("pass wall s:");
  for (const Pass& pass : passes) {
    std::printf(" %.3f", pass.wall_s);
  }
  std::printf("\n");
  if (digest_mismatches != 0) {
    std::fprintf(stderr, "error: outcome digest differs between passes (%llu mismatches)\n",
                 static_cast<unsigned long long>(digest_mismatches));
  }

  // Each diagnosis's median over the passes, so a disturbance that slows
  // one pass is filtered out per diagnosis.
  std::vector<double> diagnosis_wall;
  std::vector<double> diagnosis_cpu;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> wall;
    std::vector<double> cpu;
    for (const Pass& pass : passes) {
      wall.push_back(pass.outcomes[i].wall_s);
      cpu.push_back(pass.outcomes[i].cpu_s);
    }
    diagnosis_wall.push_back(Median(wall));
    diagnosis_cpu.push_back(Median(cpu));
  }
  auto mean = [](const std::vector<double>& values) {
    double sum = 0.0;
    for (double v : values) sum += v;
    return sum / static_cast<double>(values.size());
  };

  const Pass& first = passes[0];
  double root_cause = 0, overall = 0, recurrences = 0, sim = 0, overhead = 0;
  uint64_t monitored = 0, delivered = 0;
  for (const Outcome& outcome : first.outcomes) {
    root_cause += outcome.root_cause ? 1.0 : 0.0;
    overall += outcome.overall;
    recurrences += outcome.recurrences;
    sim += outcome.sim_seconds;
    overhead += outcome.overhead_pct;
    monitored += outcome.monitored;
    delivered += outcome.delivered;
  }
  const double count = static_cast<double>(n);
  const size_t runs = n * passes.size();
  const std::vector<Metric> metrics = {
      {"s_per_diagnosis", mean(diagnosis_wall), "s", runs},
      {"cpu_s_per_diagnosis", mean(diagnosis_cpu), "s", runs},
      // The median diagnosis is a ~3 ms fleet whose time follows host
      // scheduling noise (up to 2x between runs with 4 workers), too
      // unsteady for a bounded result.
      {"diag_s_p50", Quantile(diagnosis_wall, 0.5), "s", n, false},
      {"diag_s_p90", Quantile(diagnosis_wall, 0.9), "s", n},
      {"root_cause_rate", root_cause / count, "ratio", n},
      {"accuracy_overall_mean", overall / count, "%", n},
      {"recurrences_mean", recurrences / count, "count", n},
      {"sim_s_to_sketch_mean", sim / count, "s", n},
      {"client_overhead_pct", overhead / count, "%", n},
      {"upload_delivered_ratio",
       monitored == 0 ? 1.0 : static_cast<double>(delivered) / static_cast<double>(monitored),
       "ratio", static_cast<size_t>(monitored)},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
      {"setup_s", setup_s, "s", kSetupRepeats},
  };
  PrintResult(failed == 0, runs, failed, metrics);
  return failed == 0 ? 0 : 1;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  const std::unique_ptr<WorkloadInputs> inputs = BuildInputs(spec, args.seed);
  const std::vector<Diagnosis>& diagnoses = inputs->diagnoses;
  gist::ThreadPool pool(spec.workers);
  const Pass warmup = RunPass(diagnoses, pool, kWarmupStride, 0);
  const double setup_s = TimeSetup(spec, args.seed);

  // Real fleets at the workload's worker count: outcomes, recorder counts,
  // and every run the pool executed (counted through the generator).
  std::atomic<uint64_t> executed{0};
  uint64_t consumed = 0, lost = 0, quarantined = 0, retries = 0, failed = 0;
  std::vector<Outcome> real;
  double untraced_s = 0.0;
  for (size_t i = 0; i < diagnoses.size(); ++i) {
    const Diagnosis& diagnosis = diagnoses[i];
    PinToCpu(i);
    Diagnosis counted = diagnosis;
    counted.generator = [&executed, inner = diagnosis.generator](uint64_t index, gist::Rng& rng) {
      executed.fetch_add(1, std::memory_order_relaxed);
      return inner(index, rng);
    };
    gist::FlightRecorder recorder;
    const Clock::time_point start = Clock::now();
    const gist::FleetResult result = RunFleet(counted, pool, &recorder);
    untraced_s += SecondsSince(start);
    const gist::MetricsRegistry& m = recorder.metrics();
    consumed += m.counter("fleet.runs.probes") + m.counter("fleet.runs.consumed");
    lost += m.counter("fleet.runs.lost");
    quarantined += m.counter("fleet.runs.quarantined");
    retries += m.counter("fleet.retries");
    real.push_back(Grade(diagnosis, result));
    failed += real.back().ok() ? 0 : 1;
  }
  for (size_t k = 0; k < warmup.outcomes.size(); ++k) {
    if (warmup.outcomes[k].canonical != real[k * kWarmupStride].canonical) {
      ++failed;
      std::fprintf(stderr, "error: %s: recorder-attached fleet differs from the plain one\n",
                   diagnoses[k * kWarmupStride].name.c_str());
    }
  }

  // Traced pass, sequential with batch 1.
  LayerTally total;
  uint64_t mismatches = 0;
  std::printf("%-24s %-34s %5s %7s %10s %10s\n", "diagnosis", "family", "recur", "builds",
              "sketch.s", "client.s");
  for (size_t i = 0; i < diagnoses.size(); ++i) {
    PinToCpu(i);
    LayerTally tally;
    const gist::FleetResult result = TraceDiagnosis(diagnoses[i], &tally);
    total.Add(tally);
    if (Canonical(diagnoses[i], result) != real[i].canonical) {
      ++mismatches;
      std::fprintf(stderr, "TRACE MISMATCH on %s:\n  traced   %s\n  untraced %s\n",
                   diagnoses[i].name.c_str(), Canonical(diagnoses[i], result).c_str(),
                   real[i].canonical.c_str());
    }
    std::printf("%-24s %-34s %5u %7llu %10.6f %10.6f\n", diagnoses[i].name.c_str(),
                diagnoses[i].family.c_str(), result.failure_recurrences,
                static_cast<unsigned long long>(tally.sketch_builds), tally.sketch_s,
                tally.client_run_s);
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "WARNING: per-layer output INVALID: %llu traced diagnoses differ from the "
                 "real fleet\n",
                 static_cast<unsigned long long>(mismatches));
  }

  const double self_s = total.total_s - total.LayerSeconds();
  std::printf("traced %.3f s = layers %.3f s + fleet self %.3f s; untraced %.3f s\n",
              total.total_s, total.LayerSeconds(), self_s, untraced_s);
  const std::pair<const char*, double> shares[] = {
      {"sketch", total.sketch_s},          {"client.run", total.client_run_s},
      {"vm.probe", total.probe_s},         {"ingest", total.ingest_s},
      {"wire", total.wire_s},              {"faults", total.faults_s},
      {"cfg.server_init", total.server_init_s},
      {"analysis.report_failure", total.report_failure_s},
      {"instrumentation.replan", total.replan_s},
      {"fleet.self", self_s}};
  for (const auto& [layer, seconds] : shares) {
    std::printf("  %-26s %9.4f s %6.2f%%\n", layer, seconds, 100.0 * seconds / total.total_s);
  }
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const uint64_t exec = executed.load();
  const size_t n = diagnoses.size();
  const std::vector<Metric> metrics = {
      {"sketch.s", total.sketch_s, "s", n},
      {"sketch.builds", static_cast<double>(total.sketch_builds), "count", n},
      {"sketch.traces_scanned", static_cast<double>(total.traces_scanned), "count", n},
      {"sketch.s_per_build",
       total.sketch_builds == 0 ? 0.0 : total.sketch_s / static_cast<double>(total.sketch_builds),
       "s", static_cast<size_t>(total.sketch_builds)},
      {"ingest.s", total.ingest_s, "s", n},
      {"ingest.uploads", static_cast<double>(total.uploads), "count", n},
      {"ingest.accepted", static_cast<double>(total.accepted), "count", n},
      {"ingest.quarantined", static_cast<double>(total.quarantined), "count", n},
      {"ingest.pt_bytes_decoded", static_cast<double>(total.pt_bytes_decoded), "bytes", n},
      {"server.retained_pt_bytes", static_cast<double>(total.retained_pt_bytes), "bytes", n},
      {"client.run_s", total.client_run_s, "s", n},
      {"client.runs", static_cast<double>(total.client_runs), "count", n},
      {"client.instrs_retired", static_cast<double>(total.instrs_retired), "count", n},
      {"client.pt_bytes_encoded", static_cast<double>(total.pt_bytes_encoded), "bytes", n},
      {"client.watch_traps", static_cast<double>(total.watch_traps), "count", n},
      {"vm.probe_s", total.probe_s, "s", n},
      {"vm.probes", static_cast<double>(total.probes), "count", n},
      {"cfg.server_init_s", total.server_init_s, "s", n},
      {"analysis.report_failure_s", total.report_failure_s, "s", n},
      {"instrumentation.replan_s", total.replan_s, "s", n},
      {"instrumentation.replans", static_cast<double>(total.replans), "count", n},
      {"faults.s", total.faults_s, "s", n},
      {"wire.s", total.wire_s, "s", n},
      {"wire.bytes", static_cast<double>(total.wire_bytes), "bytes", n},
      {"wire.chunks", static_cast<double>(total.wire_chunks), "count", n},
      {"fleet.runs_executed", static_cast<double>(exec), "count", n},
      {"fleet.runs_consumed", static_cast<double>(consumed), "count", n},
      {"fleet.run_yield", ratio(consumed, exec), "ratio", n},
      {"fleet.lost", static_cast<double>(lost), "count", n},
      {"fleet.quarantined", static_cast<double>(quarantined), "count", n},
      {"fleet.retries", static_cast<double>(retries), "count", n},
      {"fleet.self_s", self_s, "s", n},
      {"setup.s", setup_s, "s", kSetupRepeats},
      {"trace.overhead_s", total.total_s - untraced_s, "s", n},
      {"trace.mismatches", static_cast<double>(mismatches), "count", n},
  };
  PrintResult(failed == 0, n, failed, metrics);
  return failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gist_perfbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // The batch-recompute shadow mode doubles sketch work; keep it off.
  unsetenv("GIST_STATS_SHADOW");
  gist::SetLogLevel(gist::LogLevel::kError);
  return args.trace == 0 ? RunEndToEnd(*spec, args) : RunTraced(*spec, args);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
