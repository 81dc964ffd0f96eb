// Corpus-scale accuracy scoring (DESIGN.md §13): run the full
// slice → instrument → trace → statistics → sketch pipeline over every
// generated program and grade each final sketch against its ground-truth
// manifest. One ProgramScore per program, aggregated into Fig. 9-style
// accuracy buckets plus per-family rates; the report serializes to
// byte-deterministic gist.corpusscore.v1 JSON — identical for any --jobs and
// any execution tier, because every per-program fleet is itself
// bit-identical under those knobs.

#ifndef GIST_SRC_CORPUS_SCORE_H_
#define GIST_SRC_CORPUS_SCORE_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/accuracy.h"
#include "src/corpus/corpus.h"
#include "src/faultsim/faultsim.h"
#include "src/vm/vm.h"

namespace gist {

class FlightRecorder;
class ThreadPool;

struct CorpusScoreOptions {
  // Worker threads per program fleet (0 = hardware concurrency). Scores are
  // identical for every value; only wall-clock changes.
  uint32_t jobs = 1;
  ExecTier tier = ExecTier::kFast;
  // Deterministic fault injection applied to every program's fleet
  // (fleet_chaos-style). Scores stay bit-identical across --jobs.
  FaultOptions faults;
  // Base seed; program #i's fleet runs under DeriveSeed(fleet_seed, i).
  uint64_t fleet_seed = 2015;
  uint32_t runs_per_iteration = 400;
  uint32_t max_iterations = 8;
  // Optional flight recorder shared by every program's fleet (DESIGN.md §9).
  // ScoreCorpus scores programs sequentially in index order, so the combined
  // metrics snapshot and span trace stay bit-identical for any --jobs — this
  // is how `gist corpus run --metrics-json` observes a whole sweep.
  FlightRecorder* recorder = nullptr;
};

struct ProgramScore {
  std::string name;
  BugFamily family = BugFamily::kDataRace;
  bool manifested = false;        // the fleet caught a first failure at all
  bool failure_match = false;     // its type and PC equal the manifest's
  bool root_cause_found = false;  // final sketch contains every root_cause id
  AccuracyResult accuracy;        // §5.2 metrics vs the manifest's ideal
  double edge_recall = 0.0;       // manifest sketch_edges honored by the sketch
  uint32_t recurrences = 0;       // failure recurrences consumed (Table 1)
  double sim_seconds = 0.0;       // simulated time to the final sketch
  FailureSketch sketch;           // the final sketch itself (for rendering)
};

struct CorpusScore {
  std::vector<ProgramScore> programs;

  // Fig. 9-style buckets over overall accuracy (all programs; a program
  // whose failure never manifested scores 0 and lands in `bucket_low`).
  uint32_t bucket_a90 = 0;  // overall >= 90
  uint32_t bucket_a75 = 0;  // 75 <= overall < 90
  uint32_t bucket_a50 = 0;  // 50 <= overall < 75
  uint32_t bucket_low = 0;  // overall < 50

  // Canonical gist.corpusscore.v1 bytes (fixed-precision doubles).
  std::string ReportJson() const;

  // Flat metric map for BENCH_corpus.json: overall and per-family rates,
  // bucket fractions, and the program count.
  std::map<std::string, double> BaselineMetrics() const;
};

// Scores one program (callers normally go through ScoreCorpus). The fleet
// fans out on `shared_pool` when non-null.
ProgramScore ScoreProgram(const GeneratedProgram& program, const CorpusScoreOptions& options,
                          ThreadPool* shared_pool);

// Scores every program, sharing one worker pool across the sweep.
CorpusScore ScoreCorpus(const std::vector<GeneratedProgram>& programs,
                        const CorpusScoreOptions& options);

// --- baseline gate (tools/ci.sh, Release stage) -----------------------------

struct BaselineCheck {
  bool ok = true;
  std::vector<std::string> violations;  // human-readable, one per failed floor
};

// Floors every rate/accuracy metric against the committed baseline
// (`corpus_programs` must match exactly; everything else must be >= baseline
// minus a tolerance that only absorbs %.6g round-trip loss). A metric missing
// from the baseline is a violation — the gate is strict by construction.
BaselineCheck CheckAgainstBaseline(const CorpusScore& score,
                                   const std::map<std::string, double>& baseline);

// Moderate production attrition for corpus sweeps (the fleet_chaos regime):
// every fault class fires, well inside the 50% quorum. A faulted sweep is
// bit-identical across --jobs (corpus_score_test pins that per family), and
// every program's diagnosis verdicts must survive the attrition — only
// recurrence counts and window detail may drift from a faultless sweep.
FaultOptions CorpusChaosFaults();

// Flat {"key": number} JSON I/O for BENCH_corpus.json (same format as the
// BENCH_interp.json family). Read returns an empty map when missing.
std::map<std::string, double> ReadFlatJson(const std::string& path);
bool WriteFlatJson(const std::string& path, const std::map<std::string, double>& values);

}  // namespace gist

#endif  // GIST_SRC_CORPUS_SCORE_H_
