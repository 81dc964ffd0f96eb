// Pinned workload definitions and the per-diagnosis inputs they expand to.
//
// Everything a workload feeds the pipeline is written out here as literals —
// its population of diagnoses (corpus seed or apps, fleet seeds), fleet
// options, fault regime, work scale, worker count, execution tier — so a
// change under src/ cannot silently change what a workload measures.
//
// The population is fixed per workload; the command-line seed only orders
// it. A diagnosis's cost is dominated by how many failure recurrences its
// fleet happens to need (the sketch is rebuilt per recurrence, so cost grows
// with their square), and that count is heavy-tailed: re-drawing the
// programs or fleet seeds per run moves the cost of a 98-program corpus by
// ~30% between seeds, and ~1,500 programs per run would be needed to bring
// that under 8%. Ordering by seed keeps runs comparable while still varying
// what each diagnosis runs after (allocator and cache state).

#ifndef GIST_PERFBENCH_INPUTS_H_
#define GIST_PERFBENCH_INPUTS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/corpus/corpus.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool corpus = false;           // generated corpus (else the Table 1 apps)
  uint64_t population_seed = 0;  // corpus seed and fleet-seed base
  uint32_t programs = 0;         // corpus: programs generated
  uint32_t fleets_per_app = 0;   // apps: fleet seeds per app
  gist::Word work_scale = 0;     // apps: pinned work-scale input (0 = app's own)
  uint32_t workers = 1;          // fleet worker threads (one shared pool)
  gist::FaultOptions faults;     // disabled unless the workload injects faults
};

// The pinned definition of `name`, or nullptr when there is none.
const WorkloadSpec* FindWorkload(const std::string& name);

// One diagnosis: a fleet over one module with its production workload
// generator, pinned options, and the ground truth its outcome is checked
// against.
struct Diagnosis {
  std::string name;
  std::string family;
  const gist::Module* module = nullptr;
  gist::WorkloadGenerator generator;
  gist::FleetOptions options;  // shared_pool and recorder are set per pass
  std::vector<gist::InstrId> root_cause;
  const gist::IdealSketch* ideal = nullptr;
  // Corpus manifests pin the failure exactly. Apps have no manifest PC; the
  // final sketch must instead explain the first reported failure.
  bool exact_failure = false;
  gist::FailureType failure_type = gist::FailureType::kNone;
  gist::InstrId failing_instr = gist::kNoInstr;
};

// Owns the generated programs / built apps the diagnoses point into.
struct WorkloadInputs {
  std::vector<gist::GeneratedProgram> programs;
  std::vector<std::unique_ptr<gist::BugApp>> apps;
  std::vector<Diagnosis> diagnoses;
};

// Generates or builds every input of `spec`, then orders the diagnoses by
// a permutation drawn from `seed`. Pure in (spec, seed).
std::unique_ptr<WorkloadInputs> BuildInputs(const WorkloadSpec& spec, uint64_t seed);

}  // namespace perfbench

#endif  // GIST_PERFBENCH_INPUTS_H_
