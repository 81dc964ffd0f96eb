#include "inputs.h"

#include <utility>

#include "src/corpus/manifest.h"
#include "src/support/rng.h"

namespace perfbench {
namespace {

// Every knob of the pipeline a workload runs under, spelled out. These match
// the values the paper benches used when this benchmark was defined; a later
// change to a library default does not move them.
gist::FleetOptions PinnedFleetOptions(const WorkloadSpec& spec, uint64_t fleet_seed) {
  gist::FleetOptions options;
  options.gist.initial_sigma = 2;
  options.gist.ast_growth = gist::AstGrowth::kMultiplicative;
  options.gist.beta = 0.5;
  options.gist.num_cores = 4;
  options.gist.pt_buffer_bytes = 2 * 1024 * 1024;
  options.gist.watchpoint_slots = 4;
  options.gist.collect_profile = false;
  options.gist.store = nullptr;
  options.gist.tier = gist::ExecTier::kFast;
  options.gist.stats_shadow = false;
  options.runs_per_iteration = 400;
  options.max_iterations = 8;
  options.min_matching_failures = 1;
  options.min_successful_runs = 8;
  options.anonymize_traces = false;
  options.max_first_failure_runs = 2000;
  options.fleet_seed = fleet_seed;
  options.clock_ghz = 2.4;
  options.mean_run_spacing_seconds = 2.0;
  options.max_steps_per_run = 2'000'000;
  options.jobs = spec.workers;
  options.faults = spec.faults;
  return options;
}

// Moderate production attrition with every fault class firing and a small
// wire MTU, so uploads really travel as several chunks.
gist::FaultOptions ChaosFaults() {
  gist::FaultOptions faults;
  faults.enabled = true;
  faults.kill_permille = 40;
  faults.truncate_pt_permille = 30;
  faults.corrupt_pt_permille = 30;
  faults.drop_wire_permille = 30;
  faults.reorder_wire_permille = 150;
  faults.exhaust_watchpoints_permille = 40;
  faults.delay_result_permille = 50;
  faults.min_kill_steps = 1'000;
  faults.max_kill_steps = 200'000;
  faults.max_result_delay_seconds = 30.0;
  faults.result_timeout_seconds = 10.0;
  faults.retry_budget_per_iteration = 32;
  faults.retry_backoff_seconds = 1.0;
  faults.quorum_fraction = 0.5;
  faults.wire_mtu_bytes = 512;
  return faults;
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> specs(3);

  specs[0].name = "corpus";
  specs[0].corpus = true;
  specs[0].population_seed = 2015;
  specs[0].programs = 105;
  specs[0].workers = 1;

  specs[1].name = "apps_prod";
  specs[1].population_seed = 2015;
  specs[1].fleets_per_app = 10;
  specs[1].work_scale = 2000;
  specs[1].workers = 1;

  specs[2].name = "corpus_chaos_w4";
  specs[2].corpus = true;
  specs[2].population_seed = 2015;
  specs[2].programs = 105;
  specs[2].workers = 4;
  specs[2].faults = ChaosFaults();
  return specs;
}

// Builds the workload's fixed population of diagnoses.
void BuildPopulation(const WorkloadSpec& spec, WorkloadInputs* inputs) {
  const uint64_t seed = spec.population_seed;
  if (spec.corpus) {
    gist::CorpusOptions corpus;
    corpus.seed = seed;
    corpus.count = spec.programs;
    inputs->programs = gist::GenerateCorpus(corpus);
    for (const gist::GeneratedProgram& program : inputs->programs) {
      const gist::CorpusManifest& manifest = program.manifest;
      Diagnosis diagnosis;
      diagnosis.name = manifest.name;
      diagnosis.family = gist::BugFamilyName(manifest.family);
      diagnosis.module = program.module.get();
      diagnosis.generator = [&manifest](uint64_t run_index, gist::Rng& rng) {
        return gist::CorpusWorkload(manifest, run_index, rng);
      };
      diagnosis.options = PinnedFleetOptions(spec, gist::DeriveSeed(seed, program.index));
      diagnosis.options.gist.title = manifest.name;
      diagnosis.root_cause = manifest.root_cause;
      diagnosis.ideal = &manifest.ideal;
      diagnosis.exact_failure = true;
      diagnosis.failure_type = manifest.failure_type;
      diagnosis.failing_instr = manifest.failing_instr;
      inputs->diagnoses.push_back(std::move(diagnosis));
    }
    return;
  }

  // Each diagnosis gets its own app instance, as independent campaigns on
  // separate servers would; app-major order, fleet seeds in a row.
  for (uint32_t r = 0; r < spec.fleets_per_app; ++r) {
    for (std::unique_ptr<gist::BugApp>& app : gist::MakeAllApps()) {
      inputs->apps.push_back(std::move(app));
    }
  }
  const size_t app_count = inputs->apps.size() / spec.fleets_per_app;
  for (size_t a = 0; a < app_count; ++a) {
    for (uint32_t r = 0; r < spec.fleets_per_app; ++r) {
      const gist::BugApp* app = inputs->apps[r * app_count + a].get();
      const gist::Word scale = spec.work_scale;
      Diagnosis diagnosis;
      diagnosis.name = app->info().name + "#" + std::to_string(r);
      diagnosis.family = app->info().kind;
      diagnosis.module = &app->module();
      diagnosis.generator = [app, scale](uint64_t run_index, gist::Rng& rng) {
        gist::Workload workload = app->MakeWorkload(run_index, rng);
        if (scale != 0 && workload.inputs.size() > gist::kWorkScaleInput) {
          workload.inputs[gist::kWorkScaleInput] = scale;
        }
        return workload;
      };
      diagnosis.options =
          PinnedFleetOptions(spec, gist::DeriveSeed(seed, a * spec.fleets_per_app + r));
      diagnosis.options.gist.title = app->info().name;
      diagnosis.root_cause = app->root_cause_instrs();
      diagnosis.ideal = &app->ideal_sketch();
      inputs->diagnoses.push_back(std::move(diagnosis));
    }
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> specs = MakeWorkloads();
  for (const WorkloadSpec& spec : specs) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::unique_ptr<WorkloadInputs> BuildInputs(const WorkloadSpec& spec, uint64_t seed) {
  auto inputs = std::make_unique<WorkloadInputs>();
  BuildPopulation(spec, inputs.get());
  // Fisher-Yates over the run order.
  std::vector<Diagnosis>& diagnoses = inputs->diagnoses;
  gist::Rng rng(seed);
  for (size_t i = diagnoses.size(); i > 1; --i) {
    std::swap(diagnoses[i - 1], diagnoses[rng.NextBelow(i)]);
  }
  return inputs;
}

}  // namespace perfbench
