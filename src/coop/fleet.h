// Cooperative fleet simulation (paper §3, Fig. 2: "multiple instances of the
// same software execute in a data center or in multiple users' machines").
//
// The fleet drives the full Gist loop for one bug:
//   1. production runs execute uninstrumented until the target failure first
//      manifests; its report seeds the server (static slice, initial plan);
//   2. each AsT iteration ships the current instrumentation to the clients,
//      collects run traces (failing and successful), and builds a sketch;
//   3. a developer-supplied root-cause check decides whether to stop or to
//      double σ and keep monitoring.
//
// Execution engine (DESIGN.md §6): each iteration freezes the server's plan
// into an immutable PlanSnapshot, and an ordered stream on a ThreadPool
// (`FleetOptions::jobs` workers) executes monitored runs ahead of the
// coordinator thread, which merges them into the server one at a time in
// run-index order. A replan, an iteration end or the first failure cancels
// the runs executed ahead. Every production run draws its workload from its
// own generator, seeded by DeriveSeed(fleet_seed, run_index), so a fleet's
// FleetResult is bit-identical no matter how many workers execute it —
// parallelism is a pure throughput knob.
//
// When the monitored slice needs more watchpoints than the 4 available, the
// snapshot rotates watch subsets across clients (the cooperative strategy of
// §3.2.3) so all addresses are covered collectively.
//
// Latency accounting mirrors Table 1: the simulated wall-clock to the final
// sketch is dominated by waiting for failure recurrences; runs are spaced by
// a configurable production pacing.

#ifndef GIST_SRC_COOP_FLEET_H_
#define GIST_SRC_COOP_FLEET_H_

#include <functional>
#include <vector>

#include "src/core/gist.h"
#include "src/faultsim/faultsim.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"

namespace gist {

class CampaignTracker;
struct CampaignIterationSample;
class FlightRecorder;
class HotPathProfiler;

// Produces the workload of production run `run_index`. The fleet hands every
// run a private generator seeded by DeriveSeed(fleet_seed, run_index);
// generators must consume randomness only from `rng` so runs stay
// independent of execution order.
using WorkloadGenerator = std::function<Workload(uint64_t run_index, Rng& rng)>;

// Developer stand-in: does this sketch expose the root cause?
using RootCauseCheck = std::function<bool(const FailureSketch&)>;

struct FleetOptions {
  GistOptions gist;
  // Hard cap of monitored production runs per AsT iteration. An iteration
  // normally ends much earlier: as soon as it has gathered
  // `min_matching_failures` new recurrences of the target failure and
  // `min_successful_runs` successful runs — once the sketch still lacks the
  // root cause with that data, more runs at the same σ add nothing and the
  // window must grow instead. This early exit is what keeps the paper's
  // recurrence counts in the 2–5 range; the cap only matters when the
  // failure is very rare ("the once every 24 hours bugs").
  uint32_t runs_per_iteration = 400;
  uint32_t max_iterations = 10;
  uint32_t min_matching_failures = 1;
  uint32_t min_successful_runs = 8;
  // Scrub data values and failure messages from shipped traces (paper §6's
  // privacy discussion; see src/coop/privacy.h for exactly what survives).
  bool anonymize_traces = false;
  uint32_t max_first_failure_runs = 2000;  // budget to catch the first failure
  uint64_t fleet_seed = 1;
  double clock_ghz = 2.4;                 // converts instruction counts to time
  double mean_run_spacing_seconds = 2.0;  // production pacing between runs
  uint64_t max_steps_per_run = 2'000'000;
  // Worker threads executing monitored runs (0 = hardware concurrency).
  // Results are identical for every value; only wall-clock changes.
  uint32_t jobs = 1;
  // Optional caller-owned worker pool. When set, Run() fans out on it instead
  // of constructing a pool of `jobs` threads per call — corpus sweeps
  // (src/corpus) run hundreds of fleets back to back, and spawning/joining a
  // fresh pool per program dominated small-program sweeps. The pool's size
  // plays the role of `jobs`; as with `jobs`, every FleetResult byte is
  // identical for any pool size. Must outlive Run().
  ThreadPool* shared_pool = nullptr;
  // Deterministic fault injection over monitored runs (DESIGN.md §8). Each
  // monitored run's FaultPlan derives from (faults, fleet_seed, run_index),
  // so an injected fleet stays bit-identical at every `jobs`. Disabled (the
  // default), the fleet behaves byte-for-byte as if this field didn't exist.
  // Phase 1 — production before the first failure — is never faulted.
  FaultOptions faults;
  // Optional flight recorder (DESIGN.md §9). The fleet advances its virtual
  // clock and publishes per-run metrics on the coordinator thread, in
  // run-index order over the CONSUMED runs only — runs executed ahead and
  // then cancelled never touch it — so the recorder's metrics snapshot and
  // span trace are bit-identical for every `jobs`, like the FleetResult.
  // Null (the default) records nothing and costs nothing.
  FlightRecorder* recorder = nullptr;
  // Optional hot-path profiler (DESIGN.md §10). When set, every run — phase-1
  // probe or monitored, healthy or degraded — collects a BlockProfile shard,
  // and the coordinator folds the CONSUMED prefix into the profiler in
  // run-index order, the recorder discipline above: the aggregated profile is
  // bit-identical for every `jobs`, faults on or off. The fleet attaches the
  // profiler to the server's decoded module on Run() entry unless the caller
  // attached it already. Null (the default) profiles nothing and keeps the
  // interpreter's profiling increments compiled out of the hot path.
  HotPathProfiler* profiler = nullptr;
  // Optional campaign tracker (DESIGN.md §14). The fleet advances its
  // virtual clock alongside the recorder's — consumed prefix only, on the
  // coordinator — and records one CampaignIterationSample at the end of each
  // AsT iteration (sketch statement sequence, top predictor ranking,
  // rotation coverage, survivorship). The resulting gist.campaign.v1 journal
  // is bit-identical for every `jobs` and dispatch tier (`gist.tier`: fast
  // or reference), like the recorder's exports. Null records nothing and
  // costs nothing.
  CampaignTracker* campaign = nullptr;
};

struct FleetIterationStats {
  uint32_t iteration = 0;
  uint32_t sigma = 0;
  uint32_t failing_runs = 0;
  uint32_t successful_runs = 0;
  double avg_overhead_percent = 0.0;
  bool root_cause_found = false;
  // Degradation accounting (all zero while faults are disabled).
  uint32_t lost_runs = 0;         // killed / dropped / timed out; never arrived
  uint32_t quarantined_runs = 0;  // arrived but failed PT validation
  uint32_t retries = 0;           // lost runs re-requested within the budget
  // False when so many runs were lost or quarantined that fewer than
  // `FaultOptions::quorum_fraction` of the iteration's runs survived; the
  // fleet then re-monitors at the same σ instead of advancing AsT.
  bool quorum_met = true;
};

struct FleetResult {
  bool first_failure_found = false;
  bool root_cause_found = false;
  FailureReport first_failure;
  FailureSketch sketch;
  std::vector<FleetIterationStats> iterations;
  // Failing-run recurrences (after the initial report) consumed until the
  // final sketch — Table 1's "# failure recurrences".
  uint32_t failure_recurrences = 0;
  // Simulated wall-clock from first failure to final sketch — Table 1's
  // "<time>".
  double sim_seconds = 0.0;
  // Mean client-side overhead across all monitored runs (§5.3).
  double avg_overhead_percent = 0.0;
  uint32_t sigma_final = 0;
  // Degradation totals across all iterations (zero while faults are
  // disabled).
  uint32_t lost_runs = 0;
  uint32_t quarantined_runs = 0;
  uint32_t retries = 0;
};

class Fleet {
 public:
  Fleet(const Module& module, WorkloadGenerator generator, FleetOptions options);

  // Runs the full loop; `root_cause_check` plays the developer.
  FleetResult Run(const RootCauseCheck& root_cause_check);

  const GistServer& server() const { return server_; }

 private:
  struct ClientRun;  // one production run as the coordinator receives it

  // Phase 1: uninstrumented production until the target failure first
  // manifests. Probes run ahead on the stream; the coordinator takes them in
  // index order, so the earliest failing run index wins deterministically.
  // Returns the next unconsumed run index via `next_run_index`.
  void FindFirstFailure(OrderedStream<ClientRun>& stream, FleetResult* result,
                        uint64_t* next_run_index);

  // Monitored run `index` (client `client` of its iteration) under
  // `snapshot`, delivered: faults applied, shipped over the wire and
  // deserialized. Touches no server state, so runs execute on any thread.
  ClientRun RunClient(const PlanSnapshot& snapshot, uint64_t client, uint64_t index,
                      const GistOptions& gist_options) const;

  // The workload of production run `run_index` (its private rng stream).
  Workload WorkloadFor(uint64_t run_index) const;

  // Simulated production spacing before run `run_index`, drawn from a pacing
  // stream independent of the workload stream.
  double PacingSecondsFor(uint64_t run_index) const;

  const Module& module_;
  WorkloadGenerator generator_;
  FleetOptions options_;
  GistServer server_;
};

// Fills the campaign-sample fields the server determines (DESIGN.md §14):
// recurrences and the slice and window gauges of its GistCampaignState, the
// plan's watched-statement count, the statements of `sketch` in step order
// (none when null) and the top CampaignTracker::kRankWindow predictors.
// Iteration numbering, clocks and run tallies stay with the caller.
void FillCampaignSample(const GistServer& server, const FailureSketch* sketch,
                        CampaignIterationSample* sample);

}  // namespace gist

#endif  // GIST_SRC_COOP_FLEET_H_
