// Traced diagnosis runner: re-runs one diagnosis through the public facade
// (src/core/gist.h, src/coop/wire.h, src/faultsim/faultsim.h) sequentially
// with batch 1 — the same steps Fleet::Run takes with one worker — and times
// every call into a layer with a steady-clock span. Spans are summed per
// layer in memory; nothing inside src/ is instrumented.
//
// Layers and the calls their spans cover:
//   cfg.server_init      GistServer construction (TICFG + DecodedModule)
//   vm.probe             phase-1 Vm construction + Vm::Run
//   analysis.report      GistServer::ReportFailure (slice + first plan)
//   instrumentation      GistServer::Snapshot, GistServer::AdvanceAst
//   client.run           RunMonitored
//   faults               FaultPlan::ForRun, ApplyPtFaults
//   wire                 SerializeRunTrace, SplitWireMessages,
//                        DeliveredChunkOrder, ReassembleWireMessages,
//                        DeserializeRunTrace
//   ingest               GistServer::AddTrace
//   sketch               GistServer::BuildSketch
// Whatever the runner does between spans (workload generation, pacing,
// root-cause checks, bookkeeping) is the fleet's own time.

#ifndef GIST_PERFBENCH_TRACED_H_
#define GIST_PERFBENCH_TRACED_H_

#include <cstdint>

#include "inputs.h"

namespace perfbench {

struct LayerTally {
  // Seconds inside each layer's spans.
  double server_init_s = 0.0;
  double probe_s = 0.0;
  double report_failure_s = 0.0;
  double replan_s = 0.0;
  double client_run_s = 0.0;
  double faults_s = 0.0;
  double wire_s = 0.0;
  double ingest_s = 0.0;
  double sketch_s = 0.0;
  // Wall seconds of the whole traced diagnosis (spans plus fleet self time).
  double total_s = 0.0;

  uint64_t probes = 0;
  uint64_t replans = 0;  // Snapshot plus AdvanceAst calls
  uint64_t client_runs = 0;
  uint64_t instrs_retired = 0;
  uint64_t pt_bytes_encoded = 0;
  uint64_t watch_traps = 0;
  uint64_t wire_bytes = 0;
  uint64_t wire_chunks = 0;
  uint64_t uploads = 0;
  uint64_t accepted = 0;
  uint64_t quarantined = 0;
  uint64_t pt_bytes_decoded = 0;
  uint64_t sketch_builds = 0;
  uint64_t traces_scanned = 0;     // stored traces a build reads, summed
  uint64_t retained_pt_bytes = 0;  // PT bytes held by the server at the end

  // Sum of all layer spans.
  double LayerSeconds() const;
  // Accumulates `other`; retained_pt_bytes keeps the maximum.
  void Add(const LayerTally& other);
};

// Runs `diagnosis` with tracing and returns the same FleetResult a
// one-worker Fleet::Run produces; `tally` receives this diagnosis's spans
// and counts.
gist::FleetResult TraceDiagnosis(const Diagnosis& diagnosis, LayerTally* tally);

}  // namespace perfbench

#endif  // GIST_PERFBENCH_TRACED_H_
