// Full software record/replay baseline (the paper's Mozilla-rr comparison,
// Fig. 13) and the software PT simulator (the PIN-based simulator of §4/§6).
//
// The recorder logs complete control flow AND data flow of a run — every
// retired instruction, branch outcome, memory access with value, context
// switch, and thread event — enough to replay the execution deterministically
// (Replay() re-runs the VM and verifies the log matches). This is what a
// software record/replay system must capture, and why its overhead is orders
// of magnitude above hardware tracing: per-event instrumented callbacks
// instead of a hardware-compressed branch stream.

#ifndef GIST_SRC_REPLAY_RECORDER_H_
#define GIST_SRC_REPLAY_RECORDER_H_

#include <vector>

#include "src/ir/module.h"
#include "src/vm/vm.h"

namespace gist {

enum class RecordEventKind : uint8_t {
  kInstr,
  kBranch,
  kMemAccess,
  kContextSwitch,
  kThreadStart,
  kThreadExit,
};

struct RecordEvent {
  RecordEventKind kind;
  ThreadId tid = kNoThread;
  InstrId instr = kNoInstr;
  Addr addr = kNullAddr;
  Word value = 0;
  bool flag = false;  // branch taken / access is-write
};

class Recorder : public ExecutionObserver {
 public:
  // The recorder needs every event, in the exact interleaved order the run
  // produced it — its log is a single stream where a retired instruction and
  // the access it performed must stay adjacent.
  uint32_t SubscribedEvents() const override { return kEvAll; }
  void OnContextSwitch(CoreId core, ThreadId prev, ThreadId next, FunctionId next_function,
                       BlockId next_block, uint32_t next_index) override;
  void OnBranch(ThreadId tid, CoreId core, InstrId instr, bool taken) override;
  void OnMemAccess(const MemAccessEvent& event) override;
  void OnInstrRetired(ThreadId tid, CoreId core, InstrId instr) override;
  void OnThreadStart(ThreadId tid) override;
  void OnThreadExit(ThreadId tid) override;

  const std::vector<RecordEvent>& log() const { return log_; }
  uint64_t recorded_instructions() const { return instructions_; }
  uint64_t recorded_mem_accesses() const { return mem_accesses_; }
  // Log size in bytes (record/replay systems persist this).
  uint64_t log_bytes() const { return log_.size() * sizeof(RecordEvent); }

 private:
  std::vector<RecordEvent> log_;
  uint64_t instructions_ = 0;
  uint64_t mem_accesses_ = 0;
};

// Records `workload` on `module`; returns the recorder's log plus run result.
struct Recording {
  RunResult result;
  std::vector<RecordEvent> log;
  uint64_t instructions = 0;
  uint64_t mem_accesses = 0;
  uint64_t branches = 0;
};

Recording RecordRun(const Module& module, const Workload& workload,
                    uint64_t max_steps = 2'000'000);

// Replays a recording: re-executes the workload and verifies the event log
// matches exactly. Returns true iff the replayed execution is identical —
// the determinism guarantee a record/replay debugger sells.
bool ReplayAndVerify(const Module& module, const Workload& workload, const Recording& recording,
                     uint64_t max_steps = 2'000'000);

// Software PT simulator (PIN stand-in): counts what software-only control
// flow tracing would instrument. Produces the §6 overhead comparison inputs.
struct SwPtStats {
  uint64_t instructions = 0;
  uint64_t branches = 0;
};

SwPtStats SimulateSoftwarePt(const Module& module, const Workload& workload,
                             uint64_t max_steps = 2'000'000);

}  // namespace gist

#endif  // GIST_SRC_REPLAY_RECORDER_H_
