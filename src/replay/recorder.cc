#include "src/replay/recorder.h"

namespace gist {

void Recorder::OnContextSwitch(CoreId /*core*/, ThreadId prev, ThreadId next,
                               FunctionId /*next_function*/, BlockId /*next_block*/,
                               uint32_t /*next_index*/) {
  RecordEvent event;
  event.kind = RecordEventKind::kContextSwitch;
  event.tid = next;
  event.value = prev == kNoThread ? -1 : static_cast<Word>(prev);
  log_.push_back(event);
}

void Recorder::OnBranch(ThreadId tid, CoreId /*core*/, InstrId instr, bool taken) {
  RecordEvent event;
  event.kind = RecordEventKind::kBranch;
  event.tid = tid;
  event.instr = instr;
  event.flag = taken;
  log_.push_back(event);
}

void Recorder::OnMemAccess(const MemAccessEvent& access) {
  RecordEvent event;
  event.kind = RecordEventKind::kMemAccess;
  event.tid = access.tid;
  event.instr = access.instr;
  event.addr = access.addr;
  event.value = access.value;
  event.flag = access.is_write;
  log_.push_back(event);
  ++mem_accesses_;
}

void Recorder::OnInstrRetired(ThreadId tid, CoreId /*core*/, InstrId instr) {
  RecordEvent event;
  event.kind = RecordEventKind::kInstr;
  event.tid = tid;
  event.instr = instr;
  log_.push_back(event);
  ++instructions_;
}

void Recorder::OnThreadStart(ThreadId tid) {
  RecordEvent event;
  event.kind = RecordEventKind::kThreadStart;
  event.tid = tid;
  log_.push_back(event);
}

void Recorder::OnThreadExit(ThreadId tid) {
  RecordEvent event;
  event.kind = RecordEventKind::kThreadExit;
  event.tid = tid;
  log_.push_back(event);
}

namespace {

bool EventsEqual(const RecordEvent& a, const RecordEvent& b) {
  return a.kind == b.kind && a.tid == b.tid && a.instr == b.instr && a.addr == b.addr &&
         a.value == b.value && a.flag == b.flag;
}

}  // namespace

Recording RecordRun(const Module& module, const Workload& workload, uint64_t max_steps) {
  Recorder recorder;
  VmOptions options;
  options.max_steps = max_steps;
  options.observers = {&recorder};
  Vm vm(module, workload, options);
  Recording recording;
  recording.result = vm.Run();
  recording.log = recorder.log();
  recording.instructions = recording.result.stats.retired;
  recording.mem_accesses = recording.result.stats.mem_accesses;
  recording.branches = recording.result.stats.branches;
  return recording;
}

bool ReplayAndVerify(const Module& module, const Workload& workload, const Recording& recording,
                     uint64_t max_steps) {
  Recording replayed = RecordRun(module, workload, max_steps);
  if (replayed.log.size() != recording.log.size()) {
    return false;
  }
  for (size_t i = 0; i < recording.log.size(); ++i) {
    if (!EventsEqual(replayed.log[i], recording.log[i])) {
      return false;
    }
  }
  return replayed.result.ok() == recording.result.ok() &&
         replayed.result.outputs == recording.result.outputs;
}

SwPtStats SimulateSoftwarePt(const Module& module, const Workload& workload,
                             uint64_t max_steps) {
  VmOptions options;
  options.max_steps = max_steps;
  Vm vm(module, workload, options);
  const RunStats stats = vm.Run().stats;
  return SwPtStats{stats.retired, stats.branches};
}

}  // namespace gist
