#include <gtest/gtest.h>

#include "src/ir/parser.h"
#include "src/replay/recorder.h"

namespace gist {
namespace {

constexpr const char* kThreadedProgram = R"(
global cell 1 0
func w(1) {
entry:
  r1 = const 0
  jmp ^head
head:
  r2 = const 10
  r3 = lt r1, r2
  br r3, ^body, ^exit
body:
  r4 = addrof cell
  r5 = load r4
  r6 = add r5, r0
  store r4, r6
  r7 = const 1
  r1 = add r1, r7
  jmp ^head
exit:
  ret
}
func main() {
entry:
  r0 = const 1
  r1 = spawn @w(r0)
  r2 = const 2
  r3 = spawn @w(r2)
  join r1
  join r3
  r4 = addrof cell
  r5 = load r4
  print r5
  ret
}
)";

class ReplaySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplaySweep, RecordedRunReplaysIdentically) {
  auto module = ParseModule(kThreadedProgram);
  ASSERT_TRUE(module.ok());
  Workload workload;
  workload.schedule_seed = GetParam();
  Recording recording = RecordRun(**module, workload);
  ASSERT_TRUE(recording.result.ok());
  EXPECT_TRUE(ReplayAndVerify(**module, workload, recording));
}

TEST_P(ReplaySweep, DifferentScheduleFailsVerification) {
  auto module = ParseModule(kThreadedProgram);
  ASSERT_TRUE(module.ok());
  Workload workload;
  workload.schedule_seed = GetParam();
  Recording recording = RecordRun(**module, workload);
  Workload other = workload;
  other.schedule_seed = GetParam() + 1000;
  EXPECT_FALSE(ReplayAndVerify(**module, other, recording));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplaySweep, ::testing::Values(1, 7, 42, 999));

TEST(RecorderTest, LogCapturesCompleteControlAndDataFlow) {
  auto module = ParseModule(kThreadedProgram);
  ASSERT_TRUE(module.ok());
  Workload workload;
  workload.schedule_seed = 5;
  Recording recording = RecordRun(**module, workload);

  uint64_t instr_events = 0;
  uint64_t mem_events = 0;
  uint64_t branch_events = 0;
  for (const RecordEvent& event : recording.log) {
    switch (event.kind) {
      case RecordEventKind::kInstr:
        ++instr_events;
        break;
      case RecordEventKind::kMemAccess:
        ++mem_events;
        EXPECT_NE(event.addr, kNullAddr);
        break;
      case RecordEventKind::kBranch:
        ++branch_events;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(instr_events, recording.instructions);
  EXPECT_EQ(mem_events, recording.mem_accesses);
  EXPECT_EQ(branch_events, recording.branches);
  // Record/replay log volume dwarfs the PT packet stream: every retired
  // instruction is an entry.
  EXPECT_GT(recording.log.size(), recording.instructions);
}

TEST(RecorderTest, CapturesFailingRuns) {
  auto module = ParseModule(R"(
func main() {
entry:
  r0 = const 0
  r1 = load r0
  ret
}
)");
  ASSERT_TRUE(module.ok());
  Recording recording = RecordRun(**module, Workload{});
  ASSERT_FALSE(recording.result.ok());
  EXPECT_TRUE(ReplayAndVerify(**module, Workload{}, recording));
}

TEST(RecorderTest, ThreadEventsLogged) {
  auto module = ParseModule(kThreadedProgram);
  ASSERT_TRUE(module.ok());
  Recording recording = RecordRun(**module, Workload{});
  int starts = 0;
  int exits = 0;
  for (const RecordEvent& event : recording.log) {
    starts += event.kind == RecordEventKind::kThreadStart;
    exits += event.kind == RecordEventKind::kThreadExit;
  }
  EXPECT_EQ(starts, 2);  // two workers (main is not announced)
  EXPECT_EQ(exits, 3);   // workers + main
}

TEST(SwPtTest, CountsMatchRecordedEvents) {
  auto module = ParseModule(kThreadedProgram);
  ASSERT_TRUE(module.ok());
  Workload workload;
  workload.schedule_seed = 3;
  SwPtStats stats = SimulateSoftwarePt(**module, workload);
  Recording recording = RecordRun(**module, workload);
  EXPECT_EQ(stats.instructions, recording.instructions);
  EXPECT_EQ(stats.branches, recording.branches);
  // The counts agree with the recorder's one-event-per-call log.
  uint64_t instrs = 0;
  uint64_t branches = 0;
  uint64_t accesses = 0;
  for (const RecordEvent& event : recording.log) {
    instrs += event.kind == RecordEventKind::kInstr;
    branches += event.kind == RecordEventKind::kBranch;
    accesses += event.kind == RecordEventKind::kMemAccess;
  }
  EXPECT_EQ(recording.instructions, instrs);
  EXPECT_EQ(recording.branches, branches);
  EXPECT_EQ(recording.mem_accesses, accesses);
  EXPECT_GT(stats.branches, 0u);
  EXPECT_LT(stats.branches, stats.instructions);
}

}  // namespace
}  // namespace gist
