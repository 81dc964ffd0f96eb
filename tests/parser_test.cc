#include <gtest/gtest.h>

#include "src/ir/parser.h"
#include "src/ir/verifier.h"
#include "src/support/rng.h"

namespace gist {
namespace {

constexpr const char* kCounterProgram = R"(
; two threads increment a shared counter without locking
global counter 1 0

func worker(1) {
entry:
  r1 = addrof counter
  r2 = load r1
  r3 = const 1
  r4 = add r2, r3
  store r1, r4
  ret
}

func main() {
entry:
  r0 = const 0
  r1 = spawn @worker(r0)
  r2 = spawn @worker(r0)
  join r1
  join r2
  r3 = addrof counter
  r4 = load r3
  print r4
  ret
}
)";

TEST(ParserTest, ParsesCounterProgram) {
  auto module = ParseModule(kCounterProgram);
  ASSERT_TRUE(module.ok()) << module.error().message();
  EXPECT_EQ((*module)->num_functions(), 2u);
  EXPECT_EQ((*module)->num_globals(), 1u);
  EXPECT_TRUE(VerifyModule(**module).ok());
}

TEST(ParserTest, ResolvesCalleesByName) {
  auto module = ParseModule(kCounterProgram);
  ASSERT_TRUE(module.ok());
  const FunctionId worker = (*module)->FindFunction("worker");
  const FunctionId main_fn = (*module)->FindFunction("main");
  ASSERT_NE(worker, kNoFunction);
  ASSERT_NE(main_fn, kNoFunction);
  // main's first spawn targets worker.
  bool found_spawn = false;
  const Function& f = (*module)->function(main_fn);
  for (const Instruction& instr : f.block(0).instructions()) {
    if (instr.op == Opcode::kThreadCreate) {
      EXPECT_EQ(instr.callee, worker);
      found_spawn = true;
    }
  }
  EXPECT_TRUE(found_spawn);
}

TEST(ParserTest, ParsesBranchesAndLabels) {
  auto module = ParseModule(R"(
func main() {
entry:
  r0 = input 0
  br r0, ^then, ^else
then:
  r1 = const 1
  print r1
  jmp ^exit
else:
  r2 = const 2
  print r2
  jmp ^exit
exit:
  ret
}
)");
  ASSERT_TRUE(module.ok()) << module.error().message();
  const Function& f = (*module)->function(0);
  EXPECT_EQ(f.num_blocks(), 4u);
  const Instruction& br = f.block(0).terminator();
  EXPECT_EQ(br.op, Opcode::kBr);
  EXPECT_EQ(br.target0, f.FindBlock("then"));
  EXPECT_EQ(br.target1, f.FindBlock("else"));
}

TEST(ParserTest, ParsesAllMnemonics) {
  auto module = ParseModule(R"(
global g 4 7
func helper(1) {
entry:
  ret r0
}
func main() {
entry:
  r0 = const -3
  r1 = move r0
  r2 = not r1
  r3 = add r0, r1
  r4 = addrof g + 2
  r5 = gep r4, r3
  r6 = alloc r2
  store r6, r0
  r7 = load r6
  free r6
  r8 = call @helper(r7)
  r9 = spawn @helper(r8)
  join r9
  lock r4
  unlock r4
  assert r8, "must hold"
  print r8
  nop
  ret
}
)");
  ASSERT_TRUE(module.ok()) << module.error().message();
  EXPECT_TRUE(VerifyModule(**module).ok());
}

TEST(ParserTest, CommentsAndBlankLinesIgnored) {
  auto module = ParseModule(R"(
; leading comment

func main() { ; trailing comment on func
entry:
  ret           ; done
}
)");
  ASSERT_TRUE(module.ok()) << module.error().message();
}

TEST(ParserTest, SourceLocRecordsLineAndText) {
  auto module = ParseModule("func main() {\nentry:\n  r0 = const 9\n  ret\n}\n");
  ASSERT_TRUE(module.ok());
  const Instruction& c = (*module)->instr(0);
  EXPECT_EQ(c.loc.line, 3u);
  EXPECT_EQ(c.loc.text, "r0 = const 9");
}

TEST(ParserTest, ErrorUnknownMnemonic) {
  auto module = ParseModule("func main() {\nentry:\n  frobnicate r0\n}\n");
  ASSERT_FALSE(module.ok());
  EXPECT_NE(module.error().message().find("line 3"), std::string::npos);
}

TEST(ParserTest, ErrorUnknownLabel) {
  auto module = ParseModule("func main() {\nentry:\n  jmp ^nowhere\n}\n");
  EXPECT_FALSE(module.ok());
}

TEST(ParserTest, ErrorUnknownCallee) {
  auto module = ParseModule("func main() {\nentry:\n  call @ghost()\n  ret\n}\n");
  EXPECT_FALSE(module.ok());
}

TEST(ParserTest, ErrorUnknownGlobal) {
  auto module = ParseModule("func main() {\nentry:\n  r0 = addrof ghost\n  ret\n}\n");
  EXPECT_FALSE(module.ok());
}

// Globals past kHeapBase would alias heap blocks: one word too many is an
// error, not a CHECK at run time, and a segment filled exactly still parses.
TEST(ParserTest, ErrorGlobalsOverrunTheHeap) {
  const std::string body = "\nfunc main() {\nentry:\n  ret\n}\n";
  const std::string full = std::to_string(kMaxGlobalWords);
  EXPECT_TRUE(ParseModule("global big " + full + " 7" + body).ok());
  EXPECT_TRUE(ParseModule("global a 1\nglobal big " + std::to_string(kMaxGlobalWords - 1) +
                          body).ok());

  auto module = ParseModule("global big " + std::to_string(kMaxGlobalWords + 1) + " 7" + body);
  ASSERT_FALSE(module.ok());
  EXPECT_NE(module.error().message().find("overruns the globals segment"), std::string::npos)
      << module.error().message();
  EXPECT_FALSE(ParseModule("global a 1\nglobal big " + full + body).ok());
  // Sizes that would wrap a running sum.
  EXPECT_FALSE(ParseModule("global a 2\nglobal b 9223372036854775807" + body).ok());
}

TEST(ParserTest, ErrorDuplicateFunction) {
  auto module = ParseModule("func f() {\nentry:\n  ret\n}\nfunc f() {\nentry:\n  ret\n}\n");
  EXPECT_FALSE(module.ok());
}

TEST(ParserTest, ErrorInstructionOutsideFunction) {
  auto module = ParseModule("r0 = const 1\n");
  EXPECT_FALSE(module.ok());
}

TEST(ParserTest, ErrorUnterminatedFunction) {
  auto module = ParseModule("func main() {\nentry:\n  ret\n");
  EXPECT_FALSE(module.ok());
}

TEST(ParserTest, RoundTripThroughPrinter) {
  auto module = ParseModule(kCounterProgram);
  ASSERT_TRUE(module.ok());
  const std::string printed = (*module)->ToString();
  auto reparsed = ParseModule(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message() << "\n" << printed;
  EXPECT_EQ((*reparsed)->num_functions(), (*module)->num_functions());
  EXPECT_EQ((*reparsed)->num_instructions(), (*module)->num_instructions());
  // Printing the reparsed module must be a fixpoint.
  EXPECT_EQ((*reparsed)->ToString(), printed);
}

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  // The parser must reject arbitrary garbage with an error, never crash.
  Rng rng(31337);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const size_t length = rng.NextBelow(200);
    for (size_t i = 0; i < length; ++i) {
      text.push_back(static_cast<char>(32 + rng.NextBelow(95)));
    }
    auto module = ParseModule(text);
    (void)module;
  }
  SUCCEED();
}

TEST(ParserFuzzTest, MutatedValidProgramsNeverCrash) {
  const std::string valid = R"(
global counter 1 0
func worker(1) {
entry:
  r1 = addrof counter
  r2 = load r1
  store r1, r2
  ret
}
func main() {
entry:
  r0 = const 0
  r1 = spawn @worker(r0)
  join r1
  ret
}
)";
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    const int edits = 1 + static_cast<int>(rng.NextBelow(5));
    for (int i = 0; i < edits; ++i) {
      mutated[rng.NextBelow(mutated.size())] = static_cast<char>(32 + rng.NextBelow(95));
    }
    auto module = ParseModule(mutated);
    if (module.ok()) {
      // Whatever parsed must verify (ParseModule runs the verifier).
      EXPECT_TRUE(VerifyModule(**module).ok());
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace gist
