// Chaos corpus for the PT decoder's trust boundary (DESIGN.md §8): packet
// streams arrive from production clients over a lossy wire, so EVERY byte
// string — truncated, bit-flipped, or outright garbage — must produce either
// a clean decode or a structured PtDecodeError. Nothing here may crash,
// CHECK-abort, hang, or leak an unbounded walk. The ingest digest walk
// (DigestPt) must agree with the full decode on every one of them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ir/parser.h"
#include "src/pt/decoder.h"
#include "src/pt/tracer.h"
#include "src/support/rng.h"
#include "src/vm/vm.h"
#include "tests/summary_oracle.h"

namespace gist {
namespace {

constexpr uint32_t kCores = 2;

// A branchy multithreaded program: its always-on trace exercises PSB/PGE/
// TNT/TIP/PIP/FUP packets, so mutations hit every decoder path.
const char* kProgram = R"(
global counter 1 0
func worker(1) {
entry:
  r1 = const 0
  jmp ^loop
loop:
  r2 = lt r1, r0
  br r2, ^body, ^done
body:
  r3 = addrof counter
  r4 = load r3
  r5 = add r4, r1
  store r3, r5
  r6 = const 1
  r1 = add r1, r6
  jmp ^loop
done:
  ret
}
func main() {
entry:
  r0 = const 5
  r1 = spawn @worker(r0)
  r2 = const 3
  r3 = spawn @worker(r2)
  join r1
  join r3
  ret
}
)";

struct Corpus {
  std::unique_ptr<Module> module;
  std::vector<std::vector<uint8_t>> streams;  // one per core, all valid
};

Corpus MakeCorpus(uint64_t seed) {
  Corpus corpus;
  auto module = ParseModule(kProgram);
  EXPECT_TRUE(module.ok()) << module.error().message();
  corpus.module = std::move(*module);

  PtTracer tracer(kCores, kDefaultPtBufferBytes, /*always_on=*/true);
  VmOptions options;
  options.num_cores = kCores;
  options.observers = {&tracer};
  Workload workload;
  workload.schedule_seed = seed;
  Vm(*corpus.module, workload, options).Run();
  for (CoreId core = 0; core < kCores; ++core) {
    corpus.streams.push_back(tracer.buffer(core).bytes());
  }
  return corpus;
}

// The digest walk (DESIGN.md §16) agrees with the full decode on every
// byte string: same stats, same fault and offset, same branch outcomes.
void ExpectDigestAgrees(const Module& module, const std::vector<uint8_t>& bytes,
                        const PtDecodeResult& result, const std::string& what) {
  const PtStreamDigest digest = DigestPt(module, bytes);
  EXPECT_TRUE(digest == DigestOf(result)) << what;
}

// The decoder returned: the outcome is either clean or a well-formed error.
void ExpectStructured(const Module& module, const std::vector<uint8_t>& bytes,
                      const std::string& what) {
  const PtDecodeResult result = DecodePt(module, /*core=*/0, bytes);
  ExpectDigestAgrees(module, bytes, result, what);
  if (!result.ok()) {
    EXPECT_LE(result.error->offset, bytes.size()) << what;
    EXPECT_FALSE(result.error->message.empty()) << what;
    EXPECT_NE(std::string(PtDecodeFaultName(result.error->fault)), "") << what;
    EXPECT_NE(result.error->Format().find(PtDecodeFaultName(result.error->fault)),
              std::string::npos)
        << what;
    // The compatibility wrapper must agree and carry the formatted text.
    EXPECT_FALSE(DecodePtStream(module, 0, bytes).ok()) << what;
  } else {
    EXPECT_TRUE(DecodePtStream(module, 0, bytes).ok()) << what;
  }
}

TEST(PtMalformedTest, EveryTruncationIsCleanOrStructured) {
  const Corpus corpus = MakeCorpus(17);
  for (const std::vector<uint8_t>& stream : corpus.streams) {
    ASSERT_FALSE(stream.empty());
    for (size_t cut = 0; cut < stream.size(); ++cut) {
      const std::vector<uint8_t> prefix(stream.begin(),
                                        stream.begin() + static_cast<long>(cut));
      ExpectStructured(*corpus.module, prefix, "prefix " + std::to_string(cut));
    }
  }
}

TEST(PtMalformedTest, BitFlipCorpusNeverAborts) {
  const Corpus corpus = MakeCorpus(23);
  Rng rng(2026);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes = corpus.streams[trial % corpus.streams.size()];
    if (bytes.empty()) {
      continue;
    }
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < flips; ++i) {
      bytes[rng.NextBelow(bytes.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    ExpectStructured(*corpus.module, bytes, "trial " + std::to_string(trial));
  }
}

TEST(PtMalformedTest, GarbageStreamsNeverAbort) {
  const Corpus corpus = MakeCorpus(29);
  Rng rng(4052);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(rng.NextBelow(257));
    for (uint8_t& byte : bytes) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    ExpectStructured(*corpus.module, bytes, "garbage trial " + std::to_string(trial));
  }
}

TEST(PtMalformedTest, UnknownHeaderIsMalformedPacket) {
  const Corpus corpus = MakeCorpus(31);
  const std::vector<uint8_t> bytes = {0xff};
  const PtDecodeResult result = DecodePt(*corpus.module, 0, bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->fault, PtDecodeFault::kMalformedPacket);
  EXPECT_EQ(result.error->offset, 0u);
  ExpectDigestAgrees(*corpus.module, bytes, result, "unknown header");
}

TEST(PtMalformedTest, BadIpPayloadIsStructured) {
  const Corpus corpus = MakeCorpus(37);
  PtBuffer buffer(1 << 16);
  buffer.AppendPsb();
  buffer.AppendPge(PtIp{/*function=*/4096, /*block=*/7, /*index=*/0});
  const PtDecodeResult result = DecodePt(*corpus.module, 0, buffer.bytes());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->fault, PtDecodeFault::kBadIp);
  ExpectDigestAgrees(*corpus.module, buffer.bytes(), result, "bad IP");
}

TEST(PtMalformedTest, TntWithNoWalkerIsProtocolViolation) {
  const Corpus corpus = MakeCorpus(41);
  PtBuffer buffer(1 << 16);
  buffer.AppendPsb();
  buffer.AppendTnt(0b1, 1);  // a branch outcome with no thread being walked
  const PtDecodeResult result = DecodePt(*corpus.module, 0, buffer.bytes());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->fault, PtDecodeFault::kProtocol);
  ExpectDigestAgrees(*corpus.module, buffer.bytes(), result, "TNT without walker");
}

TEST(PtMalformedTest, RunawayWalkIsCutOff) {
  // An unconditional jmp cycle: a corrupt PGE ip that lands a walker inside
  // it would loop forever in a decoder without a walk budget.
  auto module = ParseModule(R"(
func main() {
entry:
  jmp ^spin
spin:
  jmp ^spin
}
)");
  ASSERT_TRUE(module.ok()) << module.error().message();
  const FunctionId main_fn = (*module)->FindFunction("main");
  const BlockId spin = (*module)->function(main_fn).FindBlock("spin");
  PtBuffer buffer(1 << 16);
  buffer.AppendPsb();
  buffer.AppendPge(PtIp{main_fn, spin, 0});
  const PtDecodeResult result = DecodePt(**module, 0, buffer.bytes());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->fault, PtDecodeFault::kRunawayWalk);
  ExpectDigestAgrees(**module, buffer.bytes(), result, "runaway walk");
}

TEST(PtMalformedTest, SalvagedPrefixSurvivesTrailingGarbage) {
  const Corpus corpus = MakeCorpus(43);
  for (const std::vector<uint8_t>& stream : corpus.streams) {
    const PtDecodeResult clean = DecodePt(*corpus.module, 0, stream);
    ASSERT_TRUE(clean.ok());
    std::vector<uint8_t> damaged = stream;
    damaged.push_back(0xfe);  // unknown header after a fully valid stream
    const PtDecodeResult result = DecodePt(*corpus.module, 0, damaged);
    ExpectDigestAgrees(*corpus.module, damaged, result, "trailing garbage");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error->fault, PtDecodeFault::kMalformedPacket);
    EXPECT_EQ(result.error->offset, stream.size());
    // Everything before the damage was salvaged.
    EXPECT_EQ(result.trace.visits.size(), clean.trace.visits.size());
    EXPECT_EQ(result.trace.branches.size(), clean.trace.branches.size());
  }
}

}  // namespace
}  // namespace gist
