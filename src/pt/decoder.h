// PT trace decoder: reconstructs executed control flow from a per-core packet
// buffer plus the program (the decoder walks the module's CFG, consuming TNT
// bits at conditional branches and TIP packets at returns, exactly as real PT
// decoders walk the binary).
//
// The output is per-core only: traces from different cores carry no relative
// order, mirroring the Intel PT limitation the paper works around with
// hardware watchpoints (§3.2.3, §6).
//
// Packet streams arrive from outside the trust boundary (client uploads that
// may be truncated, bit-flipped, or outright hostile — DESIGN.md §8), so the
// decoder NEVER aborts on malformed input: every failure mode surfaces as a
// structured PtDecodeError carrying the fault class and the byte offset of
// the offending packet, plus the prefix that decoded cleanly before it.

#ifndef GIST_SRC_PT_DECODER_H_
#define GIST_SRC_PT_DECODER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/ir/module.h"
#include "src/pt/packets.h"
#include "src/support/result.h"
#include "src/vm/observer.h"

namespace gist {

// A contiguous run of instructions [first_index, last_index] executed by one
// thread inside one basic block while tracing was on.
struct PtVisit {
  ThreadId tid = kNoThread;
  FunctionId function = kNoFunction;
  BlockId block = kNoBlock;
  uint32_t first_index = 0;
  uint32_t last_index = 0;  // inclusive
};

// A conditional-branch outcome recovered from a TNT bit.
struct PtBranch {
  ThreadId tid = kNoThread;
  InstrId instr = kNoInstr;
  bool taken = false;
};

struct DecodedCoreTrace {
  CoreId core = 0;
  std::vector<PtVisit> visits;     // in per-core trace order
  std::vector<PtBranch> branches;  // in per-core trace order
  bool overflow = false;
};

// Why a PT stream failed to decode.
enum class PtDecodeFault : uint8_t {
  kMalformedPacket,  // unparseable bytes: truncated payload, unknown header
  kBadIp,            // an IP payload names a location outside the module
  kProtocol,         // well-formed packets in an impossible order
  kRunawayWalk,      // a walk cycled without consuming packets (corrupt IP)
};
inline constexpr size_t kNumPtDecodeFaults = 4;

const char* PtDecodeFaultName(PtDecodeFault fault);
// Stable snake_case identifier for metric names ("pt.decode.errors.<key>").
const char* PtDecodeFaultKey(PtDecodeFault fault);

struct PtDecodeError {
  PtDecodeFault fault = PtDecodeFault::kMalformedPacket;
  size_t offset = 0;  // byte offset of the packet that triggered the fault
  std::string message;

  // "<fault> at offset <n>: <message>" — the wrapper API's error text.
  std::string Format() const;
  bool operator==(const PtDecodeError&) const = default;
};

// Stream-shape telemetry accumulated while decoding (DESIGN.md §9): packet
// and byte counts plus TNT density inputs. On error the stats cover the
// prefix that parsed before the fault — exactly the salvaged trace.
struct PtDecodeStats {
  uint64_t packets = 0;      // packets parsed (including pad/psb)
  uint64_t bytes = 0;        // bytes consumed by parsed packets
  uint64_t tnt_packets = 0;
  uint64_t tnt_bits = 0;     // conditional-branch outcomes carried
  uint64_t tip_packets = 0;
  uint64_t toggle_packets = 0;  // PGE + PGD: tracing on/off edges

  bool operator==(const PtDecodeStats&) const = default;
};

// Decode outcome: the visits/branches recovered before the first fault (the
// salvageable prefix), plus the structured error when the stream is corrupt.
struct PtDecodeResult {
  DecodedCoreTrace trace;
  PtDecodeStats stats;
  std::optional<PtDecodeError> error;

  bool ok() const { return !error.has_value(); }
};

// Primary decoding entry point; never CHECK-fails, whatever the bytes.
PtDecodeResult DecodePt(const Module& module, CoreId core, const std::vector<uint8_t>& bytes);

// Compatibility wrapper: discards the salvaged prefix on error and folds the
// structured error into a Result message.
Result<DecodedCoreTrace> DecodePtStream(const Module& module, CoreId core,
                                        const std::vector<uint8_t>& bytes);

// One conditional-branch outcome as a sortable key: (instr << 1) | taken.
// Keys order by statement, then outcome, exactly as branch predictors do.
inline uint64_t PtBranchKey(InstrId instr, bool taken) {
  return (uint64_t{instr} << 1) | (taken ? 1u : 0u);
}

// The sorted, unique branch-outcome keys of a decoded trace.
std::vector<uint64_t> PtBranchKeys(const DecodedCoreTrace& trace);

// What ingest keeps of a successful run's PT stream (DESIGN.md §16): the
// decode's stream shape and error, plus the set of branch outcomes — all the
// statistics read of a run that is never laid out in a sketch.
struct PtStreamDigest {
  PtDecodeStats stats;
  std::optional<PtDecodeError> error;
  std::vector<uint64_t> branch_keys;  // sorted, unique PtBranchKey values

  bool ok() const { return !error.has_value(); }
  bool operator==(const PtStreamDigest&) const = default;
};

// Walks `bytes` exactly as DecodePt does — same validation, same faults and
// offsets — but records neither visits nor per-bit branches. Never
// CHECK-fails, whatever the bytes.
PtStreamDigest DigestPt(const Module& module, const std::vector<uint8_t>& bytes);

// The digest of an already materialized decode.
PtStreamDigest DigestOf(const PtDecodeResult& result);

// Digests of streams already walked, keyed by the full stream bytes
// (DESIGN.md §16). A lookup compares every byte, never just a hash: uploads
// are untrusted, so one client's stream must not stand in for another's.
// Memory stays within kBudgetBytes: an insert that would exceed it first
// drops every entry.
class PtDigestMemo {
 public:
  static constexpr size_t kBudgetBytes = size_t{1} << 20;

  // The digest memoized for exactly these bytes, or null.
  std::shared_ptr<const PtStreamDigest> Find(const std::vector<uint8_t>& bytes) const;
  void Insert(const std::vector<uint8_t>& bytes, std::shared_ptr<const PtStreamDigest> digest);
  void Clear();

  // Heap held, counted from the stored types' sizes: stream bytes, branch
  // keys, error messages and each entry's node, bucket and digest blocks.
  size_t bytes() const { return bytes_; }

 private:
  struct StreamHash {
    size_t operator()(const std::vector<uint8_t>& bytes) const;
  };

  std::unordered_map<std::vector<uint8_t>, std::shared_ptr<const PtStreamDigest>, StreamHash>
      entries_;
  size_t bytes_ = 0;
};

// Executed-instruction bitset indexed by InstrId: bit (id % 64) of word
// (id / 64). Instruction ids are dense (Module::num_instructions()), so this
// is the compact executed set the server keeps per failing trace (DESIGN.md
// §15) and the sketch builder reads.
using InstrBitset = std::vector<uint64_t>;

inline bool TestInstrBit(const InstrBitset& bits, InstrId id) {
  const size_t word = id / 64;
  return word < bits.size() && ((bits[word] >> (id % 64)) & 1u) != 0;
}

// Bitset of every instruction the visits cover, sized for `module`.
InstrBitset ExecutedInstrBits(const Module& module,
                              const std::vector<const DecodedCoreTrace*>& traces);

// Set flavor of the same union, for callers comparing against ground truth.
std::unordered_set<InstrId> ExecutedInstrs(const Module& module,
                                           const std::vector<DecodedCoreTrace>& traces);

}  // namespace gist

#endif  // GIST_SRC_PT_DECODER_H_
