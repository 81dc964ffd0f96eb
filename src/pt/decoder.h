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

#include <cstdint>
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

// Per-module table the PT walker reads instead of the module's
// `Instruction`s (DESIGN.md §16). Every instruction position — one per
// instruction, numbered block by block — holds its id, the position of the
// next control transfer (br/ret/jmp/call) at or after it in its block, and,
// at a control transfer, its kind and successor positions. So a walk jumps
// from a block entry straight to the packet it must wait for. Built once per
// module: a server builds it next to its decoded module; the Module-only
// entry points below build one per call.
class PtWalkTable {
 public:
  static constexpr uint32_t kNoPos = UINT32_MAX;

  // kJump: a jmp or call, which the walk follows without a packet.
  enum class Kind : uint8_t { kNone, kBr, kRet, kJump };

  struct Entry {
    InstrId id = kNoInstr;
    uint32_t stop = kNoPos;     // next br/ret/jmp/call in this block, or kNoPos
    uint32_t target0 = kNoPos;  // br taken, jmp target or callee entry; kNoPos: none
    uint32_t target1 = kNoPos;  // br not taken
    uint32_t block = 0;         // global block number
    Kind kind = Kind::kNone;
  };

  struct Block {
    FunctionId function = kNoFunction;
    BlockId block = kNoBlock;
    uint32_t base = 0;  // position of the block's first instruction
    uint32_t size = 0;
  };

  explicit PtWalkTable(const Module& module);

  const Entry& entry(uint32_t pos) const { return entries_[pos]; }
  const Block& block(uint32_t global_block) const { return blocks_[global_block]; }
  size_t num_functions() const { return function_blocks_.size() - 1; }
  // Blocks of `function`, which must be < num_functions().
  uint32_t num_blocks(FunctionId function) const {
    return function_blocks_[function + 1] - function_blocks_[function];
  }
  // Global block number of (function, block), or kNoPos when the module has
  // no such block.
  uint32_t BlockOf(FunctionId function, BlockId block) const;
  // Module::num_instructions(): the bound of every entry's id.
  size_t num_instructions() const { return num_instructions_; }
  // Instruction positions: one per instruction of every block.
  uint32_t num_positions() const { return static_cast<uint32_t>(entries_.size()); }
  // Blocks one packet's walk may enter before it is a runaway: an eager walk
  // only moves through jmp/call, so on a well-formed stream it enters each
  // block at most once before it waits at a br or ret.
  uint64_t walk_budget() const { return blocks_.size() + 1; }

 private:
  std::vector<Entry> entries_;
  std::vector<Block> blocks_;
  std::vector<uint32_t> function_blocks_;  // first global block per function, plus the end
  size_t num_instructions_ = 0;
};

// Primary decoding entry point; never CHECK-fails, whatever the bytes.
PtDecodeResult DecodePt(const PtWalkTable& table, CoreId core, const std::vector<uint8_t>& bytes);
PtDecodeResult DecodePt(const Module& module, CoreId core, const std::vector<uint8_t>& bytes);

// Streams DecodePt has materialized into visit lists on the calling thread,
// since the thread started. Code that must not materialize (server ingest)
// reads it before and after its work, so a decode anywhere inside counts.
uint64_t PtMaterializedDecodes();

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

// What ingest keeps of one PT stream (DESIGN.md §16): the decode's stream
// shape and error, plus the set of branch outcomes — all the statistics
// read of a stream.
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
PtStreamDigest DigestPt(const PtWalkTable& table, const std::vector<uint8_t>& bytes);
PtStreamDigest DigestPt(const Module& module, const std::vector<uint8_t>& bytes);

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

// The last per-thread program-order position at which one thread executed
// one instruction. A thread's positions count every instruction its visits
// retired, across cores in core order. Per-core traces carry no relative
// order, so positions only order one thread's statements; the watchpoint
// total order places them across threads.
struct ExecutedPosition {
  InstrId instr = kNoInstr;
  ThreadId tid = kNoThread;
  int64_t pos = 0;

  bool operator==(const ExecutedPosition&) const = default;
};

// Everything ingest reads of a failing run's PT streams (DESIGN.md §15),
// produced by one walk per stream with no visit list: each stream's digest,
// plus, over the visits of all streams, the executed-instruction bitset and
// the last position of every executed (instruction, thread) pair.
struct PtTraceSummary {
  std::vector<PtStreamDigest> cores;  // one per stream, in core order
  InstrBitset executed;
  // One entry per executed pair, sorted by (instr, tid).
  std::vector<ExecutedPosition> positions;
};

// Summarizes traces over its module's walk table, reusing its buffers from
// trace to trace: a dense per-position array for the fold and a bit per
// branch key, both reset through the entries a trace touched. Time is
// O(packets + visited instructions + executed pairs · log) and memory
// O(visits + executed pairs + num_instructions), whatever the bytes.
// Between traces it keeps at most kRetainedBytes of trace-sized buffers
// (visit log, fold order, thread keys) besides the per-module ones: a trace
// that grew them past that frees them when it ends. Not thread-safe: one per
// server.
class PtTraceSummarizer {
 public:
  static constexpr size_t kRetainedBytes = size_t{1} << 20;

  explicit PtTraceSummarizer(const Module& module);
  ~PtTraceSummarizer();
  PtTraceSummarizer(const PtTraceSummarizer&) = delete;
  PtTraceSummarizer& operator=(const PtTraceSummarizer&) = delete;

  // One stream per core, in core order. Never CHECK-fails, whatever the
  // bytes; a stream that fails to decode contributes its salvaged prefix.
  PtTraceSummary Summarize(const std::vector<std::vector<uint8_t>>& streams);

  // The same summary from streams DecodePt already decoded over this
  // module, one per core in core order: the batch sketch build, which
  // decodes every trace anyway, folds its visits instead of walking the
  // streams again.
  PtTraceSummary Summarize(const std::vector<PtDecodeResult>& decoded);

  const PtWalkTable& table() const { return table_; }

  // Heap the trace-sized buffers hold now, between traces at most
  // kRetainedBytes.
  size_t scratch_bytes() const;

  struct Buffers;  // defined in decoder.cc

 private:
  // Folds the visits in the buffers into `summary`'s bitset and positions.
  void Fold(PtTraceSummary& summary);

  PtWalkTable table_;
  std::unique_ptr<Buffers> buffers_;
};

// One-off summary over a table built for the call (tools and tests).
PtTraceSummary SummarizePt(const Module& module,
                           const std::vector<std::vector<uint8_t>>& streams);

}  // namespace gist

#endif  // GIST_SRC_PT_DECODER_H_
