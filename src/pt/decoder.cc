#include "src/pt/decoder.h"

#include <algorithm>

#include "src/support/check.h"
#include "src/support/str.h"

namespace gist {
namespace {

constexpr uint32_t kNoPos = PtWalkTable::kNoPos;
constexpr uint32_t kNoIndex = UINT32_MAX;

thread_local uint64_t materialized_decodes = 0;  // PtMaterializedDecodes()

// Reconstruction state for one traced thread on one core.
struct Walker {
  enum class Wait : uint8_t {
    kNone,  // actively walking (transient), or its thread ended
    kTnt,   // paused at a conditional branch, needs a TNT bit
    kTip,   // paused at a return, needs a TIP packet
  };

  ThreadId tid = kNoThread;
  uint64_t generation = 0;  // the decoder's PGE count when it started
  uint32_t pos = 0;  // walk-table position it is paused at
  Wait wait = Wait::kNone;
  // A TIP.PGD turned tracing off under it: real PT emits no control flow
  // for it until the next PGE, which starts a new walker.
  bool stopped = false;
  uint32_t last_visit = kNoIndex;  // its newest visit in the sink's VisitLog
  uint32_t thread = kNoIndex;      // the sink's index for its thread
  uint32_t stopped_chain = kNoIndex;  // its VisitLog index for later PGDs
};

// The visits walkers recorded, in trace order and linked per walker, so a
// TIP.PGD can cut back what its walker recorded eagerly. A visit is a
// walk-table position range [first, last] inside one block; first > last
// marks a visit a PGD dropped.
class VisitLog {
 public:
  struct Visit {
    uint32_t thread;  // the sink's thread key
    uint32_t block;   // global block number
    uint32_t first;
    uint32_t last;
    uint32_t prev;  // the walker's previous visit, or kNoIndex
  };

  explicit VisitLog(const PtWalkTable& table) : table_(table) {}

  void Append(Walker& walker, uint32_t thread, uint32_t first, uint32_t last) {
    visits_.push_back(Visit{thread, table_.entry(first).block, first, last, walker.last_visit});
    walker.last_visit = static_cast<uint32_t>(visits_.size() - 1);
  }

  // Tracing stopped after (block, index): the walker's newest visit of that
  // block starting at or before `index` ends there, and each later visit of
  // the walker is marked dropped (block-relative first 1, last 0) but kept,
  // so a second PGD can still match it.
  //
  // The first PGD of a walker stops it, so it searches the walker's chain
  // once. A stopped walker records nothing more, so from its second PGD on
  // the search goes through an index of its frozen chain, built once: every
  // PGD then costs O(1) plus the visits it drops, however many arrive.
  void TruncateAfter(Walker& walker, uint32_t block, uint32_t index) {
    const uint64_t bound = uint64_t{table_.block(block).base} + index;
    if (!walker.stopped) {
      uint32_t match = walker.last_visit;
      while (match != kNoIndex &&
             (visits_[match].block != block || visits_[match].first > bound)) {
        match = visits_[match].prev;
      }
      if (match != kNoIndex) {
        Clamp(visits_[match], bound);
        for (uint32_t dropped = walker.last_visit; dropped != match;
             dropped = visits_[dropped].prev) {
          Drop(visits_[dropped]);
        }
      }
      return;
    }
    if (walker.stopped_chain == kNoIndex) {
      walker.stopped_chain = IndexChain(walker.last_visit);
    }
    StoppedChain& chain = stopped_[walker.stopped_chain];
    // Dropped visits follow every live one, and each matches any index >= 1.
    if (index >= 1 && chain.dropped_blocks.count(block) != 0) {
      return;
    }
    const auto it = chain.live_by_block.find(block);
    if (it == chain.live_by_block.end()) {
      return;
    }
    std::vector<RankedVisit>& live = it->second;
    while (!live.empty() && live.back().rank >= chain.live) {
      live.pop_back();  // dropped since the index was built
    }
    if (live.empty() || live.back().min_first > bound) {
      return;
    }
    size_t k = live.size() - 1;
    while (visits_[chain.visits[live[k].rank]].first > bound) {
      --k;  // stops: some visit at or before k starts at or before the bound
    }
    const uint32_t match = live[k].rank;
    Clamp(visits_[chain.visits[match]], bound);
    for (uint32_t rank = match + 1; rank < chain.live; ++rank) {
      Visit& visit = visits_[chain.visits[rank]];
      Drop(visit);
      chain.dropped_blocks.insert(visit.block);
    }
    chain.live = match + 1;
  }

  const std::vector<Visit>& visits() const { return visits_; }
  void Clear() {
    visits_.clear();
    stopped_.clear();
  }
  // Frees the buffers Clear keeps.
  void Release() {
    visits_ = decltype(visits_)();
    stopped_ = decltype(stopped_)();
  }
  size_t capacity_bytes() const {
    return visits_.capacity() * sizeof(Visit) + stopped_.capacity() * sizeof(StoppedChain);
  }

 private:
  struct RankedVisit {
    uint32_t rank;       // position in the walker's chain
    uint32_t min_first;  // least `first` of this and the block's earlier live visits
  };

  // A stopped walker's visits, oldest first: a live prefix and a dropped
  // suffix.
  struct StoppedChain {
    std::vector<uint32_t> visits;
    uint32_t live = 0;
    std::unordered_set<uint32_t> dropped_blocks;
    std::unordered_map<uint32_t, std::vector<RankedVisit>> live_by_block;
  };

  void Clamp(Visit& visit, uint64_t bound) {
    if (visit.last > bound) {
      visit.last = static_cast<uint32_t>(bound);
    }
  }

  void Drop(Visit& visit) {
    visit.first = table_.block(visit.block).base + 1;
    visit.last = table_.block(visit.block).base;
  }

  uint32_t IndexChain(uint32_t last_visit) {
    StoppedChain& chain = stopped_.emplace_back();
    for (uint32_t v = last_visit; v != kNoIndex; v = visits_[v].prev) {
      chain.visits.push_back(v);
    }
    std::reverse(chain.visits.begin(), chain.visits.end());
    for (uint32_t rank = 0; rank < chain.visits.size(); ++rank) {
      const Visit& visit = visits_[chain.visits[rank]];
      if (visit.first > visit.last) {
        chain.dropped_blocks.insert(visit.block);
        continue;
      }
      chain.live = rank + 1;
      std::vector<RankedVisit>& live = chain.live_by_block[visit.block];
      live.push_back(RankedVisit{
          rank, live.empty() ? visit.first : std::min(live.back().min_first, visit.first)});
    }
    return static_cast<uint32_t>(stopped_.size() - 1);
  }

  const PtWalkTable& table_;
  std::vector<Visit> visits_;
  std::vector<StoppedChain> stopped_;  // indexed by Walker::stopped_chain
};

// Each distinct branch-outcome key once: a bit per possible key dedups in
// O(1) per TNT bit, and Take clears only the bits it set.
class BranchKeySet {
 public:
  explicit BranchKeySet(size_t num_instructions)
      : seen_((2 * num_instructions + 63) / 64, 0) {}

  void Add(InstrId instr, bool taken) {
    const uint64_t key = PtBranchKey(instr, taken);
    uint64_t& word = seen_[key / 64];
    const uint64_t bit = uint64_t{1} << (key % 64);
    if ((word & bit) == 0) {
      word |= bit;
      keys_.push_back(key);
    }
  }

  // The keys added since the last Take, sorted.
  std::vector<uint64_t> Take() {
    for (uint64_t key : keys_) {
      seen_[key / 64] &= ~(uint64_t{1} << (key % 64));
    }
    std::sort(keys_.begin(), keys_.end());
    std::vector<uint64_t> keys = std::move(keys_);
    keys_.clear();
    return keys;
  }

 private:
  std::vector<uint64_t> seen_;
  std::vector<uint64_t> keys_;
};

// Materializing sink: records every visit and every per-bit branch outcome
// (DecodePt).
class TraceSink {
 public:
  explicit TraceSink(const PtWalkTable& table) : table_(table), log_(table) {}

  void Branch(const Walker& walker, InstrId instr, bool taken) {
    branches_.push_back(PtBranch{walker.tid, instr, taken});
  }
  void Visit(Walker& walker, uint32_t first, uint32_t last) {
    log_.Append(walker, walker.tid, first, last);
  }
  void TruncateAfter(Walker& walker, uint32_t block, uint32_t index) {
    log_.TruncateAfter(walker, block, index);
  }

  DecodedCoreTrace Take(CoreId core, bool overflow) {
    DecodedCoreTrace trace;
    trace.core = core;
    trace.overflow = overflow;
    trace.branches = std::move(branches_);
    trace.visits.reserve(log_.visits().size());
    for (const VisitLog::Visit& logged : log_.visits()) {
      const PtWalkTable::Block& block = table_.block(logged.block);
      PtVisit visit;
      visit.tid = logged.thread;
      visit.function = block.function;
      visit.block = block.block;
      visit.first_index = logged.first - block.base;
      visit.last_index = logged.last - block.base;
      trace.visits.push_back(visit);
    }
    return trace;
  }

 private:
  const PtWalkTable& table_;
  VisitLog log_;
  std::vector<PtBranch> branches_;
};

// Digest sink: records each distinct branch outcome once and nothing else
// (DigestPt).
class BranchKeySink {
 public:
  explicit BranchKeySink(const PtWalkTable& table) : keys_(table.num_instructions()) {}

  void Branch(const Walker& /*walker*/, InstrId instr, bool taken) { keys_.Add(instr, taken); }
  void Visit(Walker& /*walker*/, uint32_t /*first*/, uint32_t /*last*/) {}
  void TruncateAfter(Walker& /*walker*/, uint32_t /*block*/, uint32_t /*index*/) {}

  std::vector<uint64_t> Take() { return keys_.Take(); }

 private:
  BranchKeySet keys_;
};

// The one PT walker. Validation, fault classes and offsets live here; the
// sink only decides what of the reconstructed control flow is recorded.
template <typename Sink>
class Decoder {
 public:
  Decoder(const PtWalkTable& table, const std::vector<uint8_t>& bytes, Sink& sink)
      : table_(table), bytes_(bytes), sink_(sink) {}

  // Walks the whole stream; returns the first fault, if any. What was
  // recorded before the fault stays in the sink (the salvaged prefix).
  std::optional<PtDecodeError> Run() {
    size_t offset = 0;
    while (offset < bytes_.size()) {
      const size_t packet_offset = offset;
      Result<PtPacket> packet = ReadPtPacket(bytes_, &offset);
      if (!packet.ok()) {
        return PtDecodeError{PtDecodeFault::kMalformedPacket, packet_offset,
                             packet.error().message()};
      }
      Count(*packet, offset - packet_offset);
      std::optional<PtDecodeError> error = Apply(*packet, packet_offset);
      if (error.has_value()) {
        return error;
      }
      if (overflow_) {
        break;  // packets after OVF were dropped by the encoder
      }
    }
    return std::nullopt;
  }

  const PtDecodeStats& stats() const { return stats_; }
  bool overflow() const { return overflow_; }

 private:
  std::optional<PtDecodeError> Fail(PtDecodeFault fault, size_t offset,
                                    std::string message) const {
    return PtDecodeError{fault, offset, std::move(message)};
  }

  // Stream-shape accounting, independent of whether the packet then applies
  // cleanly (a packet that fails Apply still parsed).
  void Count(const PtPacket& packet, size_t byte_count) {
    ++stats_.packets;
    stats_.bytes += byte_count;
    switch (packet.kind) {
      case PtPacketKind::kTnt:
        ++stats_.tnt_packets;
        stats_.tnt_bits += packet.tnt_count;
        break;
      case PtPacketKind::kTip:
        ++stats_.tip_packets;
        break;
      case PtPacketKind::kPge:
      case PtPacketKind::kPgd:
        ++stats_.toggle_packets;
        break;
      default:
        break;
    }
  }

  // Trace payloads come from outside the trust boundary (a client upload);
  // every IP must be validated against the module before the walker uses
  // it. On success `*pos` is the IP's walk-table position.
  std::optional<PtDecodeError> Locate(const PtIp& ip, size_t offset, uint32_t* pos) const {
    if (ip.function >= table_.num_functions()) {
      return Fail(PtDecodeFault::kBadIp, offset, "IP payload names a nonexistent function");
    }
    if (ip.block >= table_.num_blocks(ip.function)) {
      return Fail(PtDecodeFault::kBadIp, offset, "IP payload names a nonexistent block");
    }
    const PtWalkTable::Block& block = table_.block(table_.BlockOf(ip.function, ip.block));
    if (ip.index >= block.size) {
      return Fail(PtDecodeFault::kBadIp, offset, "IP payload indexes past the block");
    }
    *pos = block.base + ip.index;
    return std::nullopt;
  }

  // The walker of the thread the last PIP named, if it has one since the
  // last PGE.
  Walker* Current() {
    if (current_ == kNoIndex || walkers_[current_].generation != generation_) {
      return nullptr;
    }
    return &walkers_[current_];
  }

  // A fresh walker for the current thread, in the slot of any walker the
  // thread had before the last PGE.
  Walker& AddWalker() {
    const auto [it, added] =
        walker_index_.try_emplace(current_tid_, static_cast<uint32_t>(walkers_.size()));
    if (added) {
      walkers_.emplace_back();
    }
    current_ = it->second;
    Walker& walker = walkers_[current_];
    walker = Walker{};
    walker.tid = current_tid_;
    walker.generation = generation_;
    return walker;
  }

  std::optional<PtDecodeError> Apply(const PtPacket& packet, size_t offset) {
    switch (packet.kind) {
      case PtPacketKind::kPad:
      case PtPacketKind::kPsb:
        return std::nullopt;
      case PtPacketKind::kOvf:
        overflow_ = true;
        return std::nullopt;
      case PtPacketKind::kPip: {
        current_tid_ = packet.tid;
        const auto it = walker_index_.find(packet.tid);
        current_ = it == walker_index_.end() ? kNoIndex : it->second;
        return std::nullopt;
      }
      case PtPacketKind::kPge: {
        uint32_t pos = 0;
        std::optional<PtDecodeError> invalid = Locate(packet.ip, offset, &pos);
        if (invalid.has_value()) {
          return invalid;
        }
        // Tracing (re)starts: every walker is stale, from before a gap of
        // unknown length. Bumping the generation retires them all in O(1).
        ++generation_;
        return StartWalk(AddWalker(), pos, offset);
      }
      case PtPacketKind::kFup: {
        uint32_t pos = 0;
        std::optional<PtDecodeError> invalid = Locate(packet.ip, offset, &pos);
        if (invalid.has_value()) {
          return invalid;
        }
        // Resync for the incoming thread after a context switch. Only needed
        // when the thread has no walker yet; an existing walker already knows
        // where it paused. A stopped one must not resume before a PGE.
        Walker* walker = Current();
        if (walker == nullptr) {
          return StartWalk(AddWalker(), pos, offset);
        }
        if (walker->stopped) {
          return Fail(PtDecodeFault::kProtocol, offset,
                      "FUP packet for a walker a TIP.PGD stopped");
        }
        return std::nullopt;
      }
      case PtPacketKind::kPgd: {
        if (Walker* walker = Current()) {
          const uint32_t block = table_.BlockOf(packet.ip.function, packet.ip.block);
          if (block != kNoPos) {  // an IP naming no block matches no visit
            sink_.TruncateAfter(*walker, block, packet.ip.index);
          }
          walker->stopped = true;
        }
        return std::nullopt;
      }
      case PtPacketKind::kTnt: {
        for (uint8_t i = 0; i < packet.tnt_count; ++i) {
          const bool taken = (packet.tnt_bits >> i) & 1;
          std::optional<PtDecodeError> error = ApplyTntBit(taken, offset);
          if (error.has_value()) {
            return error;
          }
        }
        return std::nullopt;
      }
      case PtPacketKind::kTip: {
        Walker* walker = Current();
        if (walker != nullptr && walker->stopped) {
          return Fail(PtDecodeFault::kProtocol, offset,
                      "TIP packet for a walker a TIP.PGD stopped");
        }
        if (walker == nullptr || walker->wait != Walker::Wait::kTip) {
          return Fail(PtDecodeFault::kProtocol, offset,
                      "TIP packet without a return-waiting walker");
        }
        walker->wait = Walker::Wait::kNone;
        if (IsPtEndIp(packet.ip)) {
          return std::nullopt;  // the thread returned from its entry function
        }
        uint32_t pos = 0;
        std::optional<PtDecodeError> invalid = Locate(packet.ip, offset, &pos);
        if (invalid.has_value()) {
          return invalid;
        }
        return StartWalk(*walker, pos, offset);
      }
    }
    return Fail(PtDecodeFault::kMalformedPacket, offset, "unhandled packet kind");
  }

  std::optional<PtDecodeError> ApplyTntBit(bool taken, size_t offset) {
    Walker* walker = Current();
    if (walker != nullptr && walker->stopped) {
      return Fail(PtDecodeFault::kProtocol, offset, "TNT bit for a walker a TIP.PGD stopped");
    }
    if (walker == nullptr || walker->wait != Walker::Wait::kTnt) {
      return Fail(PtDecodeFault::kProtocol, offset, "TNT bit without a branch-waiting walker");
    }
    const PtWalkTable::Entry& branch = table_.entry(walker->pos);
    if (branch.kind != PtWalkTable::Kind::kBr) {
      // Unreachable via the walker's own transitions (it only waits on TNT at
      // a br), kept as a structured error so no corrupt stream can abort.
      return Fail(PtDecodeFault::kProtocol, offset, "TNT bit at a non-branch statement");
    }
    sink_.Branch(*walker, branch.id, taken);
    walker->wait = Walker::Wait::kNone;
    return StartWalk(*walker, taken ? branch.target0 : branch.target1, offset);
  }

  // Opens a visit at table position `pos` and walks forward until the next
  // packet is needed (a conditional branch or a return), following direct
  // jumps and calls. A corrupt IP payload can aim the walker into a jmp/call
  // cycle, which would otherwise spin forever without consuming a byte.
  std::optional<PtDecodeError> StartWalk(Walker& walker, uint32_t pos, size_t offset) {
    uint64_t budget = table_.walk_budget();
    for (;;) {
      if (budget-- == 0) {
        return Fail(PtDecodeFault::kRunawayWalk, offset,
                    "walk entered more blocks than the module has (unconditional cycle)");
      }
      // Verified modules always terminate blocks; a walk can only fall off
      // the end when a corrupt IP aimed it into an unverified position.
      const uint32_t stop = pos == kNoPos ? kNoPos : table_.entry(pos).stop;
      if (stop == kNoPos) {
        return Fail(PtDecodeFault::kProtocol, offset, "walk fell off a block");
      }
      sink_.Visit(walker, pos, stop);
      const PtWalkTable::Entry& transfer = table_.entry(stop);
      switch (transfer.kind) {
        case PtWalkTable::Kind::kBr:
          walker.pos = stop;
          walker.wait = Walker::Wait::kTnt;
          return std::nullopt;
        case PtWalkTable::Kind::kRet:
          walker.pos = stop;
          walker.wait = Walker::Wait::kTip;
          return std::nullopt;
        default:  // kJump: a jmp or call
          pos = transfer.target0;
          break;
      }
    }
  }

  const PtWalkTable& table_;
  const std::vector<uint8_t>& bytes_;
  Sink& sink_;
  PtDecodeStats stats_;
  bool overflow_ = false;
  ThreadId current_tid_ = kNoThread;
  uint32_t current_ = kNoIndex;  // index of the current thread's walker
  uint64_t generation_ = 0;      // PGEs so far
  std::vector<Walker> walkers_;  // one slot per thread id the stream named
  std::unordered_map<ThreadId, uint32_t> walker_index_;  // thread id -> walkers_ slot
};

}  // namespace

const char* PtDecodeFaultName(PtDecodeFault fault) {
  switch (fault) {
    case PtDecodeFault::kMalformedPacket:
      return "malformed packet";
    case PtDecodeFault::kBadIp:
      return "bad IP payload";
    case PtDecodeFault::kProtocol:
      return "protocol violation";
    case PtDecodeFault::kRunawayWalk:
      return "runaway walk";
  }
  return "unknown fault";
}

const char* PtDecodeFaultKey(PtDecodeFault fault) {
  switch (fault) {
    case PtDecodeFault::kMalformedPacket:
      return "malformed_packet";
    case PtDecodeFault::kBadIp:
      return "bad_ip";
    case PtDecodeFault::kProtocol:
      return "protocol";
    case PtDecodeFault::kRunawayWalk:
      return "runaway_walk";
  }
  return "unknown";
}

std::string PtDecodeError::Format() const {
  return StrFormat("%s at offset %zu: %s", PtDecodeFaultName(fault), offset, message.c_str());
}

static_assert(sizeof(PtWalkTable::Entry) <= 24, "the walk table stays compact");

PtWalkTable::PtWalkTable(const Module& module) : num_instructions_(module.num_instructions()) {
  uint32_t base = 0;
  function_blocks_.reserve(module.num_functions() + 1);
  for (FunctionId f = 0; f < module.num_functions(); ++f) {
    function_blocks_.push_back(static_cast<uint32_t>(blocks_.size()));
    const Function& function = module.function(f);
    for (BlockId b = 0; b < function.num_blocks(); ++b) {
      const uint32_t size = static_cast<uint32_t>(function.block(b).size());
      blocks_.push_back(Block{f, b, base, size});
      base += size;
    }
  }
  function_blocks_.push_back(static_cast<uint32_t>(blocks_.size()));

  // The position a transfer to (function, block) enters at; kNoPos when the
  // block does not exist or is empty, where a walk falls off.
  const auto entry_of = [this](FunctionId function, BlockId block) {
    const uint32_t global = BlockOf(function, block);
    return global == kNoPos || blocks_[global].size == 0 ? kNoPos : blocks_[global].base;
  };
  entries_.resize(base);
  for (uint32_t g = 0; g < blocks_.size(); ++g) {
    const Block& block = blocks_[g];
    const auto& instrs = module.function(block.function).block(block.block).instructions();
    uint32_t stop = kNoPos;
    for (uint32_t i = block.size; i-- > 0;) {
      const Instruction& instr = instrs[i];
      GIST_CHECK_LT(instr.id, num_instructions_) << "instruction ids must be dense";
      const uint32_t pos = block.base + i;
      Entry& entry = entries_[pos];
      entry.id = instr.id;
      entry.block = g;
      switch (instr.op) {
        case Opcode::kBr:
          entry.kind = Kind::kBr;
          entry.target0 = entry_of(block.function, instr.target0);
          entry.target1 = entry_of(block.function, instr.target1);
          stop = pos;
          break;
        case Opcode::kRet:
          entry.kind = Kind::kRet;
          stop = pos;
          break;
        case Opcode::kJmp:
          entry.kind = Kind::kJump;
          entry.target0 = entry_of(block.function, instr.target0);
          stop = pos;
          break;
        case Opcode::kCall:
          entry.kind = Kind::kJump;
          entry.target0 = entry_of(instr.callee, 0);
          stop = pos;
          break;
        default:
          break;
      }
      entry.stop = stop;
    }
  }
}

uint32_t PtWalkTable::BlockOf(FunctionId function, BlockId block) const {
  if (function >= num_functions() || block >= num_blocks(function)) {
    return kNoPos;
  }
  return function_blocks_[function] + block;
}

PtDecodeResult DecodePt(const PtWalkTable& table, CoreId core, const std::vector<uint8_t>& bytes) {
  ++materialized_decodes;
  TraceSink sink(table);
  Decoder<TraceSink> decoder(table, bytes, sink);
  PtDecodeResult result;
  result.error = decoder.Run();
  result.stats = decoder.stats();
  result.trace = sink.Take(core, decoder.overflow());
  return result;
}

PtDecodeResult DecodePt(const Module& module, CoreId core, const std::vector<uint8_t>& bytes) {
  return DecodePt(PtWalkTable(module), core, bytes);
}

uint64_t PtMaterializedDecodes() { return materialized_decodes; }

Result<DecodedCoreTrace> DecodePtStream(const Module& module, CoreId core,
                                        const std::vector<uint8_t>& bytes) {
  PtDecodeResult result = DecodePt(module, core, bytes);
  if (!result.ok()) {
    return Error(result.error->Format());
  }
  return std::move(result.trace);
}

std::vector<uint64_t> PtBranchKeys(const DecodedCoreTrace& trace) {
  std::vector<uint64_t> keys;
  keys.reserve(trace.branches.size());
  for (const PtBranch& branch : trace.branches) {
    keys.push_back(PtBranchKey(branch.instr, branch.taken));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

PtStreamDigest DigestPt(const PtWalkTable& table, const std::vector<uint8_t>& bytes) {
  BranchKeySink sink(table);
  Decoder<BranchKeySink> decoder(table, bytes, sink);
  PtStreamDigest digest;
  digest.error = decoder.Run();
  digest.stats = decoder.stats();
  digest.branch_keys = sink.Take();
  return digest;
}

PtStreamDigest DigestPt(const Module& module, const std::vector<uint8_t>& bytes) {
  return DigestPt(PtWalkTable(module), bytes);
}

// Buffers one summarizer reuses from trace to trace.
struct PtTraceSummarizer::Buffers {
  explicit Buffers(const PtWalkTable& table)
      : log(table), keys(table.num_instructions()), next_free(table.num_positions() + 1) {
    for (uint32_t pos = 0; pos < next_free.size(); ++pos) {
      next_free[pos] = pos;
    }
  }

  // Heap of the buffers that grow with a trace rather than with the module.
  size_t TraceBytes() const {
    return log.capacity_bytes() + (starts.capacity() + order.capacity()) * sizeof(uint32_t) +
           thread_ids.capacity() * sizeof(ThreadId) +
           threads.bucket_count() * sizeof(void*) +
           threads.size() * (sizeof(std::pair<const ThreadId, uint32_t>) + 2 * sizeof(void*));
  }

  // Frees the trace-sized buffers once a trace has grown them past
  // kRetainedBytes, so one huge upload does not pin its memory for the
  // server's lifetime.
  void Trim() {
    if (TraceBytes() > kRetainedBytes) {
      // `= {}` would pick the initializer-list assignment, which keeps the
      // heap.
      log.Release();
      starts = decltype(starts)();
      order = decltype(order)();
      thread_ids = decltype(thread_ids)();
      threads = decltype(threads)();
    }
  }

  void Reset() {
    log.Clear();
    threads.clear();
    thread_ids.clear();
  }

  // The key the log records for `tid`: its index in first-seen order.
  uint32_t ThreadKey(ThreadId tid) {
    const auto [it, added] = threads.try_emplace(tid, static_cast<uint32_t>(thread_ids.size()));
    if (added) {
      thread_ids.push_back(tid);
    }
    return it->second;
  }

  VisitLog log;  // every stream's visits, in core order
  BranchKeySet keys;
  // Thread id -> the thread key the log records, and back.
  std::unordered_map<ThreadId, uint32_t> threads;
  std::vector<ThreadId> thread_ids;
  // Per walk-table position (plus an end sentinel): itself while the thread
  // being folded has not taken it, else a later position to look at. Only
  // `taken` positions ever differ from themselves.
  std::vector<uint32_t> next_free;
  std::vector<uint32_t> taken;
  std::vector<uint32_t> starts;  // per thread, its first entry in `order`
  std::vector<uint32_t> order;   // executed visits, grouped by thread
};

namespace {

// Summary sink: a trace's streams share the summarizer's buffers, so the
// visit log spans all cores while branch keys are taken per stream.
class SummarySink {
 public:
  explicit SummarySink(PtTraceSummarizer::Buffers& buffers) : buffers_(buffers) {}

  void Branch(const Walker& /*walker*/, InstrId instr, bool taken) {
    buffers_.keys.Add(instr, taken);
  }
  void Visit(Walker& walker, uint32_t first, uint32_t last) {
    if (walker.thread == kNoIndex) {
      walker.thread = buffers_.ThreadKey(walker.tid);
    }
    buffers_.log.Append(walker, walker.thread, first, last);
  }
  void TruncateAfter(Walker& walker, uint32_t block, uint32_t index) {
    buffers_.log.TruncateAfter(walker, block, index);
  }

 private:
  PtTraceSummarizer::Buffers& buffers_;
};

}  // namespace

PtTraceSummarizer::PtTraceSummarizer(const Module& module)
    : table_(module), buffers_(std::make_unique<Buffers>(table_)) {}

PtTraceSummarizer::~PtTraceSummarizer() = default;

PtTraceSummary PtTraceSummarizer::Summarize(const std::vector<std::vector<uint8_t>>& streams) {
  Buffers& buffers = *buffers_;
  buffers.Reset();
  PtTraceSummary summary;
  summary.cores.reserve(streams.size());
  for (const std::vector<uint8_t>& bytes : streams) {
    SummarySink sink(buffers);
    Decoder<SummarySink> decoder(table_, bytes, sink);
    PtStreamDigest& digest = summary.cores.emplace_back();
    digest.error = decoder.Run();
    digest.stats = decoder.stats();
    digest.branch_keys = buffers.keys.Take();
  }
  Fold(summary);
  return summary;
}

PtTraceSummary PtTraceSummarizer::Summarize(const std::vector<PtDecodeResult>& decoded) {
  Buffers& buffers = *buffers_;
  buffers.Reset();
  PtTraceSummary summary;
  summary.cores.reserve(decoded.size());
  for (const PtDecodeResult& result : decoded) {
    summary.cores.push_back(
        PtStreamDigest{result.stats, result.error, PtBranchKeys(result.trace)});
    Walker walker;  // the fold reads no walker's chain
    for (const PtVisit& visit : result.trace.visits) {
      if (visit.first_index > visit.last_index) {
        continue;  // a PGD dropped it; the fold skips it too
      }
      const uint32_t base = table_.block(table_.BlockOf(visit.function, visit.block)).base;
      buffers.log.Append(walker, buffers.ThreadKey(visit.tid), base + visit.first_index,
                         base + visit.last_index);
    }
  }
  Fold(summary);
  return summary;
}

void PtTraceSummarizer::Fold(PtTraceSummary& summary) {
  Buffers& buffers = *buffers_;
  // Fold the visits into per-thread positions (DESIGN.md §15). Group them by
  // thread, stably, so each thread's visits stay in core order and, within
  // a core, in trace order; one counter per thread runs over them.
  const std::vector<VisitLog::Visit>& visits = buffers.log.visits();
  const size_t num_threads = buffers.thread_ids.size();
  buffers.starts.assign(num_threads + 1, 0);
  for (const VisitLog::Visit& visit : visits) {
    if (visit.first <= visit.last) {
      ++buffers.starts[visit.thread + 1];
    }
  }
  for (size_t t = 0; t < num_threads; ++t) {
    buffers.starts[t + 1] += buffers.starts[t];
  }
  buffers.order.resize(buffers.starts[num_threads]);
  for (uint32_t v = 0; v < visits.size(); ++v) {
    if (visits[v].first <= visits[v].last) {
      buffers.order[buffers.starts[visits[v].thread]++] = v;
    }
  }
  // Each start now holds its thread's end, which is the next thread's start.
  //
  // The last occurrence wins, so each thread's visits are read newest first
  // and a position takes the counter of the first visit that reaches it.
  // `next_free` skips the positions already taken (a union-find with path
  // halving), so a loop that revisits a block costs one lookup per visit,
  // not one step per instruction.
  summary.executed.assign((table_.num_instructions() + 63) / 64, 0);
  std::vector<uint32_t>& next_free = buffers.next_free;
  const auto find_free = [&next_free](uint32_t pos) {
    while (next_free[pos] != pos) {
      next_free[pos] = next_free[next_free[pos]];
      pos = next_free[pos];
    }
    return pos;
  };
  uint32_t begin = 0;
  for (uint32_t t = 0; t < num_threads; ++t) {
    const uint32_t end = buffers.starts[t];
    int64_t counter = 0;  // the thread's instructions before the visit read next
    for (uint32_t k = begin; k < end; ++k) {
      const VisitLog::Visit& visit = visits[buffers.order[k]];
      counter += visit.last - visit.first + 1;
    }
    const ThreadId tid = buffers.thread_ids[t];
    for (uint32_t k = end; k-- > begin;) {
      const VisitLog::Visit& visit = visits[buffers.order[k]];
      counter -= visit.last - visit.first + 1;
      for (uint32_t pos = find_free(visit.first); pos <= visit.last;
           pos = find_free(pos + 1)) {
        const InstrId id = table_.entry(pos).id;
        summary.executed[id / 64] |= uint64_t{1} << (id % 64);
        summary.positions.push_back(ExecutedPosition{id, tid, counter + (pos - visit.first)});
        buffers.taken.push_back(pos);
        next_free[pos] = pos + 1;
      }
    }
    for (uint32_t pos : buffers.taken) {
      next_free[pos] = pos;
    }
    buffers.taken.clear();
    begin = end;
  }
  std::sort(summary.positions.begin(), summary.positions.end(),
            [](const ExecutedPosition& a, const ExecutedPosition& b) {
              return a.instr != b.instr ? a.instr < b.instr : a.tid < b.tid;
            });
  buffers.Trim();
}

size_t PtTraceSummarizer::scratch_bytes() const { return buffers_->TraceBytes(); }

PtTraceSummary SummarizePt(const Module& module,
                           const std::vector<std::vector<uint8_t>>& streams) {
  return PtTraceSummarizer(module).Summarize(streams);
}

size_t PtDigestMemo::StreamHash::operator()(const std::vector<uint8_t>& bytes) const {
  // A bucket spreader, not an identity: equality compares the full bytes.
  return static_cast<size_t>(HashBytes(bytes.data(), bytes.size()));
}

std::shared_ptr<const PtStreamDigest> PtDigestMemo::Find(const std::vector<uint8_t>& bytes) const {
  const auto it = entries_.find(bytes);
  return it == entries_.end() ? nullptr : it->second;
}

void PtDigestMemo::Insert(const std::vector<uint8_t>& bytes,
                          std::shared_ptr<const PtStreamDigest> digest) {
  // What one entry holds, from the stored types: the hash-map node (next
  // pointer, cached hash, key vector, digest pointer) and three bucket
  // pointers (the table grows to the next prime past twice its size); the
  // make_shared block (two reference counts, a vtable pointer, the digest);
  // and the heap blocks of the key, the branch keys and the error message.
  // Each of those five allocations also pays the allocator's header and
  // rounding, counted as 16 bytes. The first entry also allocates the
  // smallest bucket array.
  using Node = std::pair<const std::vector<uint8_t>, std::shared_ptr<const PtStreamDigest>>;
  constexpr size_t kAllocBytes = 16;
  constexpr size_t kEntryOverheadBytes =
      (sizeof(void*) + sizeof(size_t) + sizeof(Node) + kAllocBytes) + 3 * sizeof(void*) +
      (2 * sizeof(int32_t) + sizeof(void*) + sizeof(PtStreamDigest) + kAllocBytes) +
      3 * kAllocBytes;
  constexpr size_t kFirstBucketsBytes = 16 * sizeof(void*);
  const size_t entry_bytes = kEntryOverheadBytes + bytes.size() +
                             digest->branch_keys.capacity() * sizeof(uint64_t) +
                             (digest->error.has_value() ? digest->error->message.capacity() : 0);
  if (kFirstBucketsBytes + entry_bytes > kBudgetBytes) {
    return;
  }
  if (bytes_ + entry_bytes > kBudgetBytes) {
    Clear();
  }
  const size_t charged = entries_.empty() ? kFirstBucketsBytes + entry_bytes : entry_bytes;
  if (entries_.emplace(bytes, std::move(digest)).second) {
    bytes_ += charged;
  }
}

void PtDigestMemo::Clear() {
  entries_ = decltype(entries_)();  // clear() would keep the bucket array
  bytes_ = 0;
}

InstrBitset ExecutedInstrBits(const Module& module,
                              const std::vector<const DecodedCoreTrace*>& traces) {
  InstrBitset executed((module.num_instructions() + 63) / 64, 0);
  for (const DecodedCoreTrace* trace : traces) {
    for (const PtVisit& visit : trace->visits) {
      if (visit.first_index > visit.last_index) {
        continue;  // truncated-away visit
      }
      const auto& instrs = module.function(visit.function).block(visit.block).instructions();
      for (uint32_t i = visit.first_index; i <= visit.last_index && i < instrs.size(); ++i) {
        const InstrId id = instrs[i].id;
        executed[id / 64] |= uint64_t{1} << (id % 64);
      }
    }
  }
  return executed;
}

std::unordered_set<InstrId> ExecutedInstrs(const Module& module,
                                           const std::vector<DecodedCoreTrace>& traces) {
  std::vector<const DecodedCoreTrace*> view;
  view.reserve(traces.size());
  for (const DecodedCoreTrace& trace : traces) view.push_back(&trace);
  const InstrBitset bits = ExecutedInstrBits(module, view);
  std::unordered_set<InstrId> executed;
  for (InstrId id = 0; id < module.num_instructions(); ++id) {
    if (TestInstrBit(bits, id)) executed.insert(id);
  }
  return executed;
}

}  // namespace gist
