#include "src/pt/decoder.h"

#include <algorithm>

#include "src/support/str.h"

namespace gist {
namespace {

// Reconstruction state for one traced thread on one core.
struct Walker {
  enum class Wait : uint8_t {
    kNone,  // actively walking (transient)
    kTnt,   // paused at a conditional branch, needs a TNT bit
    kTip,   // paused at a return, needs a TIP packet
  };

  ThreadId tid = kNoThread;
  FunctionId function = kNoFunction;
  BlockId block = kNoBlock;
  uint32_t index = 0;
  Wait wait = Wait::kNone;
  bool active = false;
  std::vector<size_t> visit_indices;  // into DecodedCoreTrace::visits (TraceSink)
};

// Materializing sink: records every visit and every per-bit branch outcome
// (DecodePt).
class TraceSink {
 public:
  explicit TraceSink(CoreId core) { trace_.core = core; }

  void Branch(ThreadId tid, InstrId instr, bool taken) {
    trace_.branches.push_back(PtBranch{tid, instr, taken});
  }

  void Visit(Walker& walker, const PtVisit& visit) {
    walker.visit_indices.push_back(trace_.visits.size());
    trace_.visits.push_back(visit);
  }

  // Tracing stopped after `ip`; drop everything the eager walk recorded past
  // that point for this walker.
  void TruncateAfter(Walker& walker, const PtIp& ip) {
    // Find the most recent visit of this walker containing ip.
    for (size_t r = walker.visit_indices.size(); r-- > 0;) {
      PtVisit& visit = trace_.visits[walker.visit_indices[r]];
      if (visit.function == ip.function && visit.block == ip.block &&
          visit.first_index <= ip.index) {
        if (visit.last_index > ip.index) {
          visit.last_index = ip.index;
        }
        // Invalidate later visits of this walker (mark empty; filtered below
        // by ExecutedInstrBits and by consumers via first>last convention).
        for (size_t d = r + 1; d < walker.visit_indices.size(); ++d) {
          PtVisit& dropped = trace_.visits[walker.visit_indices[d]];
          dropped.first_index = 1;
          dropped.last_index = 0;
        }
        return;
      }
    }
  }

  DecodedCoreTrace Take(bool overflow) {
    trace_.overflow = overflow;
    return std::move(trace_);
  }

 private:
  DecodedCoreTrace trace_;
};

// Digest sink: records each distinct branch outcome once and nothing else
// (DigestPt). A bit per possible key dedups in O(1) per TNT bit.
class BranchKeySink {
 public:
  explicit BranchKeySink(const Module& module)
      : seen_((2 * size_t{module.num_instructions()} + 63) / 64, 0) {}

  void Branch(ThreadId /*tid*/, InstrId instr, bool taken) {
    const uint64_t key = PtBranchKey(instr, taken);
    uint64_t& word = seen_[key / 64];
    const uint64_t bit = uint64_t{1} << (key % 64);
    if ((word & bit) == 0) {
      word |= bit;
      keys_.push_back(key);
    }
  }
  void Visit(Walker& /*walker*/, const PtVisit& /*visit*/) {}
  void TruncateAfter(Walker& /*walker*/, const PtIp& /*ip*/) {}

  std::vector<uint64_t> Take() {
    std::sort(keys_.begin(), keys_.end());
    return std::move(keys_);
  }

 private:
  std::vector<uint64_t> seen_;
  std::vector<uint64_t> keys_;
};

// The one PT walker. Validation, fault classes and offsets live here; the
// sink only decides what of the reconstructed control flow is recorded.
template <typename Sink>
class Decoder {
 public:
  Decoder(const Module& module, const std::vector<uint8_t>& bytes, Sink sink)
      : module_(module), bytes_(bytes), sink_(std::move(sink)) {
    // Walk budget for one packet application: an eager walk only moves
    // through unconditional transfers (jmp/call), so on a well-formed stream
    // it can enter each block of the module at most once before it must stop
    // at a br/ret and wait for the next packet. A corrupt IP payload can
    // aim the walker into a jmp/call cycle, which would otherwise spin
    // forever without consuming a single byte.
    for (FunctionId f = 0; f < module.num_functions(); ++f) {
      walk_budget_ += module.function(f).num_blocks();
    }
    walk_budget_ += 1;
  }

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
  Sink& sink() { return sink_; }

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
  // every IP must be validated against the module before the walker uses it.
  std::optional<PtDecodeError> ValidateIp(const PtIp& ip, size_t offset) const {
    if (ip.function >= module_.num_functions()) {
      return Fail(PtDecodeFault::kBadIp, offset, "IP payload names a nonexistent function");
    }
    const Function& function = module_.function(ip.function);
    if (ip.block >= function.num_blocks()) {
      return Fail(PtDecodeFault::kBadIp, offset, "IP payload names a nonexistent block");
    }
    if (ip.index >= function.block(ip.block).size()) {
      return Fail(PtDecodeFault::kBadIp, offset, "IP payload indexes past the block");
    }
    return std::nullopt;
  }

  // Threads per core are few, so a linear scan beats a map.
  Walker* FindWalker(ThreadId tid) {
    for (Walker& walker : walkers_) {
      if (walker.tid == tid) {
        return &walker;
      }
    }
    return nullptr;
  }

  Walker& AddWalker(ThreadId tid) {
    Walker& walker = walkers_.emplace_back();
    walker.tid = tid;
    walker.active = true;
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
      case PtPacketKind::kPip:
        current_tid_ = packet.tid;
        return std::nullopt;
      case PtPacketKind::kPge: {
        std::optional<PtDecodeError> invalid = ValidateIp(packet.ip, offset);
        if (invalid.has_value()) {
          return invalid;
        }
        // Tracing (re)starts: discard stale walkers, they are from before a
        // gap of unknown length.
        walkers_.clear();
        return StartWalk(AddWalker(current_tid_), packet.ip, offset);
      }
      case PtPacketKind::kFup: {
        std::optional<PtDecodeError> invalid = ValidateIp(packet.ip, offset);
        if (invalid.has_value()) {
          return invalid;
        }
        // Resync for the incoming thread after a context switch. Only needed
        // when the thread has no walker yet; an existing walker already knows
        // where it paused.
        if (FindWalker(current_tid_) == nullptr) {
          return StartWalk(AddWalker(current_tid_), packet.ip, offset);
        }
        return std::nullopt;
      }
      case PtPacketKind::kPgd: {
        if (Walker* walker = FindWalker(current_tid_)) {
          sink_.TruncateAfter(*walker, packet.ip);
          walker->active = false;
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
        Walker* walker = FindWalker(current_tid_);
        if (walker == nullptr || walker->wait != Walker::Wait::kTip) {
          return Fail(PtDecodeFault::kProtocol, offset,
                      "TIP packet without a return-waiting walker");
        }
        if (IsPtEndIp(packet.ip)) {
          walker->active = false;
          walker->wait = Walker::Wait::kNone;
          return std::nullopt;
        }
        std::optional<PtDecodeError> invalid = ValidateIp(packet.ip, offset);
        if (invalid.has_value()) {
          return invalid;
        }
        walker->wait = Walker::Wait::kNone;
        return StartWalk(*walker, packet.ip, offset);
      }
    }
    return Fail(PtDecodeFault::kMalformedPacket, offset, "unhandled packet kind");
  }

  std::optional<PtDecodeError> ApplyTntBit(bool taken, size_t offset) {
    Walker* walker = FindWalker(current_tid_);
    if (walker == nullptr || walker->wait != Walker::Wait::kTnt) {
      return Fail(PtDecodeFault::kProtocol, offset, "TNT bit without a branch-waiting walker");
    }
    const Instruction& branch = module_.function(walker->function)
                                    .block(walker->block)
                                    .instructions()[walker->index];
    if (branch.op != Opcode::kBr) {
      // Unreachable via the walker's own transitions (it only waits on TNT at
      // a br), kept as a structured error so no corrupt stream can abort.
      return Fail(PtDecodeFault::kProtocol, offset, "TNT bit at a non-branch statement");
    }
    sink_.Branch(walker->tid, branch.id, taken);
    walker->wait = Walker::Wait::kNone;
    return StartWalk(*walker,
                     PtIp{walker->function, taken ? branch.target0 : branch.target1, 0}, offset);
  }

  // Opens a visit at `ip` and walks forward until the next packet is needed
  // (a conditional branch or a return), following direct jumps and calls.
  std::optional<PtDecodeError> StartWalk(Walker& walker, PtIp ip, size_t offset) {
    uint64_t budget = walk_budget_;
    for (;;) {
      if (budget-- == 0) {
        return Fail(PtDecodeFault::kRunawayWalk, offset,
                    "walk entered more blocks than the module has (unconditional cycle)");
      }
      walker.function = ip.function;
      walker.block = ip.block;
      walker.index = ip.index;

      PtVisit visit;
      visit.tid = walker.tid;
      visit.function = ip.function;
      visit.block = ip.block;
      visit.first_index = ip.index;

      const auto& instrs = module_.function(ip.function).block(ip.block).instructions();
      uint32_t i = ip.index;
      for (; i < instrs.size(); ++i) {
        const Instruction& instr = instrs[i];
        if (instr.op == Opcode::kBr) {
          visit.last_index = i;
          sink_.Visit(walker, visit);
          walker.index = i;
          walker.wait = Walker::Wait::kTnt;
          return std::nullopt;
        }
        if (instr.op == Opcode::kRet) {
          visit.last_index = i;
          sink_.Visit(walker, visit);
          walker.index = i;
          walker.wait = Walker::Wait::kTip;
          return std::nullopt;
        }
        if (instr.op == Opcode::kJmp) {
          visit.last_index = i;
          sink_.Visit(walker, visit);
          ip = PtIp{ip.function, instr.target0, 0};
          break;
        }
        if (instr.op == Opcode::kCall) {
          visit.last_index = i;
          sink_.Visit(walker, visit);
          ip = PtIp{instr.callee, 0, 0};
          break;
        }
      }
      if (i >= instrs.size()) {
        // Verified modules always terminate blocks; a walk can only fall off
        // the end when a corrupt IP aimed it into an unverified position.
        return Fail(PtDecodeFault::kProtocol, offset, "walk fell off a block");
      }
    }
  }

  const Module& module_;
  const std::vector<uint8_t>& bytes_;
  Sink sink_;
  PtDecodeStats stats_;
  bool overflow_ = false;
  ThreadId current_tid_ = kNoThread;
  std::vector<Walker> walkers_;
  uint64_t walk_budget_ = 0;
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

PtDecodeResult DecodePt(const Module& module, CoreId core, const std::vector<uint8_t>& bytes) {
  Decoder<TraceSink> decoder(module, bytes, TraceSink(core));
  PtDecodeResult result;
  result.error = decoder.Run();
  result.stats = decoder.stats();
  result.trace = decoder.sink().Take(decoder.overflow());
  return result;
}

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

PtStreamDigest DigestPt(const Module& module, const std::vector<uint8_t>& bytes) {
  Decoder<BranchKeySink> decoder(module, bytes, BranchKeySink(module));
  PtStreamDigest digest;
  digest.error = decoder.Run();
  digest.stats = decoder.stats();
  digest.branch_keys = decoder.sink().Take();
  return digest;
}

PtStreamDigest DigestOf(const PtDecodeResult& result) {
  PtStreamDigest digest;
  digest.stats = result.stats;
  digest.error = result.error;
  digest.branch_keys = PtBranchKeys(result.trace);
  return digest;
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
