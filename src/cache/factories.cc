#include "src/cache/factories.h"

#include <cstring>

#include "src/analysis/slice.h"
#include "src/analysis/slicer.h"
#include "src/cfg/ticfg.h"
#include "src/ir/module.h"
#include "src/pt/decoder.h"
#include "src/support/str.h"
#include "src/vm/decoded_module.h"

namespace gist {
namespace {

// Second FNV-1a pass with a different offset basis so the two 64-bit halves
// are independent.
uint64_t HashBytesSeeded(const void* data, size_t size, uint64_t basis) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = basis;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// --- little-endian byte codec helpers ---------------------------------------

class ByteWriter {
 public:
  void U8(uint8_t value) { out_.push_back(static_cast<char>(value)); }
  void U32(uint32_t value) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
  void U64(uint64_t value) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
  void Str(std::string_view value) {
    U64(value.size());
    out_.append(value.data(), value.size());
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

// Bounds-checked reader: any overrun poisons the reader, and callers reject
// the record (a truncated or corrupt payload must decode to nullopt, never
// crash — disk records cross a trust boundary like PT uploads do).
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t U8() {
    if (!Ensure(1)) return 0;
    return static_cast<uint8_t>(bytes_[pos_++]);
  }
  uint32_t U32() {
    if (!Ensure(4)) return 0;
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return value;
  }
  uint64_t U64() {
    if (!Ensure(8)) return 0;
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return value;
  }
  std::string Str() {
    const uint64_t size = U64();
    if (size > bytes_.size() - pos_ || !Ensure(size)) return "";
    std::string value(bytes_.substr(pos_, size));
    pos_ += size;
    return value;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == bytes_.size(); }

 private:
  bool Ensure(size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

size_t ApproxDecodedModuleBytes(const Module& module) {
  // Budget estimate only: DecodedInstr is 64-byte aligned, plus block tables.
  return module.num_instructions() * 64 + module.num_functions() * 128;
}

}  // namespace

ContentHash HashContent(const void* data, size_t size) {
  ContentHash hash;
  hash.hi = HashBytes(data, size);
  hash.lo = HashBytesSeeded(data, size, 0x6c62272e07bb0142ULL);
  return hash;
}

ContentHash HashModule(const Module& module) {
  const std::string text = module.ToString();
  return HashContent(text.data(), text.size());
}

ArtifactKey DecodedModuleKey(const ContentHash& module_hash) {
  return {ArtifactKind::kDecodedModule, module_hash.hi, module_hash.lo};
}

ArtifactKey TicfgKey(const ContentHash& module_hash) {
  return {ArtifactKind::kTicfg, module_hash.hi, module_hash.lo};
}

ArtifactKey SliceKey(const ContentHash& module_hash, InstrId failure) {
  return {ArtifactKind::kSlice, HashCombine(module_hash.hi, failure),
          HashCombine(module_hash.lo, failure)};
}

ArtifactKey PtDecodeKey(const ContentHash& module_hash, CoreId core,
                        const std::vector<uint8_t>& bytes) {
  const ContentHash stream = HashContent(bytes.data(), bytes.size());
  return {ArtifactKind::kPtDecode, HashCombine(HashCombine(module_hash.hi, core), stream.hi),
          HashCombine(HashCombine(module_hash.lo, core), stream.lo)};
}

ArtifactKey PlanRotationsKey(const ContentHash& module_hash, uint64_t plan_hash, uint32_t slots) {
  return {ArtifactKind::kPlanRotations, HashCombine(module_hash.hi, plan_hash),
          HashCombine(HashCombine(module_hash.lo, plan_hash), slots)};
}

std::shared_ptr<const DecodedModule> GetOrDecodeModule(ArtifactStore* store, const Module& module,
                                                       const ContentHash& module_hash) {
  if (store == nullptr) return std::make_shared<const DecodedModule>(module);
  // Fused bodies hold at most one FusedOp per instruction.
  const size_t approx_bytes =
      ApproxDecodedModuleBytes(module) + module.num_instructions() * sizeof(FusedOp);
  return store->GetOrBuildObject<DecodedModule>(
      DecodedModuleKey(module_hash), &module, approx_bytes,
      [&] { return std::make_shared<const DecodedModule>(module); });
}

std::shared_ptr<const Ticfg> GetOrBuildTicfg(ArtifactStore* store, const Module& module,
                                             const ContentHash& module_hash) {
  if (store == nullptr) return std::make_shared<const Ticfg>(module);
  auto built = store->GetOrBuildObject<Ticfg>(TicfgKey(module_hash), &module,
                                              ApproxDecodedModuleBytes(module),
                                              [&] { return std::make_shared<const Ticfg>(module); });
  return built;
}

std::shared_ptr<const StaticSlice> GetOrComputeSlice(ArtifactStore* store, const Ticfg& ticfg,
                                                     const ContentHash& module_hash,
                                                     InstrId failure) {
  if (store == nullptr) {
    return std::make_shared<const StaticSlice>(ComputeBackwardSlice(ticfg, failure));
  }
  return store->GetOrBuild<StaticSlice>(
      SliceKey(module_hash, failure), [&] { return ComputeBackwardSlice(ticfg, failure); },
      [](const StaticSlice& slice) { return EncodeSlice(slice); },
      [](std::string_view bytes) { return DecodeSliceBytes(bytes); });
}

std::shared_ptr<const PtDecodeResult> GetOrDecodePt(ArtifactStore* store, const Module& module,
                                                    const ContentHash& module_hash, CoreId core,
                                                    const std::vector<uint8_t>& bytes) {
  if (store == nullptr || bytes.empty()) {
    return std::make_shared<const PtDecodeResult>(DecodePt(module, core, bytes));
  }
  return store->GetOrBuild<PtDecodeResult>(
      PtDecodeKey(module_hash, core, bytes), [&] { return DecodePt(module, core, bytes); },
      [](const PtDecodeResult& result) { return EncodePtDecodeResult(result); },
      [](std::string_view encoded) { return DecodePtDecodeResultBytes(encoded); });
}

std::string EncodeSlice(const StaticSlice& slice) {
  ByteWriter writer;
  writer.U32(slice.failure);
  writer.U64(slice.instrs.size());
  for (InstrId instr : slice.instrs) writer.U32(instr);
  return writer.Take();
}

std::optional<StaticSlice> DecodeSliceBytes(std::string_view bytes) {
  ByteReader reader(bytes);
  StaticSlice slice;
  slice.failure = reader.U32();
  const uint64_t count = reader.U64();
  if (!reader.ok() || count > bytes.size()) return std::nullopt;
  slice.instrs.reserve(count);
  slice.members.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const InstrId instr = reader.U32();
    slice.instrs.push_back(instr);
    slice.members.insert(instr);
  }
  if (!reader.AtEnd()) return std::nullopt;
  return slice;
}

std::string EncodePtDecodeResult(const PtDecodeResult& result) {
  ByteWriter writer;
  writer.U32(result.trace.core);
  writer.U8(result.trace.overflow ? 1 : 0);
  writer.U64(result.trace.visits.size());
  for (const PtVisit& visit : result.trace.visits) {
    writer.U32(visit.tid);
    writer.U32(visit.function);
    writer.U32(visit.block);
    writer.U32(visit.first_index);
    writer.U32(visit.last_index);
  }
  writer.U64(result.trace.branches.size());
  for (const PtBranch& branch : result.trace.branches) {
    writer.U32(branch.tid);
    writer.U32(branch.instr);
    writer.U8(branch.taken ? 1 : 0);
  }
  writer.U64(result.stats.packets);
  writer.U64(result.stats.bytes);
  writer.U64(result.stats.tnt_packets);
  writer.U64(result.stats.tnt_bits);
  writer.U64(result.stats.tip_packets);
  writer.U64(result.stats.toggle_packets);
  writer.U8(result.error.has_value() ? 1 : 0);
  if (result.error.has_value()) {
    writer.U8(static_cast<uint8_t>(result.error->fault));
    writer.U64(result.error->offset);
    writer.Str(result.error->message);
  }
  return writer.Take();
}

std::optional<PtDecodeResult> DecodePtDecodeResultBytes(std::string_view bytes) {
  ByteReader reader(bytes);
  PtDecodeResult result;
  result.trace.core = reader.U32();
  result.trace.overflow = reader.U8() != 0;
  const uint64_t num_visits = reader.U64();
  if (!reader.ok() || num_visits > bytes.size()) return std::nullopt;
  result.trace.visits.reserve(num_visits);
  for (uint64_t i = 0; i < num_visits; ++i) {
    PtVisit visit;
    visit.tid = reader.U32();
    visit.function = reader.U32();
    visit.block = reader.U32();
    visit.first_index = reader.U32();
    visit.last_index = reader.U32();
    result.trace.visits.push_back(visit);
  }
  const uint64_t num_branches = reader.U64();
  if (!reader.ok() || num_branches > bytes.size()) return std::nullopt;
  result.trace.branches.reserve(num_branches);
  for (uint64_t i = 0; i < num_branches; ++i) {
    PtBranch branch;
    branch.tid = reader.U32();
    branch.instr = reader.U32();
    branch.taken = reader.U8() != 0;
    result.trace.branches.push_back(branch);
  }
  result.stats.packets = reader.U64();
  result.stats.bytes = reader.U64();
  result.stats.tnt_packets = reader.U64();
  result.stats.tnt_bits = reader.U64();
  result.stats.tip_packets = reader.U64();
  result.stats.toggle_packets = reader.U64();
  if (reader.U8() != 0) {
    PtDecodeError error;
    const uint8_t fault = reader.U8();
    if (fault > static_cast<uint8_t>(PtDecodeFault::kRunawayWalk)) return std::nullopt;
    error.fault = static_cast<PtDecodeFault>(fault);
    error.offset = reader.U64();
    error.message = reader.Str();
    result.error = std::move(error);
  }
  if (!reader.AtEnd()) return std::nullopt;
  return result;
}

}  // namespace gist
