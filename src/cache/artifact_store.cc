#include "src/cache/artifact_store.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/obs/metrics.h"
#include "src/support/str.h"

namespace gist {
namespace {

namespace fs = std::filesystem;

// Disk record layout (gist.artifact.v1, little-endian):
//   magic[16] | kind u8 | hi u64 | lo u64 | payload_size u64 | checksum u64 | payload
// checksum = FNV-1a over the payload. Any mismatch between header fields,
// file size, and checksum quarantines the record.
constexpr char kMagic[16] = {'g', 'i', 's', 't', '.', 'a', 'r', 't',
                             'i', 'f', 'a', 'c', 't', '.', 'v', '1'};
constexpr size_t kHeaderBytes = sizeof(kMagic) + 1 + 8 + 8 + 8 + 8;
constexpr char kRecordSuffix[] = ".art";
constexpr char kQuarantineSuffix[] = ".corrupt";

void PutU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

uint64_t GetU64(const char* p) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  return value;
}

// Validates a whole record file's contents. On success fills *payload (may be
// null when only validation is wanted) and returns true.
bool ParseRecord(const std::string& file, const ArtifactKey* expect_key, std::string* payload) {
  if (file.size() < kHeaderBytes) return false;
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) return false;
  const char* p = file.data() + sizeof(kMagic);
  const uint8_t kind = static_cast<uint8_t>(*p++);
  if (kind >= kNumArtifactKinds) return false;
  const uint64_t hi = GetU64(p);
  p += 8;
  const uint64_t lo = GetU64(p);
  p += 8;
  const uint64_t payload_size = GetU64(p);
  p += 8;
  const uint64_t checksum = GetU64(p);
  p += 8;
  if (file.size() - kHeaderBytes != payload_size) return false;
  if (expect_key != nullptr) {
    if (kind != static_cast<uint8_t>(expect_key->kind) || hi != expect_key->hi ||
        lo != expect_key->lo) {
      return false;
    }
  }
  if (HashBytes(p, payload_size) != checksum) return false;
  if (payload != nullptr) payload->assign(p, payload_size);
  return true;
}

bool ReadWholeFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return in.good() || in.eof();
}

// "slice-0123456789abcdef0123456789abcdef.art"
std::string RecordFileName(const ArtifactKey& key) {
  return StrFormat("%s-%016llx%016llx%s", ArtifactKindName(key.kind),
                   static_cast<unsigned long long>(key.hi), static_cast<unsigned long long>(key.lo),
                   kRecordSuffix);
}

bool HasSuffix(const std::string& name, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
}

// "slice-<hex>.art" -> "slice"; empty when the name is not a record name.
std::string KindFromFileName(const std::string& name) {
  const size_t dash = name.find('-');
  if (dash == std::string::npos) return "";
  const std::string kind = name.substr(0, dash);
  for (size_t k = 0; k < kNumArtifactKinds; ++k) {
    if (kind == ArtifactKindName(static_cast<ArtifactKind>(k))) return kind;
  }
  return "";
}

void AppendStatLine(std::string* out, const std::string& key, uint64_t value, bool* first) {
  if (!*first) *out += ",\n";
  *first = false;
  *out += StrFormat("  \"%s\": %llu", key.c_str(), static_cast<unsigned long long>(value));
}

}  // namespace

const char* ArtifactKindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kSlice:
      return "slice";
    case ArtifactKind::kDecodedModule:
      return "decoded_module";
    case ArtifactKind::kTicfg:
      return "ticfg";
    case ArtifactKind::kPtDecode:
      return "pt_decode";
    case ArtifactKind::kPlanRotations:
      return "plan_rotations";
    case ArtifactKind::kPredictors:
      return "predictors";
  }
  return "unknown";
}

ArtifactKindStats StoreStats::Total() const {
  ArtifactKindStats total;
  for (const ArtifactKindStats& kind : kinds) {
    total.hits_mem += kind.hits_mem;
    total.hits_disk += kind.hits_disk;
    total.misses += kind.misses;
    total.inserts += kind.inserts;
    total.evictions += kind.evictions;
    total.disk_writes += kind.disk_writes;
    total.corrupt += kind.corrupt;
    total.verified += kind.verified;
    total.bytes += kind.bytes;
  }
  return total;
}

ArtifactStore::ArtifactStore(ArtifactStoreOptions options) : options_(std::move(options)) {
  GIST_CHECK(options_.shards > 0);
  const char* env = std::getenv("GIST_CACHE_VERIFY");
  verify_ = options_.verify || (env != nullptr && env[0] == '1');
  shard_budget_ = options_.mem_budget_bytes / options_.shards;
  shards_.reserve(options_.shards);
  for (uint32_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (!options_.disk_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options_.disk_dir, ec);
    if (ec) {
      std::fprintf(stderr, "gist: cache dir %s unavailable (%s); disk tier disabled\n",
                   options_.disk_dir.c_str(), ec.message().c_str());
      options_.disk_dir.clear();
    }
  }
}

ArtifactStore::Shard& ArtifactStore::ShardFor(const ArtifactKey& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

std::shared_ptr<const void> ArtifactStore::LookupMemory(const ArtifactKey& key, const void* owner) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return nullptr;
  // An object-tier entry whose owner differs is a different live Module with
  // colliding content; treat as a miss so the insert replaces it.
  if (it->second.owner != owner) return nullptr;
  counters_[static_cast<size_t>(key.kind)].hits_mem += 1;
  return it->second.value;
}

void ArtifactStore::InsertMemory(const ArtifactKey& key, std::shared_ptr<const void> value,
                                 size_t bytes, const void* owner) {
  KindCounters& counters = counters_[static_cast<size_t>(key.kind)];
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // Replace in place (owner changed, or a concurrent build raced us): the
    // entry keeps its position in the insertion order.
    shard.bytes -= it->second.bytes;
    counters_[static_cast<size_t>(key.kind)].bytes -= static_cast<int64_t>(it->second.bytes);
    it->second.value = std::move(value);
    it->second.bytes = bytes;
    it->second.owner = owner;
    shard.bytes += bytes;
    counters.bytes += static_cast<int64_t>(bytes);
    return;
  }
  shard.order.push_back(key);
  Entry entry;
  entry.value = std::move(value);
  entry.bytes = bytes;
  entry.owner = owner;
  entry.order_it = std::prev(shard.order.end());
  shard.entries.emplace(key, std::move(entry));
  shard.bytes += bytes;
  counters.inserts += 1;
  counters.bytes += static_cast<int64_t>(bytes);
  // FIFO eviction: oldest insertions leave first, but the shard always keeps
  // its newest entry so one oversized artifact still serves its campaign.
  while (shard.bytes > shard_budget_ && shard.order.size() > 1) {
    const ArtifactKey victim_key = shard.order.front();
    auto victim = shard.entries.find(victim_key);
    GIST_CHECK(victim != shard.entries.end());
    shard.bytes -= victim->second.bytes;
    KindCounters& victim_counters = counters_[static_cast<size_t>(victim_key.kind)];
    victim_counters.evictions += 1;
    victim_counters.bytes -= static_cast<int64_t>(victim->second.bytes);
    shard.order.pop_front();
    shard.entries.erase(victim);
  }
}

bool ArtifactStore::ReadDiskRecord(const ArtifactKey& key, std::string* payload) {
  if (options_.disk_dir.empty()) return false;
  const std::string path = RecordPath(key);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return false;
  std::string file;
  if (!ReadWholeFile(path, &file)) {
    QuarantineDiskRecord(key, "record unreadable");
    return false;
  }
  if (!ParseRecord(file, &key, payload)) {
    QuarantineDiskRecord(key, "record failed validation");
    return false;
  }
  return true;
}

void ArtifactStore::WriteDiskRecord(const ArtifactKey& key, std::string_view payload) {
  if (options_.disk_dir.empty()) return;
  const std::string path = RecordPath(key);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    std::string header(kMagic, sizeof(kMagic));
    header.push_back(static_cast<char>(key.kind));
    PutU64(&header, key.hi);
    PutU64(&header, key.lo);
    PutU64(&header, payload.size());
    PutU64(&header, HashBytes(payload.data(), payload.size()));
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  counters_[static_cast<size_t>(key.kind)].disk_writes += 1;
}

void ArtifactStore::QuarantineDiskRecord(const ArtifactKey& key, const char* reason) {
  counters_[static_cast<size_t>(key.kind)].corrupt += 1;
  const std::string path = RecordPath(key);
  std::fprintf(stderr, "gist: quarantining cache record %s: %s\n", path.c_str(), reason);
  std::error_code ec;
  fs::rename(path, path + kQuarantineSuffix, ec);
  if (ec) fs::remove(path, ec);
}

void ArtifactStore::VerifyHit(const ArtifactKey& key, std::string_view cached,
                              std::string_view rebuilt) {
  GIST_CHECK(cached == rebuilt) << "GIST_CACHE_VERIFY: cached " << ArtifactKindName(key.kind)
                                << " artifact "
                                << StrFormat("%016llx%016llx", static_cast<unsigned long long>(key.hi),
                                             static_cast<unsigned long long>(key.lo))
                                << " differs from a fresh rebuild (cached " << cached.size()
                                << " bytes, rebuilt " << rebuilt.size() << " bytes)";
  counters_[static_cast<size_t>(key.kind)].verified += 1;
}

std::string ArtifactStore::RecordPath(const ArtifactKey& key) const {
  return (fs::path(options_.disk_dir) / RecordFileName(key)).string();
}

void ArtifactStore::PurgeOwner(const void* owner) {
  GIST_CHECK(owner != nullptr);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->order.begin(); it != shard->order.end();) {
      auto entry = shard->entries.find(*it);
      GIST_CHECK(entry != shard->entries.end());
      if (entry->second.owner != owner) {
        ++it;
        continue;
      }
      shard->bytes -= entry->second.bytes;
      counters_[static_cast<size_t>(it->kind)].bytes -= static_cast<int64_t>(entry->second.bytes);
      shard->entries.erase(entry);
      it = shard->order.erase(it);
    }
  }
}

void ArtifactStore::PurgeMemory() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->entries) {
      counters_[static_cast<size_t>(key.kind)].bytes -= static_cast<int64_t>(entry.bytes);
    }
    shard->entries.clear();
    shard->order.clear();
    shard->bytes = 0;
  }
}

StoreStats ArtifactStore::Snapshot() const {
  StoreStats stats;
  for (size_t k = 0; k < kNumArtifactKinds; ++k) {
    const KindCounters& counters = counters_[k];
    ArtifactKindStats& out = stats.kinds[k];
    out.hits_mem = counters.hits_mem.load();
    out.hits_disk = counters.hits_disk.load();
    out.misses = counters.misses.load();
    out.inserts = counters.inserts.load();
    out.evictions = counters.evictions.load();
    out.disk_writes = counters.disk_writes.load();
    out.corrupt = counters.corrupt.load();
    out.verified = counters.verified.load();
    const int64_t bytes = counters.bytes.load();
    out.bytes = bytes > 0 ? static_cast<uint64_t>(bytes) : 0;
  }
  return stats;
}

std::string ArtifactStore::StatsJson() const {
  const StoreStats stats = Snapshot();
  const ArtifactKindStats total = stats.Total();
  std::string out = "{\n";
  out += "  \"schema\": \"gist.cachestats.v1\"";
  bool first = false;
  for (size_t k = 0; k < kNumArtifactKinds; ++k) {
    const std::string name = ArtifactKindName(static_cast<ArtifactKind>(k));
    const ArtifactKindStats& kind = stats.kinds[k];
    AppendStatLine(&out, "cache.hits." + name, kind.hits(), &first);
    AppendStatLine(&out, "cache.hits_mem." + name, kind.hits_mem, &first);
    AppendStatLine(&out, "cache.hits_disk." + name, kind.hits_disk, &first);
    AppendStatLine(&out, "cache.misses." + name, kind.misses, &first);
    AppendStatLine(&out, "cache.inserts." + name, kind.inserts, &first);
    AppendStatLine(&out, "cache.evictions." + name, kind.evictions, &first);
    AppendStatLine(&out, "cache.disk_writes." + name, kind.disk_writes, &first);
    AppendStatLine(&out, "cache.corrupt." + name, kind.corrupt, &first);
    AppendStatLine(&out, "cache.verified." + name, kind.verified, &first);
    AppendStatLine(&out, "cache.bytes." + name, kind.bytes, &first);
  }
  AppendStatLine(&out, "cache.hits", total.hits(), &first);
  AppendStatLine(&out, "cache.misses", total.misses, &first);
  AppendStatLine(&out, "cache.evictions", total.evictions, &first);
  AppendStatLine(&out, "cache.corrupt", total.corrupt, &first);
  AppendStatLine(&out, "cache.verified", total.verified, &first);
  AppendStatLine(&out, "cache.bytes", total.bytes, &first);
  out += "\n}\n";
  return out;
}

void ArtifactStore::PublishStats(MetricsRegistry* metrics) const {
  const StoreStats stats = Snapshot();
  const ArtifactKindStats total = stats.Total();
  for (size_t k = 0; k < kNumArtifactKinds; ++k) {
    const std::string name = ArtifactKindName(static_cast<ArtifactKind>(k));
    const ArtifactKindStats& kind = stats.kinds[k];
    metrics->Add("cache.hits." + name, kind.hits());
    metrics->Add("cache.misses." + name, kind.misses);
    metrics->Add("cache.evictions." + name, kind.evictions);
    metrics->Set("cache.bytes." + name, static_cast<int64_t>(kind.bytes));
  }
  metrics->Add("cache.hits", total.hits());
  metrics->Add("cache.misses", total.misses);
  metrics->Add("cache.evictions", total.evictions);
  metrics->Set("cache.bytes", static_cast<int64_t>(total.bytes));
}

std::map<std::string, ArtifactStore::DiskScanEntry> ArtifactStore::ScanDisk(
    const std::string& dir) {
  std::map<std::string, DiskScanEntry> result;
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!dirent.is_regular_file()) continue;
    const std::string name = dirent.path().filename().string();
    const std::string kind = KindFromFileName(name);
    if (kind.empty()) continue;
    if (HasSuffix(name, kQuarantineSuffix)) {
      result[kind].corrupt += 1;
      continue;
    }
    if (!HasSuffix(name, kRecordSuffix)) continue;
    DiskScanEntry& entry = result[kind];
    std::string file;
    if (!ReadWholeFile(dirent.path(), &file) || !ParseRecord(file, nullptr, nullptr)) {
      entry.corrupt += 1;
      continue;
    }
    entry.records += 1;
    entry.bytes += file.size();
  }
  return result;
}

uint64_t ArtifactStore::PurgeDisk(const std::string& dir) {
  uint64_t removed = 0;
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!dirent.is_regular_file()) continue;
    const std::string name = dirent.path().filename().string();
    if (KindFromFileName(name).empty()) continue;
    if (!HasSuffix(name, kRecordSuffix) && !HasSuffix(name, kQuarantineSuffix)) continue;
    std::error_code remove_ec;
    if (fs::remove(dirent.path(), remove_ec) && !remove_ec) ++removed;
  }
  return removed;
}

}  // namespace gist
