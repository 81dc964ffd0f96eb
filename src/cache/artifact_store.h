// Content-addressed artifact store (DESIGN.md §11).
//
// Slices, DecodedModules, Ticfgs, PT decode results, and watchpoint-rotation
// lists are pure functions of (module content, parameters) but were rebuilt
// by every campaign. The store keys each artifact on a stable 128-bit content
// hash and serves repeats from a sharded, byte-budgeted in-memory tier plus
// an optional on-disk tier (`--cache-dir`), so AsT iterations and repeated
// campaigns warm-start instead of re-slicing / re-decoding.
//
// Determinism contract (the interesting part — tested in cache_test and
// fleet_cache_test):
//   * a hit hands back exactly what a cold build would produce: keys cover
//     every input, and GIST_CACHE_VERIFY=1 re-runs the builder on every
//     serialized-artifact hit and CHECKs byte equality against the cached
//     copy;
//   * eviction is FIFO over insertion order — hits never reorder entries and
//     no wall clock is consulted — so which entries survive a budget is a
//     pure function of the insertion sequence;
//   * store *stats* necessarily differ between warm and cold runs, so they
//     never enter the deterministic metrics/trace exports: they live in the
//     store (StatsJson(), `gist cache`), and the fleet surfaces them only
//     through FlightRecorder's annotation side channel. PublishStats() is for
//     embedders that explicitly want them in a registry of their own.
//
// Thread safety: all operations are safe to call concurrently (per-shard
// mutexes, atomic stats). The fleet nevertheless performs every store access
// on the coordinator thread in run-index order, which is what makes the
// stats themselves — not just the artifact values — independent of `--jobs`.
//
// Two storage flavors:
//   * serialized artifacts (GetOrBuild): the value has a byte codec; hits are
//     shared decoded objects, the encoded size charges the memory budget, and
//     the bytes round-trip through the disk tier as versioned
//     `gist.artifact.v1` records (checksum-validated; corrupt records are
//     quarantined, never trusted);
//   * object artifacts (GetOrBuildObject): the value borrows from a live
//     Module (DecodedModule's instruction pointers, Ticfg's CFG references)
//     and is memory-tier only. Each entry records its owner; a hit requires
//     the same owner pointer, and owners being torn down must PurgeOwner()
//     first — entries must never outlive what they borrow from.

#ifndef GIST_SRC_CACHE_ARTIFACT_STORE_H_
#define GIST_SRC_CACHE_ARTIFACT_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/support/check.h"

namespace gist {

class MetricsRegistry;

enum class ArtifactKind : uint8_t {
  kSlice = 0,          // StaticSlice per (module, failing statement)
  kDecodedModule = 1,  // pre-decoded interpreter image (object tier)
  kTicfg = 2,          // shared static-analysis context (object tier)
  kPtDecode = 3,       // PT decode result per (module, core, packet bytes)
  kPlanRotations = 4,  // §3.2.3 watchpoint rotation list (object tier)
  kPredictors = 5,     // per-trace failure-predictor set (object tier)
};
inline constexpr size_t kNumArtifactKinds = 6;

// Stable snake_case identifier ("slice", "pt_decode", ...) used in stats
// keys, disk record names, and the `gist cache` report.
const char* ArtifactKindName(ArtifactKind kind);

// Content address of one artifact: the kind plus a 128-bit hash covering
// every input of the build (module bytes and all parameters). Key derivation
// lives in factories.h next to the builders it must stay in sync with.
struct ArtifactKey {
  ArtifactKind kind = ArtifactKind::kSlice;
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const ArtifactKey& other) const {
    return kind == other.kind && hi == other.hi && lo == other.lo;
  }
};

// Per-kind counters; every field is cumulative since construction except
// `bytes`, the current resident memory-tier charge.
struct ArtifactKindStats {
  uint64_t hits_mem = 0;
  uint64_t hits_disk = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t disk_writes = 0;
  uint64_t corrupt = 0;   // disk records rejected and quarantined
  uint64_t verified = 0;  // GIST_CACHE_VERIFY hit-vs-rebuild comparisons
  uint64_t bytes = 0;     // resident memory-tier bytes (current, not cumulative)

  uint64_t hits() const { return hits_mem + hits_disk; }
};

struct StoreStats {
  ArtifactKindStats kinds[kNumArtifactKinds];

  ArtifactKindStats Total() const;
};

struct ArtifactStoreOptions {
  // Memory-tier budget, split evenly across shards. Exceeding a shard's
  // share evicts its oldest entries (FIFO), though a shard always retains
  // its newest entry so single oversized artifacts still serve the campaign
  // that built them.
  size_t mem_budget_bytes = size_t{256} << 20;
  uint32_t shards = 8;
  // Non-empty: serialized artifacts also persist here as gist.artifact.v1
  // records (created if missing). Object artifacts never touch disk.
  std::string disk_dir;
  // Re-run the builder on every serialized-artifact hit and CHECK byte
  // equality. OR-ed with the GIST_CACHE_VERIFY=1 environment variable.
  bool verify = false;
};

class ArtifactStore {
 public:
  explicit ArtifactStore(ArtifactStoreOptions options = {});

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  // Serialized artifact: returns the cached value for `key`, falling back to
  // disk and then to `build()`. `encode(const T&) -> std::string` and
  // `decode(std::string_view) -> std::optional<T>` form the codec; decode
  // failure on a disk record quarantines it like a checksum mismatch.
  template <typename T, typename Build, typename Encode, typename Decode>
  std::shared_ptr<const T> GetOrBuild(const ArtifactKey& key, Build&& build, Encode&& encode,
                                      Decode&& decode) {
    if (std::shared_ptr<const void> hit = LookupMemory(key, /*owner=*/nullptr)) {
      auto typed = std::static_pointer_cast<const T>(hit);
      if (verify_) {
        VerifyHit(key, encode(*typed), encode(build()));
      }
      return typed;
    }
    std::string payload;
    if (ReadDiskRecord(key, &payload)) {
      if (std::optional<T> value = decode(payload)) {
        if (verify_) {
          VerifyHit(key, payload, encode(build()));
        }
        auto object = std::make_shared<const T>(std::move(*value));
        CountDiskHit(key.kind);
        InsertMemory(key, object, payload.size(), /*owner=*/nullptr);
        return object;
      }
      QuarantineDiskRecord(key, "payload failed to decode");
    }
    CountMiss(key.kind);
    auto object = std::make_shared<const T>(build());
    std::string encoded = encode(*object);
    InsertMemory(key, object, encoded.size(), /*owner=*/nullptr);
    WriteDiskRecord(key, encoded);
    return object;
  }

  // Object artifact (memory tier only): `build() -> std::shared_ptr<const T>`.
  // `owner` is what the value borrows from (the Module); a cached entry only
  // hits for the same owner pointer, and `approx_bytes` charges the budget in
  // place of an encoded size. Verify mode cannot byte-compare these — their
  // bit-identity is covered by the fleet-level export-equality tests.
  template <typename T, typename Build>
  std::shared_ptr<const T> GetOrBuildObject(const ArtifactKey& key, const void* owner,
                                            size_t approx_bytes, Build&& build) {
    GIST_CHECK(owner != nullptr);
    if (std::shared_ptr<const void> hit = LookupMemory(key, owner)) {
      return std::static_pointer_cast<const T>(hit);
    }
    CountMiss(key.kind);
    std::shared_ptr<const T> object = build();
    InsertMemory(key, object, approx_bytes, owner);
    return object;
  }

  // Drops every memory-tier entry borrowing from `owner`. Required before the
  // owner (a Module) is destroyed while the store lives on.
  void PurgeOwner(const void* owner);

  // Drops the whole memory tier (disk records survive).
  void PurgeMemory();

  StoreStats Snapshot() const;

  // Flat deterministic JSON ("gist.cachestats.v1"): one "cache.<field>.<kind>"
  // number per kind plus "cache.{hits,misses,evictions,bytes,corrupt}"
  // totals — the exact names PublishStats() uses, so `gist cache` reads both.
  std::string StatsJson() const;

  // Publishes the same counters/gauges into `metrics`. Deliberately NOT
  // called by the fleet: hit/miss counts differ between warm and cold runs,
  // and the fleet's metrics export must not (DESIGN.md §11).
  void PublishStats(MetricsRegistry* metrics) const;

  bool verify() const { return verify_; }
  const std::string& disk_dir() const { return options_.disk_dir; }

  // --- disk-tier maintenance (the `gist cache` subcommand) -----------------
  struct DiskScanEntry {
    uint64_t records = 0;
    uint64_t bytes = 0;
    uint64_t corrupt = 0;  // failed validation during this scan, or already quarantined
  };
  // Validates every record under `dir` (header + checksum) and tallies per
  // kind name; previously quarantined records count as corrupt.
  static std::map<std::string, DiskScanEntry> ScanDisk(const std::string& dir);
  // Removes every record (including quarantined ones); returns files removed.
  static uint64_t PurgeDisk(const std::string& dir);

 private:
  struct Entry {
    std::shared_ptr<const void> value;
    size_t bytes = 0;
    const void* owner = nullptr;  // null for serialized artifacts
    std::list<ArtifactKey>::iterator order_it;
  };
  struct KeyHash {
    size_t operator()(const ArtifactKey& key) const {
      return static_cast<size_t>(key.hi ^ (key.lo * 0x9e3779b97f4a7c15ULL) ^
                                 static_cast<uint64_t>(key.kind));
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<ArtifactKey, Entry, KeyHash> entries;
    std::list<ArtifactKey> order;  // FIFO: front = oldest insertion
    size_t bytes = 0;
  };
  struct KindCounters {
    std::atomic<uint64_t> hits_mem{0};
    std::atomic<uint64_t> hits_disk{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> disk_writes{0};
    std::atomic<uint64_t> corrupt{0};
    std::atomic<uint64_t> verified{0};
    std::atomic<int64_t> bytes{0};
  };

  Shard& ShardFor(const ArtifactKey& key);
  std::shared_ptr<const void> LookupMemory(const ArtifactKey& key, const void* owner);
  void InsertMemory(const ArtifactKey& key, std::shared_ptr<const void> value, size_t bytes,
                    const void* owner);
  bool ReadDiskRecord(const ArtifactKey& key, std::string* payload);
  void WriteDiskRecord(const ArtifactKey& key, std::string_view payload);
  void QuarantineDiskRecord(const ArtifactKey& key, const char* reason);
  void VerifyHit(const ArtifactKey& key, std::string_view cached, std::string_view rebuilt);
  void CountMiss(ArtifactKind kind) { counters_[static_cast<size_t>(kind)].misses += 1; }
  void CountDiskHit(ArtifactKind kind) { counters_[static_cast<size_t>(kind)].hits_disk += 1; }
  std::string RecordPath(const ArtifactKey& key) const;

  ArtifactStoreOptions options_;
  bool verify_ = false;
  size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  KindCounters counters_[kNumArtifactKinds];
};

}  // namespace gist

#endif  // GIST_SRC_CACHE_ARTIFACT_STORE_H_
