// Deterministic metrics registry (DESIGN.md §9).
//
// Counters, gauges, and fixed-bucket histograms keyed by dotted metric names
// ("pt.decode.packets"). Everything is integer-valued and stored in ordered
// maps, so a snapshot serializes to the same bytes on every platform and for
// every worker count: the fleet records per-run shards on the coordinator
// thread in run-index order (the FleetResult merge discipline), making the
// merged registry a pure function of (module, options, fleet_seed).
//
// There is deliberately no wall-clock, no floating point, and no sampling in
// here — anything non-deterministic lives in FlightRecorder's annotation
// side channel, which never reaches ToJson().

#ifndef GIST_SRC_OBS_METRICS_H_
#define GIST_SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace gist {

// Power-of-two bucket histogram: bucket 0 counts zero values, bucket i
// (1 ≤ i < kBuckets-1) counts values v with bit_width(v) == i (i.e.
// 2^(i-1) ≤ v < 2^i), and the last bucket absorbs everything wider. 33
// buckets cover the full range a run can produce (steps per run max out in
// the millions; uploads in the megabytes).
struct Histogram {
  static constexpr uint32_t kBuckets = 33;

  uint64_t buckets[kBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;

  void Observe(uint64_t value);
  void Merge(const Histogram& other);
};

class MetricsRegistry {
 public:
  // Counter: monotone uint64 accumulator.
  void Add(std::string_view name, uint64_t delta = 1);
  // Gauge: last write wins. Merging in run-index order keeps this
  // deterministic — "last" means "latest consumed run", not "latest thread".
  void Set(std::string_view name, int64_t value);
  // Gauge flavor that only ever moves up (peak occupancy style).
  void SetMax(std::string_view name, int64_t value);
  // Histogram observation.
  void Observe(std::string_view name, uint64_t value);

  // Merges another registry: counters and histograms add; gauges take the
  // other side's value (the caller merges shards in run-index order, so
  // "other" is always the later shard).
  void Merge(const MetricsRegistry& other);

  // Stable-slot accessors: return a pointer to the named metric's storage,
  // creating a zeroed entry when absent (same creation semantics as
  // Add(name, 0) / Set(name, 0) / Observe-never, so a slot whose value stays
  // untouched still serializes). The maps are node-based, so the pointers
  // stay valid for the registry's lifetime — hot publishers (one publish per
  // consumed run on 10^3+ run fleets) resolve each name once and then bump
  // through the slot instead of re-walking the map.
  uint64_t* CounterSlot(std::string_view name);
  int64_t* GaugeSlot(std::string_view name);
  Histogram* HistogramSlot(std::string_view name);

  // Lookups (0 / nullptr when the name was never recorded).
  uint64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;
  const Histogram* histogram(std::string_view name) const;
  bool empty() const { return counters_.empty() && gauges_.empty() && histograms_.empty(); }

  // Deterministic snapshot: sorted keys, integers only, stable layout.
  // `exclude_prefix` drops every metric whose name starts with it — the
  // determinism tests use it to compare fast-path and reference-dispatch
  // fleets minus the engine-internal ("engine.") dispatch counters.
  std::string ToJson(std::string_view exclude_prefix = {}) const;

 private:
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, int64_t, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace gist

#endif  // GIST_SRC_OBS_METRICS_H_
