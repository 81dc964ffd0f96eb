#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>

#include "src/support/str.h"

namespace gist {
namespace {

uint32_t BucketFor(uint64_t value) {
  if (value == 0) {
    return 0;
  }
  return std::min<uint32_t>(static_cast<uint32_t>(std::bit_width(value)), Histogram::kBuckets - 1);
}

bool HasPrefix(std::string_view name, std::string_view prefix) {
  return !prefix.empty() && name.substr(0, prefix.size()) == prefix;
}

}  // namespace

void Histogram::Observe(uint64_t value) {
  ++buckets[BucketFor(value)];
  ++count;
  sum += value;
}

void Histogram::Merge(const Histogram& other) {
  for (uint32_t i = 0; i < kBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
}

void MetricsRegistry::Add(std::string_view name, uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::Set(std::string_view name, int64_t value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::SetMax(std::string_view name, int64_t value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else if (value > it->second) {
    it->second = value;
  }
}

void MetricsRegistry::Observe(std::string_view name, uint64_t value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  it->second.Observe(value);
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    Add(name, value);
  }
  for (const auto& [name, value] : other.gauges_) {
    Set(name, value);
  }
  for (const auto& [name, hist] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, hist);
    } else {
      it->second.Merge(hist);
    }
  }
}

uint64_t* MetricsRegistry::CounterSlot(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), 0).first;
  }
  return &it->second;
}

int64_t* MetricsRegistry::GaugeSlot(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), 0).first;
  }
  return &it->second;
}

Histogram* MetricsRegistry::HistogramSlot(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return &it->second;
}

uint64_t MetricsRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t MetricsRegistry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const Histogram* MetricsRegistry::histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::ToJson(std::string_view exclude_prefix) const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (HasPrefix(name, exclude_prefix)) {
      continue;
    }
    out += StrFormat("%s\n    \"%s\": %llu", first ? "" : ",", name.c_str(),
                     static_cast<unsigned long long>(value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    if (HasPrefix(name, exclude_prefix)) {
      continue;
    }
    out += StrFormat("%s\n    \"%s\": %lld", first ? "" : ",", name.c_str(),
                     static_cast<long long>(value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (HasPrefix(name, exclude_prefix)) {
      continue;
    }
    out += StrFormat("%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, \"buckets\": [",
                     first ? "" : ",", name.c_str(), static_cast<unsigned long long>(hist.count),
                     static_cast<unsigned long long>(hist.sum));
    // Trailing zero buckets are trimmed so snapshots stay readable; leading
    // and interior zeros are kept so indices still mean bit widths.
    uint32_t last = Histogram::kBuckets;
    while (last > 0 && hist.buckets[last - 1] == 0) {
      --last;
    }
    for (uint32_t i = 0; i < last; ++i) {
      out += StrFormat("%s%llu", i == 0 ? "" : ", ",
                       static_cast<unsigned long long>(hist.buckets[i]));
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace gist
