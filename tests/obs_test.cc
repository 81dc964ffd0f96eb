// Unit tests for the flight recorder's deterministic core (DESIGN.md §9):
// registry semantics (counter/gauge/histogram, shard merge in run-index
// order), the stable JSON snapshot layout, the virtual-time span trace, and
// the quarantine of the non-deterministic annotation side channel from every
// deterministic export.

#include <gtest/gtest.h>

#include <string>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace gist {
namespace {

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry metrics;
  EXPECT_EQ(metrics.counter("vm.steps"), 0u);
  metrics.Add("vm.steps");
  metrics.Add("vm.steps", 41);
  EXPECT_EQ(metrics.counter("vm.steps"), 42u);
  EXPECT_EQ(metrics.counter("never.recorded"), 0u);
}

TEST(MetricsRegistryTest, GaugesLastWriteWinsAndSetMaxOnlyMovesUp) {
  MetricsRegistry metrics;
  metrics.Set("ast.sigma", 20);
  metrics.Set("ast.sigma", 5);
  EXPECT_EQ(metrics.gauge("ast.sigma"), 5);

  metrics.SetMax("hw.watch.peak_active", 3);
  metrics.SetMax("hw.watch.peak_active", 1);
  EXPECT_EQ(metrics.gauge("hw.watch.peak_active"), 3);
  metrics.SetMax("hw.watch.peak_active", 7);
  EXPECT_EQ(metrics.gauge("hw.watch.peak_active"), 7);
}

TEST(MetricsRegistryTest, HistogramBucketsAreBitWidths) {
  Histogram hist;
  hist.Observe(0);  // bucket 0 is reserved for zero
  hist.Observe(1);  // bit_width 1
  hist.Observe(2);  // bit_width 2
  hist.Observe(3);  // bit_width 2
  hist.Observe(4);  // bit_width 3
  hist.Observe(~0ull);  // bit_width 64 clamps into the overflow bucket
  EXPECT_EQ(hist.buckets[0], 1u);
  EXPECT_EQ(hist.buckets[1], 1u);
  EXPECT_EQ(hist.buckets[2], 2u);
  EXPECT_EQ(hist.buckets[3], 1u);
  EXPECT_EQ(hist.buckets[Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(hist.count, 6u);
  EXPECT_EQ(hist.sum, 0 + 1 + 2 + 3 + 4 + ~0ull);
}

TEST(MetricsRegistryTest, MergeAddsCountersAndHistogramsGaugesTakeOther) {
  // Shard merge is the fleet's determinism backbone: counters and histograms
  // are order-insensitive sums, gauges take the later (run-index order) shard.
  MetricsRegistry a;
  a.Add("fleet.runs.consumed", 10);
  a.Set("ast.sigma", 20);
  a.Observe("vm.run_steps", 100);

  MetricsRegistry b;
  b.Add("fleet.runs.consumed", 5);
  b.Add("fleet.retries", 1);
  b.Set("ast.sigma", 40);
  b.Observe("vm.run_steps", 200);

  a.Merge(b);
  EXPECT_EQ(a.counter("fleet.runs.consumed"), 15u);
  EXPECT_EQ(a.counter("fleet.retries"), 1u);
  EXPECT_EQ(a.gauge("ast.sigma"), 40);
  const Histogram* hist = a.histogram("vm.run_steps");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2u);
  EXPECT_EQ(hist->sum, 300u);
}

TEST(MetricsRegistryTest, MergeIsAssociativeOverShards) {
  // (s0 + s1) + s2 == s0 + (s1 + s2): the property that makes the merged
  // snapshot independent of batch boundaries.
  MetricsRegistry shards[3];
  for (int i = 0; i < 3; ++i) {
    shards[i].Add("vm.instructions_retired", static_cast<uint64_t>(100 + i));
    shards[i].Observe("pt.upload_bytes", static_cast<uint64_t>(1u << i));
  }

  MetricsRegistry left;
  left.Merge(shards[0]);
  left.Merge(shards[1]);
  left.Merge(shards[2]);

  MetricsRegistry tail;
  tail.Merge(shards[1]);
  tail.Merge(shards[2]);
  MetricsRegistry right;
  right.Merge(shards[0]);
  right.Merge(tail);

  EXPECT_EQ(left.ToJson(), right.ToJson());
}

TEST(MetricsRegistryTest, ToJsonIsSortedAndStable) {
  MetricsRegistry metrics;
  metrics.Add("z.last", 1);
  metrics.Add("a.first", 2);
  metrics.Set("m.gauge", -3);
  const std::string json = metrics.ToJson();
  // Sorted keys: insertion order must not leak into the snapshot.
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"m.gauge\": -3"), std::string::npos);
  // Identical contents serialize to identical bytes.
  MetricsRegistry again;
  again.Add("a.first", 2);
  again.Add("z.last", 1);
  again.Set("m.gauge", -3);
  EXPECT_EQ(json, again.ToJson());
}

TEST(MetricsRegistryTest, ToJsonExcludePrefixDropsEngineCounters) {
  // The cross-interpreter identity tests compare fast-path vs reference
  // fleets minus the dispatch-mode-dependent "engine." namespace.
  MetricsRegistry metrics;
  metrics.Add("engine.bursts", 9);
  metrics.Add("vm.branches", 4);
  metrics.Observe("engine.run_sizes", 8);
  const std::string filtered = metrics.ToJson("engine.");
  EXPECT_EQ(filtered.find("engine."), std::string::npos);
  EXPECT_NE(filtered.find("vm.branches"), std::string::npos);
}

TEST(MetricsRegistryTest, EmptyRegistrySerializes) {
  MetricsRegistry metrics;
  EXPECT_TRUE(metrics.empty());
  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(FlightRecorderTest, VirtualClockAdvancesByRetiredInstructions) {
  FlightRecorder recorder;
  EXPECT_EQ(recorder.now(), 0u);
  recorder.AdvanceClock(1000);
  recorder.AdvanceClock(234);
  EXPECT_EQ(recorder.now(), 1234u);
}

TEST(FlightRecorderTest, SpansAndInstantsRecordVirtualTime) {
  FlightRecorder recorder;
  recorder.AdvanceClock(100);
  const uint64_t begin = recorder.now();
  recorder.AdvanceClock(50);
  recorder.AddSpan("run", "fleet", begin, recorder.now(), FlightRecorder::kRunTrack,
                   {NumArg("run_index", static_cast<uint64_t>(7))});
  recorder.AddInstant("refreeze", "fleet");

  ASSERT_EQ(recorder.spans().size(), 2u);
  const TraceSpan& span = recorder.spans()[0];
  EXPECT_EQ(span.begin, 100u);
  EXPECT_EQ(span.duration, 50u);
  EXPECT_FALSE(span.instant);
  EXPECT_EQ(span.track, FlightRecorder::kRunTrack);
  const TraceSpan& instant = recorder.spans()[1];
  EXPECT_TRUE(instant.instant);
  EXPECT_EQ(instant.begin, 150u);  // stamped at the current virtual time
  EXPECT_EQ(instant.track, FlightRecorder::kControlTrack);
}

TEST(FlightRecorderTest, TraceJsonIsChromeTraceEventFormat) {
  FlightRecorder recorder;
  recorder.AddSpan("iteration", "fleet", 0, 500, FlightRecorder::kControlTrack,
                   {NumArg("sigma", static_cast<int64_t>(20))});
  recorder.AdvanceClock(500);
  recorder.AddInstant("sketch_build", "server", FlightRecorder::kControlTrack,
                      {StrArg("root_cause", "yes")});
  const std::string json = recorder.TraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 500"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 500"), std::string::npos);
  EXPECT_NE(json.find("\"sigma\": 20"), std::string::npos);
  EXPECT_NE(json.find("\"root_cause\": \"yes\""), std::string::npos);
}

TEST(FlightRecorderTest, ArgsEscapeProgramText) {
  // Failure messages can carry quotes/newlines from program text; the trace
  // must stay well-formed JSON.
  FlightRecorder recorder;
  recorder.AddInstant("failure", "server", FlightRecorder::kControlTrack,
                      {StrArg("message", "assert \"x\"\nfailed")});
  const std::string json = recorder.TraceJson();
  EXPECT_NE(json.find("assert \\\"x\\\"\\nfailed"), std::string::npos);
}

TEST(FlightRecorderTest, AnnotationsNeverReachDeterministicExports) {
  // The side channel holds wall-clock and derived floating-point data; by
  // construction none of it may appear in MetricsJson or TraceJson.
  FlightRecorder recorder;
  recorder.metrics().Add("vm.monitored_runs", 3);
  recorder.AddInstant("breakdown", "bench");
  const std::string metrics_before = recorder.MetricsJson();
  const std::string trace_before = recorder.TraceJson();

  recorder.Annotate("fig10.apache-2.static_only", 61.5);
  recorder.Annotate("bench.wall_seconds", 123.456);
  EXPECT_DOUBLE_EQ(recorder.annotation("fig10.apache-2.static_only"), 61.5);
  EXPECT_DOUBLE_EQ(recorder.annotation("missing", -1.0), -1.0);

  EXPECT_EQ(recorder.MetricsJson(), metrics_before);
  EXPECT_EQ(recorder.TraceJson(), trace_before);
}

}  // namespace
}  // namespace gist
