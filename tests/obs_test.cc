#include <algorithm>
#include <cstdlib>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sim/simulator.h"

namespace oodb::obs {
namespace {

TEST(MetricsTest, CounterAddAndRead) {
  MetricsRegistry reg;
  const CounterHandle c = reg.Counter("a");
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(reg.value(c), 0u);
  reg.Add(c);
  reg.Add(c, 41);
  EXPECT_EQ(reg.value(c), 42u);
}

TEST(MetricsTest, ReregisteringReturnsSameSlot) {
  MetricsRegistry reg;
  const CounterHandle a = reg.Counter("a");
  const CounterHandle again = reg.Counter("a");
  EXPECT_EQ(a.slot, again.slot);
  reg.Add(a, 3);
  reg.Add(again, 4);
  EXPECT_EQ(reg.value(a), 7u);
}

TEST(MetricsTest, GaugeKeepsLastSet) {
  MetricsRegistry reg;
  const GaugeHandle g = reg.Gauge("g");
  reg.Set(g, 1.5);
  reg.Set(g, -2.25);
  EXPECT_EQ(reg.value(g), -2.25);
}

TEST(MetricsTest, HistogramBucketsObservations) {
  MetricsRegistry reg;
  const HistogramHandle h = reg.Histogram("h", {1.0, 2.0, 4.0});
  reg.Observe(h, 0.5);   // bucket 0 (<= 1)
  reg.Observe(h, 1.0);   // bucket 0 (inclusive upper bound)
  reg.Observe(h, 3.0);   // bucket 2
  reg.Observe(h, 100.0); // overflow bucket
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs = snap.histogram("h");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->buckets.size(), 4u);
  EXPECT_EQ(hs->buckets[0], 2u);
  EXPECT_EQ(hs->buckets[1], 0u);
  EXPECT_EQ(hs->buckets[2], 1u);
  EXPECT_EQ(hs->buckets[3], 1u);
  EXPECT_EQ(hs->count, 4u);
  EXPECT_DOUBLE_EQ(hs->sum, 104.5);
  EXPECT_DOUBLE_EQ(*hs->Mean(), 104.5 / 4);
}

TEST(MetricsTest, DefaultConstructedHandleNoops) {
  // Subsystems that are off (cc, dyn) leave their handles default-
  // constructed: every mutation through them must no-op and every read
  // must return zero, without touching registered slots.
  MetricsRegistry reg;
  const CounterHandle registered = reg.Counter("a");
  reg.Add(registered, 2);
  const CounterHandle c;
  const GaugeHandle g;
  const HistogramHandle h;
  EXPECT_FALSE(c.valid());
  EXPECT_FALSE(g.valid());
  EXPECT_FALSE(h.valid());
  reg.Add(c, 5);
  reg.SetCounter(c, 7);
  reg.Set(g, 1.0);
  reg.Observe(h, 1.0);
  EXPECT_EQ(reg.value(c), 0u);
  EXPECT_EQ(reg.value(g), 0.0);
  EXPECT_EQ(reg.value(registered), 2u);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsTest, ResetValuesKeepsRegistrations) {
  MetricsRegistry reg;
  const CounterHandle c = reg.Counter("a");
  const HistogramHandle h = reg.Histogram("h", {1.0});
  reg.Add(c, 9);
  reg.Observe(h, 0.5);
  reg.ResetValues();
  EXPECT_EQ(reg.value(c), 0u);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->count, 0u);
  EXPECT_EQ(snap.histogram("h")->Mean(), std::nullopt);
  // The handle still resolves to the same slot.
  reg.Add(c, 2);
  EXPECT_EQ(reg.value(c), 2u);
}

MetricsSnapshot MakeSnapshot(uint64_t a, double g, double observed) {
  MetricsRegistry reg;
  reg.Add(reg.Counter("a"), a);
  reg.Set(reg.Gauge("g"), g);
  reg.Observe(reg.Histogram("h", {1.0, 2.0}), observed);
  return reg.Snapshot();
}

TEST(MetricsTest, MergeSumsAndAppendsDeterministically) {
  MetricsSnapshot merged = MakeSnapshot(1, 0.5, 0.25);
  merged.MergeFrom(MakeSnapshot(2, 1.5, 1.75));
  EXPECT_EQ(*merged.counter("a"), 3u);
  EXPECT_DOUBLE_EQ(*merged.gauge("g"), 2.0);
  const HistogramSnapshot* h = merged.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->buckets[0], 1u);
  EXPECT_EQ(h->buckets[1], 1u);

  // A name only the other snapshot has is appended, preserving its order.
  MetricsRegistry extra;
  extra.Add(extra.Counter("z"), 7);
  merged.MergeFrom(extra.Snapshot());
  EXPECT_EQ(*merged.counter("z"), 7u);
  EXPECT_EQ(merged.counters.back().first, "z");

  // Folding in a different grouping gives the same totals and the JSON
  // rendering is identical — the bit-identical-at-any-job-count property.
  MetricsSnapshot refolded = MakeSnapshot(1, 0.5, 0.25);
  MetricsSnapshot tail = MakeSnapshot(2, 1.5, 1.75);
  tail.MergeFrom(extra.Snapshot());
  refolded.MergeFrom(tail);
  EXPECT_EQ(refolded.ToJson(), merged.ToJson());
}

TEST(MetricsTest, SetCounterOverwritesInsteadOfAdding) {
  MetricsRegistry reg;
  const CounterHandle c = reg.Counter("a");
  reg.SetCounter(c, 10);
  reg.SetCounter(c, 7);  // idempotent mirroring: last write wins
  EXPECT_EQ(reg.value(c), 7u);
  reg.SetCounter(CounterHandle{}, 99);  // invalid handle: no-op
  EXPECT_EQ(reg.value(c), 7u);
}

TEST(MetricsTest, QuantileInterpolatesWithinBuckets) {
  MetricsRegistry reg;
  const HistogramHandle h = reg.Histogram("h", {1.0, 2.0, 4.0});
  reg.Observe(h, 0.5);
  reg.Observe(h, 1.0);
  reg.Observe(h, 3.0);
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs = snap.histogram("h");
  ASSERT_NE(hs, nullptr);
  // Bucket masses: [2, 0, 1, 0] over bounds [0..1], (1..2], (2..4].
  EXPECT_DOUBLE_EQ(hs->Quantile(0.0), 0.0);
  // target = 1.5 of 2 in bucket 0: 0 + 1 * (1.5 / 2).
  EXPECT_DOUBLE_EQ(hs->Quantile(0.5), 0.75);
  // target = 3 lands at the top of bucket 2.
  EXPECT_DOUBLE_EQ(hs->Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(hs->Quantile(2.0), 4.0);  // clamped q
}

TEST(MetricsTest, QuantileClampsOverflowMassToLastBound) {
  MetricsRegistry reg;
  const HistogramHandle h = reg.Histogram("h", {1.0, 2.0});
  reg.Observe(h, 100.0);  // all mass in the overflow bucket
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs = snap.histogram("h");
  ASSERT_NE(hs, nullptr);
  EXPECT_DOUBLE_EQ(hs->Quantile(0.5), 2.0);
}

TEST(MetricsTest, QuantileOfEmptyHistogramIsZero) {
  MetricsRegistry reg;
  reg.Histogram("h", {1.0});
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs = snap.histogram("h");
  ASSERT_NE(hs, nullptr);
  // No interpolation over garbage: empty histograms answer 0.0, and the
  // count field is the "no samples" signal consumers null-guard on.
  EXPECT_EQ(hs->count, 0u);
  EXPECT_DOUBLE_EQ(hs->Quantile(0.5), 0.0);
}

TEST(MetricsTest, RatioIsNullSafe) {
  EXPECT_EQ(MetricsSnapshot::Ratio(std::nullopt, 10), std::nullopt);
  EXPECT_EQ(MetricsSnapshot::Ratio(1, std::nullopt), std::nullopt);
  EXPECT_EQ(MetricsSnapshot::Ratio(1, 0), std::nullopt);
  EXPECT_DOUBLE_EQ(*MetricsSnapshot::Ratio(3, 4), 0.75);
}

TEST(MetricsTest, SnapshotJsonShape) {
  const std::string json = MakeSnapshot(5, 1.0, 0.5).ToJson();
  EXPECT_NE(json.find("\"counters\":{\"a\":5}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"g\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\":[1,2]"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[1,0,0]"), std::string::npos);
}

TEST(TraceSinkTest, DefaultConstructedIsDisabled) {
  TraceSink sink;
  EXPECT_FALSE(sink.enabled());
  sink.Record(Subsystem::kIo, TraceEventType::kPageRead, 1);
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_TRUE(sink.Events().empty());
}

TEST(TraceSinkTest, StampsSimulatedTime) {
  sim::Simulator sim;
  TraceSink sink(&sim, 8);
  sim.Schedule(2.5, [&] {
    sink.Record(Subsystem::kCore, TraceEventType::kTxnBegin, 1, 2);
  });
  sim.Run();
  const auto events = sink.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].sim_time_s, 2.5);
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 2u);
  EXPECT_EQ(events[0].subsystem, Subsystem::kCore);
}

TEST(TraceSinkTest, RingDropsOldestAndCounts) {
  TraceSink sink(nullptr, 4);
  for (uint64_t i = 0; i < 10; ++i) {
    sink.Record(Subsystem::kBuffer, TraceEventType::kEviction, i);
  }
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  const auto events = sink.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first: events 6..9 survive.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 6 + i);
  }
}

TEST(TraceSinkTest, NoDropsBelowCapacity) {
  TraceSink sink(nullptr, 8);
  for (uint64_t i = 0; i < 8; ++i) {
    sink.Record(Subsystem::kIo, TraceEventType::kPageWrite, i);
  }
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.Events().size(), 8u);
}

TEST(TraceCollectorTest, ChromeTraceStructure) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Reset();
  TraceSink sink(nullptr, 2);
  sink.Record(Subsystem::kIo, TraceEventType::kPageRead, 7, 0, 3);
  sink.Record(Subsystem::kTxlog, TraceEventType::kLogFlush, 4096, 12);
  sink.Record(Subsystem::kIo, TraceEventType::kPageWrite, 9);  // drops #1
  collector.Collect(0, "C_wb/hi10-100", sink);
  const std::string json = collector.ChromeTraceJson();
  collector.Reset();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("C_wb/hi10-100"), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // The dropped oldest event is accounted for...
  EXPECT_NE(json.find("\"semclust_ring_dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":1"), std::string::npos);
  // ...and is absent from the retained events.
  EXPECT_EQ(json.find("\"page-read\""), std::string::npos);
  EXPECT_NE(json.find("\"log-flush\""), std::string::npos);
  EXPECT_NE(json.find("\"page-write\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"txlog\""), std::string::npos);
  EXPECT_NE(json.find("\"clock\":\"simulated\""), std::string::npos);
}

TEST(TraceCollectorTest, OverflowedRingStillExportsParsableTrace) {
  // The satellite check for SEMCLUST_TRACE_EVENTS: size the ring from the
  // environment, overflow it heavily, and assert the exported Chrome
  // trace is still line-parsable with the drops accounted for.
  ASSERT_EQ(setenv("SEMCLUST_TRACE_EVENTS", "8", /*overwrite=*/1), 0);
  const size_t capacity = TraceCollector::RingCapacityFromEnv();
  unsetenv("SEMCLUST_TRACE_EVENTS");
  ASSERT_EQ(capacity, 8u);

  TraceSink sink(nullptr, capacity);
  constexpr uint64_t kRecorded = 1000;
  for (uint64_t i = 0; i < kRecorded; ++i) {
    sink.Record(Subsystem::kIo, TraceEventType::kPageRead, i);
  }
  EXPECT_EQ(sink.dropped(), kRecorded - capacity);

  TraceCollector& collector = TraceCollector::Global();
  collector.Reset();
  collector.Collect(0, "overflow-cell", sink);
  const std::string json = collector.ChromeTraceJson();
  collector.Reset();

  // Every event line is a balanced JSON object (the property
  // tools/trace_summary's line scanner relies on), and only `capacity`
  // events survived.
  size_t event_lines = 0;
  size_t begin = 0;
  while (begin < json.size()) {
    size_t end = json.find('\n', begin);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(begin, end - begin);
    begin = end + 1;
    if (line.find("\"ph\":\"i\"") == std::string::npos) continue;
    ++event_lines;
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
              std::count(line.begin(), line.end(), '}'))
        << line;
  }
  EXPECT_EQ(event_lines, capacity);
  EXPECT_NE(json.find("\"semclust_ring_dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":992"), std::string::npos);
}

TEST(TraceCollectorTest, DisabledSinkIsNotCollected) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Reset();
  TraceSink sink;
  collector.Collect(3, "nope", sink);
  EXPECT_TRUE(collector.empty());
  collector.Reset();
}

}  // namespace
}  // namespace oodb::obs
