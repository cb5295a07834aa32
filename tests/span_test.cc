// The per-transaction critical-path profiler (src/obs/span_profiler.*,
// DESIGN.md §14): unit behaviour of the recorder/profiler pair, the
// additivity property — every transaction's eight phase totals sum to its
// response time EXACTLY, in integer virtual-time ticks — across both
// workloads and both dynamic-reclustering policies, exemplar-reservoir
// determinism, ring-overflow accounting under span-event load, and
// cross-job-count determinism of the profiled bench records.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/bench_report.h"
#include "core/engineering_db.h"
#include "core/experiment.h"
#include "core/model_config.h"
#include "dyn/dyn_config.h"
#include "exec/experiment_runner.h"
#include "obs/metrics.h"
#include "obs/span_profiler.h"
#include "obs/trace_sink.h"
#include "ocb/ocb_config.h"
#include "workload/query.h"

namespace oodb {
namespace {

std::vector<std::string> TwoKinds() { return {"alpha", "beta"}; }

// --------------------------------------------------------------- recorder

TEST(SpanRecorderTest, DefaultConstructedRecorderIsDisabledAndNoOps) {
  obs::SpanRecorder rec;
  EXPECT_FALSE(rec.enabled());
  // Every call must be a safe no-op on the disabled recorder (the
  // pipeline passes nullptr, but defence in depth is cheap to pin).
  rec.RecordSpan(obs::SpanPhase::kIoService, 0.0, 1.0);
  rec.RecordQueued(obs::SpanPhase::kIoWait, obs::SpanPhase::kIoService, 0.0,
                   0.5, 1.0);
  rec.BeginScope(obs::SpanScope::kQuery, 0.0);
  rec.EndScope(1.0);
  rec.set_dyn_scope(true);
}

TEST(SpanRecorderTest, QueuedIntervalSplitsExactlyAtDispatch) {
  obs::MetricsRegistry reg;
  obs::SpanProfiler prof(&reg, TwoKinds(), /*exemplars=*/1);
  obs::TxnSpanRecord seen;
  prof.set_txn_observer([&](const obs::TxnSpanRecord& r) { seen = r; });

  obs::SpanRecorder rec(&prof, /*txn=*/7, /*kind=*/0, /*begin_s=*/1.0);
  rec.RecordQueued(obs::SpanPhase::kIoWait, obs::SpanPhase::kIoService,
                   /*begin_s=*/1.0, /*start_s=*/1.25, /*end_s=*/2.0);
  rec.Finish(/*end_s=*/2.0);

  EXPECT_EQ(seen.txn, 7u);
  EXPECT_EQ(seen.response_ticks, obs::ToTicks(1.0));
  EXPECT_EQ(seen.phase_ticks[static_cast<int>(obs::SpanPhase::kIoWait)],
            static_cast<uint64_t>(obs::ToTicks(0.25)));
  EXPECT_EQ(seen.phase_ticks[static_cast<int>(obs::SpanPhase::kIoService)],
            static_cast<uint64_t>(obs::ToTicks(0.75)));
  EXPECT_EQ(seen.PhaseSum(), static_cast<uint64_t>(seen.response_ticks));
}

TEST(SpanRecorderTest, DynScopeOverridesEveryLeafPhase) {
  obs::MetricsRegistry reg;
  obs::SpanProfiler prof(&reg, TwoKinds(), /*exemplars=*/1);
  obs::TxnSpanRecord seen;
  prof.set_txn_observer([&](const obs::TxnSpanRecord& r) { seen = r; });

  obs::SpanRecorder rec(&prof, 1, 0, 0.0);
  rec.set_dyn_scope(true);
  rec.RecordSpan(obs::SpanPhase::kCpuService, 0.0, 0.5);
  rec.RecordQueued(obs::SpanPhase::kIoWait, obs::SpanPhase::kIoService, 0.5,
                   0.75, 1.0);
  rec.set_dyn_scope(false);
  rec.RecordSpan(obs::SpanPhase::kCpuService, 1.0, 1.5);
  rec.Finish(1.5);

  EXPECT_EQ(
      seen.phase_ticks[static_cast<int>(obs::SpanPhase::kDynRecluster)],
      static_cast<uint64_t>(obs::ToTicks(1.0)));
  EXPECT_EQ(seen.phase_ticks[static_cast<int>(obs::SpanPhase::kCpuService)],
            static_cast<uint64_t>(obs::ToTicks(0.5)));
  EXPECT_EQ(seen.PhaseSum(), static_cast<uint64_t>(seen.response_ticks));
}

TEST(SpanRecorderTest, NodeCapTruncatesTreeButKeepsExactTicks) {
  obs::MetricsRegistry reg;
  obs::SpanProfiler prof(&reg, TwoKinds(), /*exemplars=*/1);
  obs::TxnSpanRecord seen;
  prof.set_txn_observer([&](const obs::TxnSpanRecord& r) { seen = r; });

  obs::SpanRecorder rec(&prof, 1, 0, 0.0);
  const size_t leaves = obs::SpanRecorder::kMaxNodes + 100;
  for (size_t i = 0; i < leaves; ++i) {
    const double t = static_cast<double>(i) * 1e-3;
    rec.RecordSpan(obs::SpanPhase::kCpuService, t, t + 1e-3);
  }
  rec.Finish(static_cast<double>(leaves) * 1e-3);

  EXPECT_TRUE(seen.truncated);
  EXPECT_LE(seen.nodes.size(), obs::SpanRecorder::kMaxNodes);
  // Attribution is exact even past the cap: only the tree is bounded.
  EXPECT_EQ(seen.PhaseSum(), static_cast<uint64_t>(seen.response_ticks));
}

// --------------------------------------------------------------- profiler

obs::TxnSpanRecord MakeTxn(uint64_t txn, int kind, double begin_s,
                           double response_s) {
  obs::TxnSpanRecord r;
  r.txn = txn;
  r.kind = kind;
  r.begin_ticks = obs::ToTicks(begin_s);
  r.response_ticks = obs::ToTicks(response_s);
  r.phase_ticks[static_cast<int>(obs::SpanPhase::kIoService)] =
      static_cast<uint64_t>(r.response_ticks);
  return r;
}

TEST(SpanProfilerTest, BreakdownOmitsKindsWithNoTransactions) {
  obs::MetricsRegistry reg;
  obs::SpanProfiler prof(&reg, TwoKinds(), 0);
  prof.EndTxn(MakeTxn(1, 1, 0.0, 0.5));
  prof.EndTxn(MakeTxn(2, 1, 1.0, 0.25));

  const auto breakdown = prof.Breakdown();
  ASSERT_EQ(breakdown.size(), 1u);
  EXPECT_EQ(breakdown[0].kind, "beta");
  EXPECT_EQ(breakdown[0].txns, 2u);
  EXPECT_EQ(breakdown[0].response_ticks,
            static_cast<uint64_t>(obs::ToTicks(0.75)));
  EXPECT_EQ(
      breakdown[0].phase_ticks[static_cast<int>(obs::SpanPhase::kIoService)],
      static_cast<uint64_t>(obs::ToTicks(0.75)));
}

TEST(SpanProfilerTest, ReservoirKeepsSlowestWithDeterministicTieBreak) {
  obs::MetricsRegistry reg;
  obs::SpanProfiler prof(&reg, TwoKinds(), /*exemplars=*/2);
  prof.EndTxn(MakeTxn(1, 0, 0.0, 0.3));
  prof.EndTxn(MakeTxn(2, 0, 1.0, 0.1));
  prof.EndTxn(MakeTxn(3, 0, 2.0, 0.3));  // ties txn 1; both outrank txn 2
  prof.EndTxn(MakeTxn(4, 0, 3.0, 0.2));  // slower than txn 2, not the 0.3s

  const auto sorted = prof.SortedExemplars();
  ASSERT_EQ(sorted.size(), 2u);
  // Slowest first; the 0.3 s tie breaks towards the earlier transaction.
  EXPECT_EQ(sorted[0]->txn, 1u);
  EXPECT_EQ(sorted[1]->txn, 3u);
}

TEST(SpanProfilerTest, ResetForgetsTotalsAndExemplars) {
  obs::MetricsRegistry reg;
  obs::SpanProfiler prof(&reg, TwoKinds(), 2);
  prof.EndTxn(MakeTxn(1, 0, 0.0, 0.3));
  prof.Reset();
  EXPECT_EQ(prof.transactions(), 0u);
  EXPECT_TRUE(prof.Breakdown().empty());
  EXPECT_TRUE(prof.SortedExemplars().empty());
}

TEST(SpanProfilerTest, PhaseMetricsRegisteredEagerlyAndFoldExactTicks) {
  // Eager registration: the snapshot layout must not depend on which
  // kinds/phases a workload happened to exercise (cross-job determinism
  // of the merged snapshot relies on it).
  obs::MetricsRegistry reg;
  obs::SpanProfiler prof(&reg, TwoKinds(), 0);
  const obs::MetricsSnapshot before = reg.Snapshot();
  EXPECT_EQ(before.counter("span.alpha.txns"), 0u);
  EXPECT_EQ(before.counter("span.beta.io_service_ticks"), 0u);
  ASSERT_NE(before.histogram("span.alpha.io_service_s"), nullptr);

  prof.EndTxn(MakeTxn(1, 0, 0.0, 0.5));
  const obs::MetricsSnapshot after = reg.Snapshot();
  EXPECT_EQ(after.counter("span.alpha.txns"), 1u);
  EXPECT_EQ(after.counter("span.alpha.io_service_ticks"),
            static_cast<uint64_t>(obs::ToTicks(0.5)));
  EXPECT_EQ(after.histogram("span.alpha.io_service_s")->count, 1u);
}

TEST(SpanProfilerTest, ExportedExemplarsAreCompleteEventsOnSpansTrack) {
  obs::MetricsRegistry reg;
  obs::SpanProfiler prof(&reg, TwoKinds(), 1);

  obs::SpanRecorder rec(&prof, 9, 1, 10.0);
  rec.BeginScope(obs::SpanScope::kQuery, 10.0);
  rec.RecordSpan(obs::SpanPhase::kIoService, 10.0, 10.5);
  rec.EndScope(10.5);
  rec.Finish(10.5);

  obs::TraceSink sink(/*clock=*/nullptr, /*capacity=*/64);
  prof.ExportExemplars(sink);
  const auto events = sink.Events();
  // Root txn scope + query scope + one leaf.
  ASSERT_EQ(events.size(), 3u);
  for (const obs::TraceEvent& e : events) {
    EXPECT_EQ(e.type, obs::TraceEventType::kSpan);
    EXPECT_EQ(e.subsystem, obs::Subsystem::kSpans);
    EXPECT_EQ(e.a, 9u);  // txn id
    EXPECT_EQ(e.c, 1u);  // kind
  }
  // Historical timestamps, not the (null) clock's now.
  EXPECT_DOUBLE_EQ(events[0].sim_time_s, 10.0);
  EXPECT_DOUBLE_EQ(events[0].v, 0.5);
}

TEST(SpanProfilerTest, SpanCodeNamesCoverPhasesAndScopes) {
  EXPECT_STREQ(obs::SpanCodeName(
                   static_cast<uint64_t>(obs::SpanPhase::kIoService)),
               "io_service");
  EXPECT_STREQ(obs::SpanCodeName(obs::kSpanScopeCodeBase +
                                 static_cast<uint64_t>(obs::SpanScope::kTxn)),
               "txn");
}

// ------------------------------------------------- additivity (property)

/// Runs one cell with the profiler on and asserts, for EVERY finished
/// transaction, that the eight phase totals sum to the response time
/// exactly (integer ticks, no tolerance), then cross-checks the folded
/// per-kind totals against the per-transaction stream.
void ExpectExactAdditivity(core::ModelConfig cfg, uint64_t min_txns) {
  cfg.profile_spans = true;
  core::EngineeringDbModel model(cfg);
  ASSERT_NE(model.context().spans, nullptr);

  uint64_t observed = 0;
  uint64_t response_total = 0;
  uint64_t phase_total = 0;
  std::set<int> kinds_seen;
  model.context().spans->set_txn_observer(
      [&](const obs::TxnSpanRecord& rec) {
        ++observed;
        kinds_seen.insert(rec.kind);
        ASSERT_EQ(rec.PhaseSum(), static_cast<uint64_t>(rec.response_ticks))
            << "txn " << rec.txn << " kind " << rec.kind;
        response_total += static_cast<uint64_t>(rec.response_ticks);
        phase_total += rec.PhaseSum();
      });
  const core::RunResult r = model.Run();

  EXPECT_GE(observed, min_txns);
  EXPECT_GE(kinds_seen.size(), 2u);
  // The folded breakdown is the same stream aggregated: totals over the
  // *measured* phase only, each kind internally additive.
  ASSERT_FALSE(r.span_breakdown.empty());
  uint64_t breakdown_txns = 0;
  for (const obs::SpanKindBreakdown& b : r.span_breakdown) {
    breakdown_txns += b.txns;
    uint64_t sum = 0;
    for (const uint64_t t : b.phase_ticks) sum += t;
    EXPECT_EQ(sum, b.response_ticks) << b.kind;
  }
  EXPECT_EQ(breakdown_txns,
            static_cast<uint64_t>(cfg.measured_transactions));
  EXPECT_EQ(response_total, phase_total);
}

TEST(SpanAdditivityTest, EngineeringWorkloadAllKinds) {
  core::ModelConfig cfg = core::TestConfig();
  cfg.measured_transactions = 300;
  cfg.warmup_transactions = 30;
  ExpectExactAdditivity(cfg, 300);
}

TEST(SpanAdditivityTest, EngineeringWorkloadWriteHeavyWithSplits) {
  core::ModelConfig cfg = core::TestConfig();
  cfg.measured_transactions = 250;
  cfg.warmup_transactions = 25;
  cfg.workload.read_write_ratio = 3;  // maximum structural churn
  cfg.seed = 99;
  ExpectExactAdditivity(cfg, 250);
}

core::ModelConfig SmallOcbConfig() {
  core::ModelConfig cfg = core::TestConfig();
  ocb::OcbConfig ocb;
  ocb.enabled = true;
  ocb.classes = 8;
  ocb.hierarchy_depth = 3;
  ocb.instances = 600;
  ocb.refs_per_object = 3;
  ocb.partitions = 6;
  ocb.set_lookup_size = 4;
  ocb.traversal_depth = 2;
  ocb.churn_probability = 0.5;
  ocb.churn_burst_length = 6;
  cfg.ocb = ocb;
  cfg.warmup_transactions = 40;
  cfg.measured_transactions = 300;
  cfg.workload.read_write_ratio = 4.0;
  return cfg;
}

TEST(SpanAdditivityTest, OcbWorkloadDynOff) {
  ExpectExactAdditivity(SmallOcbConfig(), 300);
}

TEST(SpanAdditivityTest, OcbWorkloadWithDstcReorganisation) {
  core::ModelConfig cfg = SmallOcbConfig();
  cfg.clustering.dynamic.policy = dyn::PolicyKind::kDstc;
  cfg.clustering.dynamic.observation_period = 32;
  cfg.clustering.dynamic.trigger_threshold = 2.0;
  ExpectExactAdditivity(cfg, 300);
}

TEST(SpanAdditivityTest, OcbWorkloadWithOpcfReorganisation) {
  core::ModelConfig cfg = SmallOcbConfig();
  cfg.clustering.dynamic.policy = dyn::PolicyKind::kOpcf;
  cfg.clustering.dynamic.observation_period = 32;
  cfg.clustering.dynamic.trigger_threshold = 2.0;
  ExpectExactAdditivity(cfg, 300);
}

TEST(SpanAdditivityTest, DynReorganisationTicksActuallyAttributed) {
  // The DSTC run must land ticks in kDynRecluster (otherwise the dyn
  // phase of the taxonomy is untested dead weight).
  core::ModelConfig cfg = SmallOcbConfig();
  cfg.clustering.dynamic.policy = dyn::PolicyKind::kDstc;
  cfg.clustering.dynamic.observation_period = 32;
  cfg.clustering.dynamic.trigger_threshold = 2.0;
  cfg.profile_spans = true;
  const core::RunResult r = core::RunCell(cfg);
  ASSERT_GT(r.metrics.counter("dyn.triggers").value_or(0), 0u);
  uint64_t dyn_ticks = 0;
  for (const obs::SpanKindBreakdown& b : r.span_breakdown) {
    dyn_ticks +=
        b.phase_ticks[static_cast<int>(obs::SpanPhase::kDynRecluster)];
  }
  EXPECT_GT(dyn_ticks, 0u);
}

TEST(SpanAdditivityTest, RandomizedSeeds) {
  for (const uint64_t seed : {11ull, 23ull, 47ull}) {
    core::ModelConfig cfg = core::TestConfig();
    cfg.measured_transactions = 150;
    cfg.warmup_transactions = 15;
    cfg.seed = seed;
    ExpectExactAdditivity(cfg, 150);
  }
}

// ------------------------------------------------ disabled-path neutrality

TEST(SpanProfilerTest, DisabledRunRegistersNoSpanMetrics) {
  core::ModelConfig cfg = core::TestConfig();
  cfg.measured_transactions = 50;
  cfg.warmup_transactions = 5;
  const core::RunResult r = core::RunCell(cfg);
  EXPECT_TRUE(r.span_breakdown.empty());
  for (const auto& [name, value] : r.metrics.counters) {
    EXPECT_NE(name.rfind("span.", 0), 0u) << name;
  }
}

TEST(SpanProfilerTest, ProfilerDoesNotPerturbTheSimulation) {
  core::ModelConfig cfg = core::TestConfig();
  cfg.measured_transactions = 200;
  cfg.warmup_transactions = 20;
  const core::RunResult off = core::RunCell(cfg);
  cfg.profile_spans = true;
  const core::RunResult on = core::RunCell(cfg);
  EXPECT_EQ(off.response_time.Mean(), on.response_time.Mean());
  EXPECT_EQ(off.total_physical_ios(), on.total_physical_ios());
}

// ------------------------------------------------- cross-job determinism

TEST(SpanDeterminismTest, ProfiledRecordsIdenticalAcrossJobCounts) {
  core::ModelConfig cfg = core::TestConfig();
  cfg.measured_transactions = 150;
  cfg.warmup_transactions = 15;
  cfg.profile_spans = true;
  std::vector<core::ModelConfig> grid(4, cfg);
  for (size_t i = 0; i < grid.size(); ++i) grid[i].seed += i;

  const oodb::exec::ExperimentRunner j1(1);
  const oodb::exec::ExperimentRunner j4(4);
  const auto o1 = j1.Run(grid);
  const auto o4 = j4.Run(grid);
  ASSERT_EQ(o1.size(), o4.size());
  const core::BenchReport report("span-determinism");
  for (size_t i = 0; i < o1.size(); ++i) {
    core::BenchRecord r1 = core::BenchReport::FromResult(
        "cell", "p", "w", o1[i].result, /*elapsed_wall_s=*/0);
    core::BenchRecord r4 = core::BenchReport::FromResult(
        "cell", "p", "w", o4[i].result, /*elapsed_wall_s=*/0);
    EXPECT_FALSE(r1.breakdown.empty());
    EXPECT_EQ(report.ToJsonLine(r1), report.ToJsonLine(r4));
  }
}

// ------------------------------------- ring overflow under span-event load

TEST(TraceSinkSpanLoadTest, RingOverflowDropsOldestAndCountsExactly) {
  obs::TraceSink sink(/*clock=*/nullptr, /*capacity=*/128);
  const uint64_t total = 1000;
  for (uint64_t i = 0; i < total; ++i) {
    sink.RecordAt(static_cast<double>(i), obs::Subsystem::kSpans,
                  obs::TraceEventType::kSpan, /*txn=*/i, /*code=*/0,
                  /*query=*/0, /*dur=*/1.0);
  }
  EXPECT_EQ(sink.recorded(), total);
  EXPECT_EQ(sink.dropped(), total - 128);
  const auto events = sink.Events();
  ASSERT_EQ(events.size(), 128u);
  // Oldest retained first: the ring kept exactly the newest 128.
  EXPECT_EQ(events.front().a, total - 128);
  EXPECT_EQ(events.back().a, total - 1);
}

TEST(TraceSinkSpanLoadTest, ExemplarExportOverflowIsAccountedInTheTrace) {
  // A profiler whose exemplar trees exceed the ring must surface the loss
  // through dropped(), which the collector renders as the
  // semclust_ring_dropped metadata record trace_summary reports.
  obs::MetricsRegistry reg;
  obs::SpanProfiler prof(&reg, TwoKinds(), /*exemplars=*/4);
  for (uint64_t t = 0; t < 4; ++t) {
    obs::SpanRecorder rec(&prof, t, 0, static_cast<double>(t));
    for (int i = 0; i < 8; ++i) {
      const double at = static_cast<double>(t) + i * 0.01;
      rec.RecordSpan(obs::SpanPhase::kCpuService, at, at + 0.01);
    }
    rec.Finish(static_cast<double>(t) + 0.08);
  }
  obs::TraceSink sink(/*clock=*/nullptr, /*capacity=*/16);
  prof.ExportExemplars(sink);
  // 4 exemplars x (1 txn scope + 8 leaves) = 36 events into 16 slots.
  EXPECT_EQ(sink.recorded(), 36u);
  EXPECT_EQ(sink.dropped(), 20u);
  EXPECT_EQ(sink.Events().size(), 16u);

  obs::TraceCollector& collector = obs::TraceCollector::Global();
  collector.Reset();
  collector.Collect(/*cell_index=*/0, "overflow-cell", sink);
  const std::string json = collector.ChromeTraceJson();
  EXPECT_NE(json.find("semclust_ring_dropped"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":20"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  collector.Reset();
}

}  // namespace
}  // namespace oodb
