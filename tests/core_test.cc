#include <cmath>
#include <limits>

#include "gtest/gtest.h"

#include "core/engineering_db.h"
#include "core/experiment.h"
#include "core/model_config.h"

namespace oodb::core {
namespace {

ModelConfig SmallConfig() {
  ModelConfig cfg = TestConfig();
  cfg.measured_transactions = 250;
  cfg.warmup_transactions = 40;
  return cfg;
}

TEST(EngineeringDbModelTest, RunCompletesAndCounts) {
  ModelConfig cfg = SmallConfig();
  EngineeringDbModel model(cfg);
  RunResult r = model.Run();
  EXPECT_EQ(r.transactions,
            static_cast<uint64_t>(cfg.measured_transactions));
  EXPECT_GT(r.response_time.Mean(), 0.0);
  EXPECT_GT(r.logical_reads, 0u);
  EXPECT_GT(r.logical_writes, 0u);
  EXPECT_GT(*r.metrics.counter("buffer.hits"), 0u);
  EXPECT_GT(*r.metrics.counter("buffer.misses"), 0u);
  EXPECT_GT(r.db_pages, 100u);
  EXPECT_GT(r.db_objects, 1000u);
  EXPECT_GT(*r.metrics.gauge("sim.duration_s"), 0.0);
}

TEST(EngineeringDbModelTest, DeterministicForEqualSeeds) {
  ModelConfig cfg = SmallConfig();
  RunResult a = RunCell(cfg);
  RunResult b = RunCell(cfg);
  EXPECT_DOUBLE_EQ(a.response_time.Mean(), b.response_time.Mean());
  EXPECT_EQ(a.logical_reads, b.logical_reads);
  EXPECT_EQ(a.metrics.counter("io.data-read"),
            b.metrics.counter("io.data-read"));
}

TEST(EngineeringDbModelTest, DifferentSeedsDiffer) {
  ModelConfig cfg = SmallConfig();
  RunResult a = RunCell(cfg);
  cfg.seed = 999;
  RunResult b = RunCell(cfg);
  EXPECT_NE(a.logical_reads, b.logical_reads);
}

TEST(EngineeringDbModelTest, AchievedRatioTracksTarget) {
  for (double target : {5.0, 100.0}) {
    ModelConfig cfg = SmallConfig();
    cfg.measured_transactions = 600;
    cfg.workload.read_write_ratio = target;
    RunResult r = RunCell(cfg);
    EXPECT_NEAR(r.achieved_rw_ratio, target, target * 0.35)
        << "target " << target;
  }
}

TEST(EngineeringDbModelTest, ResponseSplitsCoverAllTransactions) {
  ModelConfig cfg = SmallConfig();
  RunResult r = RunCell(cfg);
  EXPECT_EQ(r.read_response.count() + r.write_response.count(),
            r.response_time.count());
}

TEST(EngineeringDbModelTest, HigherDensityCostsMoreWithoutClustering) {
  ModelConfig low = SmallConfig();
  low.workload.density = workload::StructureDensity::kLow3;
  ModelConfig high = SmallConfig();
  high.workload.density = workload::StructureDensity::kHigh10;
  const double rt_low = RunCell(low).response_time.Mean();
  const double rt_high = RunCell(high).response_time.Mean();
  EXPECT_GT(rt_high, rt_low);
}

// The paper's headline (Fig 5.1/5.4): at high density and R/W=100,
// run-time clustering improves response time by a factor of ~3
// ("by 200%"). At small scale we require at least 1.8x.
TEST(EngineeringDbModelTest, ClusteringWinsBigAtHighDensityHighRatio) {
  ModelConfig base = SmallConfig();
  base.workload.density = workload::StructureDensity::kHigh10;
  base.workload.read_write_ratio = 100;

  ModelConfig none = base;
  none.clustering.pool = cluster::CandidatePool::kNoClustering;
  ModelConfig clustered = base;
  clustered.clustering.pool = cluster::CandidatePool::kWithinDb;

  const double rt_none = RunCell(none).response_time.Mean();
  const double rt_clustered = RunCell(clustered).response_time.Mean();
  EXPECT_GT(rt_none, 1.8 * rt_clustered)
      << "none=" << rt_none << " clustered=" << rt_clustered;
}

// Fig 5.5 mechanism: clustering reduces transaction-logging I/O because
// co-located updates share before-imaged pages.
TEST(EngineeringDbModelTest, ClusteringReducesLogBeforeImages) {
  ModelConfig base = SmallConfig();
  base.workload.density = workload::StructureDensity::kMed5;
  base.workload.read_write_ratio = 5;
  base.measured_transactions = 500;

  ModelConfig none = base;
  none.clustering.pool = cluster::CandidatePool::kNoClustering;
  ModelConfig clustered = base;
  clustered.clustering.pool = cluster::CandidatePool::kWithinDb;
  clustered.clustering.split = cluster::SplitPolicy::kLinearGreedy;

  RunResult r_none = RunCell(none);
  RunResult r_clustered = RunCell(clustered);
  // Normalise per logical write.
  const auto before_images_per_write = [](const RunResult& r) {
    return static_cast<double>(*r.metrics.counter("log.before_images")) /
           static_cast<double>(r.logical_writes);
  };
  const double bi_none = before_images_per_write(r_none);
  const double bi_clustered = before_images_per_write(r_clustered);
  EXPECT_LT(bi_clustered, bi_none);
}

// Buffering shape (Fig 5.11): context-sensitive replacement with prefetch
// within database beats LRU with no prefetching.
TEST(EngineeringDbModelTest, ContextPrefetchBeatsLruNoPrefetch) {
  ModelConfig base = SmallConfig();
  base.workload.density = workload::StructureDensity::kHigh10;
  base.workload.read_write_ratio = 100;
  base.clustering.pool = cluster::CandidatePool::kWithinDb;
  base.clustering.split = cluster::SplitPolicy::kLinearGreedy;

  ModelConfig lru = base;
  lru.replacement = buffer::ReplacementPolicy::kLru;
  lru.prefetch = buffer::PrefetchPolicy::kNone;
  ModelConfig ctx = base;
  ctx.replacement = buffer::ReplacementPolicy::kContextSensitive;
  ctx.prefetch = buffer::PrefetchPolicy::kWithinDb;

  const double rt_lru = RunCell(lru).response_time.Mean();
  const double rt_ctx = RunCell(ctx).response_time.Mean();
  EXPECT_LT(rt_ctx, rt_lru);
}

TEST(EngineeringDbModelTest, PrefetchWithinBufferCausesNoExtraReads) {
  ModelConfig cfg = SmallConfig();
  cfg.prefetch = buffer::PrefetchPolicy::kWithinBuffer;
  RunResult r = RunCell(cfg);
  EXPECT_EQ(*r.metrics.counter("io.prefetch-read"), 0u);

  cfg.prefetch = buffer::PrefetchPolicy::kWithinDb;
  RunResult r2 = RunCell(cfg);
  EXPECT_GT(*r2.metrics.counter("io.prefetch-read"), 0u);
}

TEST(EngineeringDbModelTest, IoLimitBoundsClusterExamIos) {
  ModelConfig base = SmallConfig();
  base.workload.read_write_ratio = 5;  // plenty of writes
  base.measured_transactions = 500;

  ModelConfig limited = base;
  limited.clustering.pool = cluster::CandidatePool::kIoLimit;
  limited.clustering.io_limit = 2;
  ModelConfig unlimited = base;
  unlimited.clustering.pool = cluster::CandidatePool::kWithinDb;

  RunResult r_lim = RunCell(limited);
  RunResult r_unl = RunCell(unlimited);
  EXPECT_LE(*r_lim.metrics.counter("io.cluster-read"),
            *r_unl.metrics.counter("io.cluster-read"));
}

TEST(EngineeringDbModelTest, WithinBufferClusteringNeverExamReads) {
  ModelConfig cfg = SmallConfig();
  cfg.workload.read_write_ratio = 5;
  cfg.clustering.pool = cluster::CandidatePool::kWithinBuffer;
  RunResult r = RunCell(cfg);
  EXPECT_EQ(*r.metrics.counter("io.cluster-read"), 0u);
}

// ------------------------------------------------------------ experiment

TEST(ExperimentTest, StandardGridHasNineCellsInPaperOrder) {
  auto grid = StandardWorkloadGrid();
  ASSERT_EQ(grid.size(), 9u);
  EXPECT_EQ(grid.front().Label(), "low3-5");
  EXPECT_EQ(grid.back().Label(), "hi10-100");
}

TEST(ExperimentTest, ClusteringLevelsMatchFigure51) {
  auto levels = ClusteringPolicyLevels();
  ASSERT_EQ(levels.size(), 5u);
  EXPECT_EQ(levels[0].Label(), "No_Clustering");
  EXPECT_EQ(levels[1].Label(), "Cluster_within_Buffer");
  EXPECT_EQ(levels[2].Label(), "2_IO_limit");
  EXPECT_EQ(levels[3].Label(), "10_IO_limit");
  EXPECT_EQ(levels[4].Label(), "No_limit");
}

TEST(ExperimentTest, BufferingLevelsMatchFigure511) {
  auto levels = BufferingLevels();
  ASSERT_EQ(levels.size(), 6u);
  EXPECT_EQ(levels.front().label, "C_p_DB");
  EXPECT_EQ(levels.back().label, "LRU_no_p");
}

TEST(ExperimentTest, WithWorkloadPropagatesDensityToDatabase) {
  ModelConfig cfg = SmallConfig();
  workload::WorkloadConfig w;
  w.density = workload::StructureDensity::kHigh10;
  ModelConfig out = WithWorkload(cfg, w);
  EXPECT_EQ(out.database.density, workload::StructureDensity::kHigh10);
}

TEST(ModelConfigTest, DefaultConfigsValidate) {
  EXPECT_TRUE(ModelConfig{}.Validate().ok());
  EXPECT_TRUE(ScaledConfig().Validate().ok());
  EXPECT_TRUE(TestConfig().Validate().ok());
  EXPECT_TRUE(PaperScaleConfig().Validate().ok());
}

TEST(ModelConfigTest, ValidateNamesTheOffendingField) {
  const auto expect_invalid = [](const ModelConfig& cfg,
                                 const std::string& field) {
    const Status st = cfg.Validate();
    EXPECT_FALSE(st.ok()) << field;
    EXPECT_NE(st.message().find(field), std::string::npos) << st.message();
  };

  ModelConfig cfg = TestConfig();
  cfg.num_users = 0;
  expect_invalid(cfg, "num_users");

  cfg = TestConfig();
  cfg.num_disks = -1;
  expect_invalid(cfg, "num_disks");

  cfg = TestConfig();
  cfg.database_bytes = 0;
  expect_invalid(cfg, "database_bytes");

  cfg = TestConfig();
  cfg.page_size_bytes = 0;
  expect_invalid(cfg, "page_size_bytes");

  // Each of these aborted a run on a CHECK before Validate named it.
  cfg = TestConfig();
  cfg.page_size_bytes = workload::kMaxObjectBytes - 1;  // a 1024 B object
  expect_invalid(cfg, "page_size_bytes");

  cfg = TestConfig();
  cfg.workload.read_write_ratio = 0;
  expect_invalid(cfg, "workload.rw_ratio");

  cfg = TestConfig();
  cfg.think_time_s = 0;
  expect_invalid(cfg, "think_time_s");

  cfg = TestConfig();
  cfg.append_fill_fraction = 1.5;
  expect_invalid(cfg, "append_fill_fraction");

  cfg = TestConfig();
  cfg.buffer_pages = 7;
  expect_invalid(cfg, "buffer_pages");

  cfg = TestConfig();
  cfg.measured_transactions = 0;
  expect_invalid(cfg, "measured_transactions");

  cfg = TestConfig();
  cfg.warmup_transactions = -5;
  expect_invalid(cfg, "warmup_transactions");

  cfg = TestConfig();
  cfg.measurement_epochs = 0;
  expect_invalid(cfg, "measurement_epochs");

  cfg = TestConfig();
  cfg.rw_ratio_schedule = {10.0, 0.0};
  expect_invalid(cfg, "rw_ratio_schedule[1]");

  // Time knobs the simulated clock cannot add a disk service time to: a
  // 1e300 s think time used to run to a mean response of 0.0 ms.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {1e300, kInf, std::nan("")}) {
    cfg = TestConfig();
    cfg.think_time_s = bad;
    expect_invalid(cfg, "think_time_s");

    cfg = TestConfig();
    cfg.telemetry_interval_s = bad;
    expect_invalid(cfg, "telemetry_interval_s");

    cfg = TestConfig();
    cfg.shard_hop_latency_s = bad;
    expect_invalid(cfg, "shard_hop_latency_s");

    cfg = TestConfig();
    cfg.cc.enabled = true;
    cfg.cc.lock_timeout_s = bad;
    expect_invalid(cfg, "lock_timeout_s");

    cfg = TestConfig();
    cfg.cc.enabled = true;
    cfg.cc.backoff_base_s = bad;
    cfg.cc.backoff_cap_s = kInf;
    expect_invalid(cfg, "backoff_base_s");

    cfg = TestConfig();
    cfg.cc.enabled = true;
    cfg.cc.backoff_cap_s = bad;
    expect_invalid(cfg, "backoff_cap_s");

    cfg = TestConfig();
    cfg.arrival = ArrivalProcess::kOpen;
    cfg.arrival_rate_tps = bad == kInf ? kInf : 1 / bad;
    expect_invalid(cfg, "arrival_rate_tps");
  }
  // The bound is 2^32 disk page service times (about 3.6 years at the
  // default disk); a knob just inside it is accepted.
  cfg = TestConfig();
  const double max_s =
      4294967296.0 * cfg.disk.PageServiceTime(cfg.page_size_bytes);
  cfg.think_time_s = max_s;
  cfg.telemetry_interval_s = max_s;
  cfg.shard_hop_latency_s = max_s;
  EXPECT_TRUE(cfg.Validate().ok()) << cfg.Validate().message();
  cfg.think_time_s = 2 * max_s;
  expect_invalid(cfg, "think_time_s");
}

TEST(ModelConfigTest, ScaledBuffersClampsToEightPages) {
  ModelConfig cfg = TestConfig();  // 2 MB: 100/131072 of 512 pages -> clamp
  EXPECT_EQ(cfg.BufferSmall(), 8u);

  // Degenerate sizes land on the same floor instead of dividing by zero.
  cfg.page_size_bytes = 0;
  EXPECT_EQ(cfg.ScaledBuffers(1000), 8u);
  cfg = TestConfig();
  cfg.database_bytes = 0;
  EXPECT_EQ(cfg.ScaledBuffers(1000), 8u);

  // At paper scale the levels come back close to the paper's own numbers
  // (the ratio denominator is 131072 = 512 MB of 4 KB pages, the database
  // is 500 MB, hence ~2% under).
  ModelConfig paper = PaperScaleConfig();
  EXPECT_NEAR(static_cast<double>(paper.ScaledBuffers(1000)), 1000.0, 25.0);
  EXPECT_NEAR(static_cast<double>(paper.ScaledBuffers(100)), 100.0, 3.0);
}

}  // namespace
}  // namespace oodb::core
