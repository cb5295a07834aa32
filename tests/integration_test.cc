// Cross-module integration and property tests: invariants that must hold
// across the whole stack after arbitrary activity.

#include <set>
#include <unordered_set>

#include "gtest/gtest.h"

#include "core/engineering_db.h"
#include "core/experiment.h"
#include "objmodel/validator.h"

namespace oodb {
namespace {

// After a full simulation run, the storage directory, the pages, and the
// object graph must agree exactly.
class PostRunInvariantsTest
    : public ::testing::TestWithParam<cluster::CandidatePool> {
 protected:
  core::ModelConfig Config() {
    core::ModelConfig cfg = core::TestConfig();
    cfg.measured_transactions = 400;
    cfg.warmup_transactions = 50;
    cfg.workload.read_write_ratio = 3;  // write-heavy: maximum churn
    cfg.clustering.pool = GetParam();
    cfg.clustering.split = cluster::SplitPolicy::kLinearGreedy;
    return cfg;
  }
};

TEST_P(PostRunInvariantsTest, StorageAndGraphAgree) {
  core::EngineeringDbModel model(Config());
  model.Run();
  const auto& graph = model.graph();
  const auto& storage = model.storage();

  // Every live object is placed exactly once; every slot points at a live
  // object whose directory entry matches.
  uint64_t placed_bytes = 0;
  size_t placed_objects = 0;
  for (store::PageId p = 0; p < storage.page_count(); ++p) {
    uint32_t page_bytes = 0;
    for (const store::Slot& slot : storage.page(p).slots()) {
      EXPECT_TRUE(graph.IsLive(slot.object));
      EXPECT_EQ(storage.PageOf(slot.object), p);
      page_bytes += slot.size_bytes;
      ++placed_objects;
    }
    EXPECT_EQ(storage.page(p).used_bytes(), page_bytes);
    EXPECT_LE(page_bytes, storage.page(p).capacity_bytes());
    placed_bytes += page_bytes;
  }
  EXPECT_EQ(placed_bytes, storage.used_bytes());
  EXPECT_EQ(placed_objects, graph.live_count());
}

TEST_P(PostRunInvariantsTest, GraphEdgesStaySymmetric) {
  core::EngineeringDbModel model(Config());
  model.Run();
  obj::StructureValidator validator(&model.graph());
  std::vector<obj::Violation> out;
  validator.CheckEdges(out, 8);
  for (const auto& v : out) {
    ADD_FAILURE() << v.Describe(model.graph());
  }
  // (Configuration cycles are permitted: attachments are unvalidated, as
  // in OCT; version-chain order must still hold.)
  out.clear();
  validator.CheckVersionChains(out, 8);
  for (const auto& v : out) {
    ADD_FAILURE() << v.Describe(model.graph());
  }
}

TEST_P(PostRunInvariantsTest, BufferNeverExceedsCapacityAndAllResidentExist) {
  core::EngineeringDbModel model(Config());
  model.Run();
  const auto& buffer = model.buffer();
  EXPECT_LE(buffer.resident_count(), buffer.capacity());
  for (store::PageId p : buffer.ResidentPages()) {
    EXPECT_LT(p, model.storage().page_count());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pools, PostRunInvariantsTest,
    ::testing::Values(cluster::CandidatePool::kNoClustering,
                      cluster::CandidatePool::kWithinBuffer,
                      cluster::CandidatePool::kIoLimit,
                      cluster::CandidatePool::kWithinDb),
    [](const auto& param_info) {
      return std::string(cluster::CandidatePoolName(param_info.param))
          .substr(0, 20);
    });

// The I/O subsystem's accounting must reconcile with the buffer pool's.
TEST(AccountingTest, MissesAndReadsReconcile) {
  core::ModelConfig cfg = core::TestConfig();
  cfg.measured_transactions = 400;
  cfg.prefetch = buffer::PrefetchPolicy::kNone;
  cfg.clustering.pool = cluster::CandidatePool::kNoClustering;
  core::RunResult r = core::RunCell(cfg);
  // Without prefetch or clustering exams, every physical data read is a
  // buffer miss. (Misses can exceed reads only for unplaced pages, which
  // do not occur.)
  EXPECT_EQ(*r.metrics.counter("io.prefetch-read"), 0u);
  EXPECT_EQ(*r.metrics.counter("io.cluster-read"), 0u);
  EXPECT_GT(*r.metrics.counter("io.data-read"), 0u);
}

TEST(AccountingTest, DirtyFlushesRequireWrites) {
  core::ModelConfig cfg = core::TestConfig();
  cfg.measured_transactions = 500;
  cfg.workload.read_write_ratio = 3;
  core::RunResult r = core::RunCell(cfg);
  EXPECT_GT(r.logical_writes, 0u);
  // Log activity exists whenever writes exist.
  EXPECT_GT(*r.metrics.counter("log.before_images"), 0u);
}

// Seed sweep: the full stack must be reproducible and seeds independent.
class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, RunsAreReproducible) {
  core::ModelConfig cfg = core::TestConfig();
  cfg.measured_transactions = 150;
  cfg.warmup_transactions = 20;
  cfg.seed = GetParam();
  core::RunResult a = core::RunCell(cfg);
  core::RunResult b = core::RunCell(cfg);
  EXPECT_DOUBLE_EQ(a.response_time.Mean(), b.response_time.Mean());
  EXPECT_EQ(a.metrics.counter("io.data-read"),
            b.metrics.counter("io.data-read"));
  EXPECT_EQ(a.metrics.counter("io.log-write"),
            b.metrics.counter("io.log-write"));
  EXPECT_EQ(a.db_objects, b.db_objects);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1, 7, 42, 12345, 987654321));

// Density monotonicity: without clustering, response time must not drop
// as structure density rises (denser retrievals cost more).
TEST(ShapeSweepTest, ResponseMonotoneInDensityWithoutClustering) {
  double prev = 0;
  for (auto density :
       {workload::StructureDensity::kLow3, workload::StructureDensity::kMed5,
        workload::StructureDensity::kHigh10}) {
    core::ModelConfig cfg = core::TestConfig();
    cfg.measured_transactions = 400;
    cfg.workload.density = density;
    cfg.database.density = density;
    cfg.clustering.pool = cluster::CandidatePool::kNoClustering;
    const double rt = core::RunCell(cfg).response_time.Mean();
    EXPECT_GE(rt, prev * 0.95) << workload::StructureDensityName(density);
    prev = rt;
  }
}

// Larger buffers never hurt (monotone within noise).
TEST(ShapeSweepTest, MoreBuffersNeverHurt) {
  double small = 0, large = 0;
  for (size_t buffers : {24u, 512u}) {
    core::ModelConfig cfg = core::TestConfig();
    cfg.measured_transactions = 400;
    cfg.buffer_pages = buffers;
    const double rt = core::RunCell(cfg).response_time.Mean();
    (buffers == 24u ? small : large) = rt;
  }
  EXPECT_LE(large, small * 1.05);
}

}  // namespace
}  // namespace oodb
