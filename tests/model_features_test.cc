// Tests for the model's reporting features: per-query-type response
// breakdown, measurement epochs, static reorganisation, and the placement
// ablation knobs.

#include "gtest/gtest.h"

#include "core/engineering_db.h"
#include "core/experiment.h"

namespace oodb::core {
namespace {

ModelConfig SmallConfig() {
  ModelConfig cfg = TestConfig();
  cfg.measured_transactions = 300;
  cfg.warmup_transactions = 40;
  return cfg;
}

TEST(ResponseBreakdownTest, PerQueryStatsCoverAllTransactions) {
  RunResult r = RunCell(SmallConfig());
  uint64_t total = 0;
  for (const auto& s : r.response_by_query) total += s.count();
  EXPECT_EQ(total, r.response_time.count());
}

TEST(ResponseBreakdownTest, DeepRetrievalCostsMoreThanSimpleLookup) {
  ModelConfig cfg = SmallConfig();
  cfg.workload.density = workload::StructureDensity::kHigh10;
  cfg.measured_transactions = 600;
  RunResult r = RunCell(cfg);
  const auto& simple =
      r.response_by_query[static_cast<size_t>(
          workload::QueryType::kSimpleLookup)];
  const auto& composite =
      r.response_by_query[static_cast<size_t>(
          workload::QueryType::kCompositeRetrieval)];
  ASSERT_GT(simple.count(), 0u);
  ASSERT_GT(composite.count(), 0u);
  EXPECT_GT(composite.Mean(), simple.Mean());
}

TEST(EpochTest, EpochsPartitionTheMeasuredPhase) {
  ModelConfig cfg = SmallConfig();
  cfg.measurement_epochs = 5;
  RunResult r = RunCell(cfg);
  ASSERT_EQ(r.response_epochs.size(), 5u);
  uint64_t total = 0;
  for (const auto& e : r.response_epochs) {
    EXPECT_GT(e.count(), 0u);
    total += e.count();
  }
  EXPECT_EQ(total, r.response_time.count());
}

TEST(EpochTest, SingleEpochEqualsOverall) {
  ModelConfig cfg = SmallConfig();
  cfg.measurement_epochs = 1;
  RunResult r = RunCell(cfg);
  ASSERT_EQ(r.response_epochs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.response_epochs[0].Mean(), r.response_time.Mean());
}

TEST(StaticReorganizeTest, ImprovesUnclusteredLayout) {
  ModelConfig plain = SmallConfig();
  plain.workload.density = workload::StructureDensity::kMed5;
  plain.clustering.pool = cluster::CandidatePool::kNoClustering;

  ModelConfig reorganized = plain;
  reorganized.static_reorganize_after_build = true;

  const double rt_plain = RunCell(plain).response_time.Mean();
  const double rt_reorg = RunCell(reorganized).response_time.Mean();
  EXPECT_LT(rt_reorg, rt_plain);
}

TEST(AblationKnobsTest, DisablingMechanismsReducesTheGain) {
  ModelConfig base = SmallConfig();
  base.workload.density = workload::StructureDensity::kHigh10;
  base.workload.read_write_ratio = 100;
  base.clustering.pool = cluster::CandidatePool::kWithinDb;

  ModelConfig crippled = base;
  crippled.clustering.sibling_candidates = false;
  crippled.clustering.fresh_page_on_overflow = false;

  const double rt_full = RunCell(base).response_time.Mean();
  const double rt_crippled = RunCell(crippled).response_time.Mean();
  EXPECT_LT(rt_full, rt_crippled);
}

TEST(SessionModulesTest, IndependentSamplingLowersHitRatio) {
  ModelConfig local = SmallConfig();
  local.workload.session_module_count = 1;
  ModelConfig indep = SmallConfig();
  indep.workload.session_module_count = 0;  // fresh module per transaction
  const auto hit_ratio = [](const RunResult& r) {
    const std::optional<uint64_t> hits = r.metrics.counter("buffer.hits");
    return *obs::MetricsSnapshot::Ratio(
        hits, *hits + *r.metrics.counter("buffer.misses"));
  };
  const double hit_local = hit_ratio(RunCell(local));
  const double hit_indep = hit_ratio(RunCell(indep));
  EXPECT_LT(hit_indep, hit_local);
}

TEST(RatioScheduleTest, PhasesFollowTheSchedule) {
  // Two-phase run: write-dominant then read-dominant. The write share of
  // completed transactions must drop sharply between epochs.
  ModelConfig cfg = SmallConfig();
  cfg.measured_transactions = 600;
  cfg.measurement_epochs = 2;
  cfg.rw_ratio_schedule = {1.0, 100.0};
  cfg.workload.read_write_ratio = 1.0;
  RunResult r = RunCell(cfg);
  ASSERT_EQ(r.response_epochs.size(), 2u);
  // Overall achieved ratio sits between the two phase targets.
  EXPECT_GT(r.achieved_rw_ratio, 1.0);
  EXPECT_LT(r.achieved_rw_ratio, 100.0);
}

TEST(RatioScheduleTest, EmptyScheduleKeepsConfiguredRatio) {
  ModelConfig cfg = SmallConfig();
  cfg.measured_transactions = 500;
  cfg.workload.read_write_ratio = 10.0;
  RunResult r = RunCell(cfg);
  EXPECT_NEAR(r.achieved_rw_ratio, 10.0, 3.5);
}

TEST(UserHintModelTest, HintsDoNotBreakTheRun) {
  ModelConfig cfg = SmallConfig();
  cfg.clustering.pool = cluster::CandidatePool::kWithinDb;
  cfg.clustering.use_hints = true;
  cfg.clustering.hint_kind = obj::RelKind::kConfiguration;
  cfg.prefetch = buffer::PrefetchPolicy::kWithinDb;
  RunResult r = RunCell(cfg);
  EXPECT_EQ(r.transactions,
            static_cast<uint64_t>(cfg.measured_transactions));
}

// Every clustering pool must complete a run with every replacement and
// prefetch policy (a compatibility sweep).
struct PolicyCombo {
  cluster::CandidatePool pool;
  buffer::ReplacementPolicy replacement;
  buffer::PrefetchPolicy prefetch;
};

class PolicyMatrixTest : public ::testing::TestWithParam<PolicyCombo> {};

TEST_P(PolicyMatrixTest, RunCompletes) {
  ModelConfig cfg = TestConfig();
  cfg.measured_transactions = 120;
  cfg.warmup_transactions = 20;
  cfg.clustering.pool = GetParam().pool;
  cfg.clustering.split = cluster::SplitPolicy::kLinearGreedy;
  cfg.replacement = GetParam().replacement;
  cfg.prefetch = GetParam().prefetch;
  RunResult r = RunCell(cfg);
  EXPECT_EQ(r.transactions, 120u);
  EXPECT_GT(r.response_time.Mean(), 0.0);
}

std::vector<PolicyCombo> AllCombos() {
  std::vector<PolicyCombo> combos;
  for (auto pool : {cluster::CandidatePool::kNoClustering,
                    cluster::CandidatePool::kWithinBuffer,
                    cluster::CandidatePool::kIoLimit,
                    cluster::CandidatePool::kWithinDb}) {
    for (auto rep : {buffer::ReplacementPolicy::kLru,
                     buffer::ReplacementPolicy::kContextSensitive,
                     buffer::ReplacementPolicy::kRandom}) {
      for (auto pf : {buffer::PrefetchPolicy::kNone,
                      buffer::PrefetchPolicy::kWithinBuffer,
                      buffer::PrefetchPolicy::kWithinDb}) {
        combos.push_back({pool, rep, pf});
      }
    }
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyMatrixTest,
                         ::testing::ValuesIn(AllCombos()));

}  // namespace
}  // namespace oodb::core
