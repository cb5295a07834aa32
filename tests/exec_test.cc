#include <atomic>
#include <vector>

#include "gtest/gtest.h"

#include "cluster/cluster_manager.h"
#include "core/experiment.h"
#include "core/model_config.h"
#include "exec/experiment_runner.h"
#include "exec/thread_pool.h"

namespace oodb::exec {
namespace {

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusableBetweenBatches) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.Submit([&done] { done.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(done.load(), 1);
  pool.Submit([&done] { done.fetch_add(1); });
  pool.Submit([&done] { done.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(done.load(), 3);
}

// ------------------------------------------------------- seed derivation

TEST(CellSeedTest, StableAndDistinctPerIndex) {
  const uint64_t base = 1;
  std::vector<uint64_t> seeds;
  for (uint64_t i = 0; i < 64; ++i) {
    const uint64_t s = ExperimentRunner::CellSeed(base, i);
    EXPECT_EQ(s, ExperimentRunner::CellSeed(base, i));  // pure function
    EXPECT_NE(s, 0u);
    for (uint64_t prev : seeds) EXPECT_NE(s, prev);
    seeds.push_back(s);
  }
  // Different base seeds give different streams at the same index.
  EXPECT_NE(ExperimentRunner::CellSeed(1, 0), ExperimentRunner::CellSeed(2, 0));
}

// -------------------------------------------------------- runner batches

std::vector<core::ModelConfig> Grid3x3() {
  std::vector<core::ModelConfig> cells;
  for (auto density :
       {workload::StructureDensity::kLow3, workload::StructureDensity::kMed5,
        workload::StructureDensity::kHigh10}) {
    for (double ratio : {5.0, 10.0, 100.0}) {
      core::ModelConfig cfg = core::TestConfig();
      cfg.warmup_transactions = 20;
      cfg.measured_transactions = 100;
      workload::WorkloadConfig w;
      w.density = density;
      w.read_write_ratio = ratio;
      cells.push_back(core::WithWorkload(cfg, w));
    }
  }
  return cells;
}

/// Bit-exact comparison of everything a RunResult reports.
void ExpectIdenticalResults(const core::RunResult& a,
                            const core::RunResult& b) {
  EXPECT_EQ(a.response_time.count(), b.response_time.count());
  EXPECT_EQ(a.response_time.sum(), b.response_time.sum());
  EXPECT_EQ(a.response_time.Mean(), b.response_time.Mean());
  EXPECT_EQ(a.response_time.min(), b.response_time.min());
  EXPECT_EQ(a.response_time.max(), b.response_time.max());
  EXPECT_EQ(a.read_response.sum(), b.read_response.sum());
  EXPECT_EQ(a.write_response.sum(), b.write_response.sum());
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.logical_reads, b.logical_reads);
  EXPECT_EQ(a.logical_writes, b.logical_writes);
  EXPECT_EQ(a.metrics.ToJson(), b.metrics.ToJson());
  EXPECT_EQ(a.achieved_rw_ratio, b.achieved_rw_ratio);
  EXPECT_EQ(a.db_pages, b.db_pages);
  EXPECT_EQ(a.db_objects, b.db_objects);
}

TEST(ExperimentRunnerTest, ParallelIsBitIdenticalToSerial) {
  const auto cells = Grid3x3();
  const auto serial = ExperimentRunner(1).Run(cells);
  const auto parallel = ExperimentRunner(4).Run(cells);
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    ExpectIdenticalResults(serial[i].result, parallel[i].result);
  }
}

TEST(ExperimentRunnerTest, ResultsComeBackInSubmissionOrder) {
  auto cells = Grid3x3();
  // Give every cell a distinct base seed and measured length so each slot
  // is unambiguously attributable to its submission index.
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i].seed = 1000 + i;
    cells[i].measured_transactions = 60 + static_cast<int>(i);
  }
  const auto outcomes = ExperimentRunner(4).Run(cells);
  ASSERT_EQ(outcomes.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(outcomes[i].seed,
              ExperimentRunner::CellSeed(cells[i].seed, i));
    EXPECT_EQ(outcomes[i].result.transactions,
              static_cast<uint64_t>(60 + static_cast<int>(i)));
  }
}

TEST(ExperimentRunnerTest, MergedMetricsBitIdenticalAcrossJobCounts) {
  const auto cells = Grid3x3();
  const auto serial = ExperimentRunner(1).Run(cells);
  const auto parallel = ExperimentRunner(4).Run(cells);
  const obs::MetricsSnapshot m1 = ExperimentRunner::MergeMetrics(serial);
  const obs::MetricsSnapshot m4 = ExperimentRunner::MergeMetrics(parallel);
  // The merged snapshots must render to the same bytes: same metrics, in
  // the same order, with bit-identical values (%.17g round-trips doubles).
  EXPECT_EQ(m1.ToJson(), m4.ToJson());
  if (!m1.empty()) {
    // Merging summed across the nine cells.
    uint64_t txns = 0;
    for (const auto& o : serial) txns += o.result.transactions;
    EXPECT_EQ(*m1.counter("core.txns"), txns);
    ASSERT_NE(m1.histogram("core.response_s"), nullptr);
    EXPECT_EQ(m1.histogram("core.response_s")->count, txns);
  }
}

TEST(ExperimentRunnerTest, SeedDerivationIndependentOfJobCount) {
  const auto cells = Grid3x3();
  for (int jobs : {1, 2, 4, 7}) {
    const auto outcomes = ExperimentRunner(jobs).Run(cells);
    for (size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(outcomes[i].seed,
                ExperimentRunner::CellSeed(cells[i].seed, i));
    }
  }
}

// ------------------------------------- ScoreCandidates scratch regression

TEST(ScoreCandidatesScratchTest, RepeatedCallsReturnIdenticalOrdering) {
  obj::TypeLattice lattice;
  const obj::TypeId type = lattice.DefineType(
      "cell", obj::kInvalidType, 32, {8.0, 1.0, 0.5, 0.5});
  obj::ObjectGraph graph(&lattice);
  store::StorageManager storage(400);
  cluster::AffinityModel affinity(&lattice);
  cluster::ClusterManager mgr(
      &graph, &storage, &affinity, nullptr,
      {.pool = cluster::CandidatePool::kWithinDb});
  const obj::FamilyId fam = graph.NewFamily("F");
  auto make = [&] { return graph.Create(fam, 1, type, 50); };

  // Three candidate pages with 3/2/1 relatives of x.
  const store::PageId pages[3] = {storage.AllocatePage(),
                                  storage.AllocatePage(),
                                  storage.AllocatePage()};
  const obj::ObjectId x = make();
  const obj::ObjectId y = make();
  for (int p = 0; p < 3; ++p) {
    for (int n = 0; n < 3 - p; ++n) {
      const obj::ObjectId rel = make();
      OODB_CHECK(storage.Place(rel, 50, pages[p]).ok());
      graph.Relate(rel, x, obj::RelKind::kConfiguration);
      if (n == 0) graph.Relate(rel, y, obj::RelKind::kCorrespondence);
    }
  }

  const std::vector<cluster::ClusterManager::Candidate> first =
      mgr.ScoreCandidates(x);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].page, pages[0]);
  EXPECT_EQ(first[1].page, pages[1]);
  EXPECT_EQ(first[2].page, pages[2]);
  EXPECT_GT(first[0].score, first[1].score);
  EXPECT_GT(first[1].score, first[2].score);

  // Interleave a call for a different object (clobbering the scratch),
  // then re-score x: the scratch reuse must not change the answer.
  (void)mgr.ScoreCandidates(y);
  const std::vector<cluster::ClusterManager::Candidate>& second =
      mgr.ScoreCandidates(x);
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].page, first[i].page);
    EXPECT_EQ(second[i].score, first[i].score);
  }
}

}  // namespace
}  // namespace oodb::exec
