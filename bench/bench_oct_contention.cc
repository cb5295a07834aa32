// Contention scaling under the strict-2PL lock manager (src/cc/): the
// OCT engineering workload at med5 density and R/W=5, swept from 200 to
// 2000 interactive users against No_Clustering and the paper's run-time
// clustering (No_limit). R/W=5 keeps exclusive locks frequent, so lock
// waits, deadlock timeouts, and abort/retry cycles all show up in the
// response-time curve rather than only in the counters.
//
// The fast grid is byte-identical to the committed scenario
// (bench/scenarios/oct_contention.scenario.json -> BENCH_oct_contention
// .jsonl); ci.sh gates both against each other.

#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace oodb;

namespace {

/// The two clustering endpoints of the sweep: arrival-order placement
/// and the unlimited-exam run-time clusterer (Figure 5.1's best policy).
std::vector<cluster::ClusterConfig> ContentionPolicies() {
  std::vector<cluster::ClusterConfig> pools(2);
  pools[0].pool = cluster::CandidatePool::kNoClustering;
  pools[1].pool = cluster::CandidatePool::kWithinDb;
  return pools;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "OCT contention",
      "Thousand-user contention scaling under strict 2PL",
      "(a) mean response time rises with the user population for every "
      "clustering policy — lock waits and abort/retry cycles add to the "
      "I/O path; (b) run-time clustering (No_limit) keeps its lead over "
      "No_Clustering at every population (fewer pages touched means "
      "fewer latch and lock conflicts); (c) aborts, retries, and lock "
      "waits are all nonzero by 1000 users");

  const std::vector<int> user_axis = {200, 1000, 2000};
  const auto pools = ContentionPolicies();

  // Users outermost, then clustering — the scenario's axis order, so the
  // JSONL records line up byte-for-byte with the committed baseline.
  std::vector<bench::CellSpec> batch;
  for (const int users : user_axis) {
    for (const auto& pool : pools) {
      bench::CellSpec cell;
      cell.config = bench::BaseConfig();
      cell.config.warmup_transactions = bench::FastMode() ? 50 : 100;
      cell.config.measured_transactions = bench::FastMode() ? 300 : 1200;
      cell.config.workload.density = workload::StructureDensity::kMed5;
      cell.config.database.density = workload::StructureDensity::kMed5;
      cell.config.workload.read_write_ratio = 5.0;
      cell.config.clustering = pool;
      cell.config.num_users = users;
      cell.config.cc.enabled = true;
      cell.config.cc.lock_timeout_s = 0.5;
      // Scenario label scheme: users axis prefixes the policy label.
      cell.policy = std::to_string(users) + "users_" + pool.Label();
      batch.push_back(std::move(cell));
    }
  }
  const auto results = bench::RunCells(std::move(batch));
  const auto at = [&](size_t u, size_t p) -> const core::RunResult& {
    return results[u * pools.size() + p];
  };
  const auto cc = [](const core::RunResult& r, const char* name) {
    return static_cast<unsigned long long>(
        r.metrics.counter(name).value_or(0));
  };
  // Aborted attempts over all attempts (committed + aborted).
  const auto abort_rate = [](const core::RunResult& r) {
    const uint64_t attempts = r.transactions + r.cc_txn_aborts;
    return attempts == 0 ? 0.0
                         : static_cast<double>(r.cc_txn_aborts) /
                               static_cast<double>(attempts);
  };

  bench::ClusteringGrid grid;
  for (const auto& pool : pools) grid.policy_labels.push_back(pool.Label());
  for (const int users : user_axis) {
    grid.workload_labels.push_back(std::to_string(users) + "users");
  }
  for (size_t p = 0; p < pools.size(); ++p) {
    std::vector<double> row;
    for (size_t u = 0; u < user_axis.size(); ++u) {
      row.push_back(at(u, p).response_time.Mean());
    }
    grid.response.push_back(std::move(row));
  }
  bench::PrintGrid(grid);

  std::printf("\n%-16s %9s %7s %8s %8s %11s %11s\n", "cell", "abort%",
              "aborts", "retries", "giveups", "lock_waits", "latch_waits");
  for (size_t u = 0; u < user_axis.size(); ++u) {
    for (size_t p = 0; p < pools.size(); ++p) {
      const auto& r = at(u, p);
      std::printf("%5dusers %-6s %8.1f%% %7llu %8llu %8llu %11llu %11llu\n",
                  user_axis[u], p == 0 ? "none" : "clust",
                  100.0 * abort_rate(r), cc(r, "cc.txn_aborts"),
                  cc(r, "cc.txn_retries"), cc(r, "cc.txn_giveups"),
                  cc(r, "cc.lock_waits"), cc(r, "cc.latch_waits"));
    }
  }

  bool rises = true;
  for (size_t p = 0; p < pools.size(); ++p) {
    for (size_t u = 1; u < user_axis.size(); ++u) {
      if (grid.At(p, u) <= grid.At(p, u - 1)) rises = false;
    }
  }
  bench::ShapeCheck(
      "mean response time rises with the user population under every "
      "clustering policy",
      rises);

  bool clustering_leads = true;
  for (size_t u = 0; u < user_axis.size(); ++u) {
    if (grid.At(1, u) >= grid.At(0, u)) clustering_leads = false;
  }
  bench::ShapeCheck(
      "run-time clustering (No_limit) beats No_Clustering at every "
      "user population",
      clustering_leads);

  unsigned long long aborts = 0, retries = 0, lock_waits = 0,
                     latch_waits = 0;
  for (const auto& r : results) {
    aborts += cc(r, "cc.txn_aborts");
    retries += cc(r, "cc.txn_retries");
    lock_waits += cc(r, "cc.lock_waits");
    latch_waits += cc(r, "cc.latch_waits");
  }
  std::printf("\ngrid totals: aborts %llu, retries %llu, lock_waits %llu, "
              "latch_waits %llu\n",
              aborts, retries, lock_waits, latch_waits);
  bench::ShapeCheck(
      "contention machinery engages across the grid: aborts, retries, "
      "lock waits, and latch waits all nonzero",
      aborts > 0 && retries > 0 && lock_waits > 0 && latch_waits > 0);

  const double low_rate = abort_rate(at(0, 0));
  const double high_rate = abort_rate(at(user_axis.size() - 1, 0));
  std::printf("No_Clustering abort rate: 200users %.3f -> 2000users %.3f\n",
              low_rate, high_rate);
  bench::ShapeCheck(
      "the No_Clustering abort rate grows from 200 to 2000 users",
      high_rate > low_rate);
  return 0;
}
