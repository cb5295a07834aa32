// Heap-allocation budget of the measured simulation. This binary replaces
// the global operator new with a counting one, runs one strict-2PL OCT cell
// at two measured lengths from the same seed, and bounds the difference:
// the extra transactions must cost at most one heap allocation each. The
// warmup, the database build and the report are the same in both runs, so
// the difference is what the extra transactions allocate.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "core/engineering_db.h"
#include "core/scenario.h"
#include "gtest/gtest.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Not inlined: GCC would otherwise see a `new` pointer reach free() and
// warn (-Wmismatched-new-delete), which -Werror turns into an error.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace oodb {
namespace {

// One cell of the oct_contention_long benchmark workload (OCT med5 at R/W
// 5, strict 2PL, medium buffer), at 500 users: locks and latches queue,
// and some lock waits time out and roll back.
core::ModelConfig Cell(const std::string& pool, int measured) {
  const auto spec = core::ParseScenario(R"json({
    "name": "alloc_budget",
    "config": {
      "buffer_level": "medium",
      "warmup_transactions": 500,
      "measured_transactions": 2000,
      "num_users": 500,
      "seed": 7,
      "concurrency": {"enabled": true, "cc_lock_timeout_s": 0.5},
      "workload": {"density": "med5", "rw_ratio": 5},
      "clustering": {"pool": ")json" + pool + R"json("}
    }
  })json");
  OODB_CHECK(spec.ok());
  core::ModelConfig cfg = spec->Expand().front().config;
  cfg.measured_transactions = measured;
  return cfg;
}

uint64_t AllocationsFor(const core::ModelConfig& cfg) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const core::RunResult r = core::EngineeringDbModel(cfg).Run();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(r.transactions,
            static_cast<uint64_t>(cfg.measured_transactions));
  EXPECT_GT(r.metrics.counter("cc.lock_waits").value_or(0), 0u);
  EXPECT_GT(r.metrics.counter("cc.latch_waits").value_or(0), 0u);
  return after - before;
}

void ExpectMarginalBudget(const std::string& pool) {
  constexpr int kShort = 2000;
  constexpr int kLong = 4000;
  // A first run fills the per-thread coroutine-frame pool, so both
  // measured runs start from the same pool state.
  AllocationsFor(Cell(pool, kShort));
  const uint64_t short_run = AllocationsFor(Cell(pool, kShort));
  const uint64_t long_run = AllocationsFor(Cell(pool, kLong));
  ASSERT_GE(long_run, short_run);
  const double per_txn =
      static_cast<double>(long_run - short_run) / (kLong - kShort);
  std::printf("%s: %llu allocations at %d txns, %llu at %d: %.3f per txn\n",
              pool.c_str(), static_cast<unsigned long long>(short_run),
              kShort, static_cast<unsigned long long>(long_run), kLong,
              per_txn);
  EXPECT_LE(per_txn, 1.0);
}

TEST(AllocBudgetTest, NoClusteringTransactionsAllocateAtMostOnceEach) {
  ExpectMarginalBudget("No_Clustering");
}

TEST(AllocBudgetTest, RunTimeClusteringTransactionsAllocateAtMostOnceEach) {
  ExpectMarginalBudget("No_limit");
}

}  // namespace
}  // namespace oodb
