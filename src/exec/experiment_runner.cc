#include "exec/experiment_runner.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/experiment.h"
#include "exec/thread_pool.h"
#include "util/env.h"

namespace oodb::exec {

namespace {

// Each grid cell builds and tears down multi-megabyte flat buffers (edge
// arenas, page directories, score scratch). glibc serves those from mmap
// and hands them straight back to the kernel on free, so a 45-cell grid
// spends ~12% of its wall-clock in mmap/munmap + refaulting the same
// ranges. Keeping large blocks on the brk heap and deferring trim removes
// that churn entirely; short-lived bench/CLI processes don't care about
// the retained RSS.
void TuneAllocatorForCellChurn() {
#if defined(__GLIBC__)
  static const bool done = [] {
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
    return true;
  }();
  (void)done;
#endif
}

double Now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

CellOutcome RunOne(core::ModelConfig cfg) {
  CellOutcome out;
  out.seed = cfg.seed;
  const double start = Now();
  out.result = core::RunCell(cfg);
  out.wall_s = Now() - start;
  return out;
}

}  // namespace

ExperimentRunner::ExperimentRunner(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

int ExperimentRunner::JobsFromEnv() {
  if (const std::optional<int> jobs =
          EnvNumber<int>("SEMCLUST_BENCH_JOBS", "a positive integer",
                         [](int v) { return v >= 1; })) {
    return *jobs;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

obs::MetricsSnapshot ExperimentRunner::MergeMetrics(
    const std::vector<CellOutcome>& outcomes) {
  obs::MetricsSnapshot merged;
  for (const CellOutcome& o : outcomes) {
    merged.MergeFrom(o.result.metrics);
  }
  return merged;
}

uint64_t ExperimentRunner::CellSeed(uint64_t base_seed, uint64_t cell_index) {
  // splitmix64 (Steele, Lea & Flood) over the pair. Mixing the index with
  // a large odd constant before adding keeps adjacent indices far apart in
  // the input space.
  uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (cell_index + 1);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  // A zero seed would degenerate some generators; nudge deterministically.
  return z == 0 ? 0x9E3779B97F4A7C15ULL : z;
}

std::vector<CellOutcome> ExperimentRunner::Run(
    std::vector<core::ModelConfig> cells) const {
  TuneAllocatorForCellChurn();
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i].seed = CellSeed(cells[i].seed, static_cast<uint64_t>(i));
    cells[i].cell_index = static_cast<int>(i);
  }
  std::vector<CellOutcome> outcomes(cells.size());

  const int workers =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(jobs_),
                                        cells.size() == 0 ? 1 : cells.size()));
  if (workers <= 1) {
    // Legacy serial path: same derived seeds, same results, no threads.
    for (size_t i = 0; i < cells.size(); ++i) {
      outcomes[i] = RunOne(std::move(cells[i]));
    }
    return outcomes;
  }

  // Dynamic self-scheduling over a shared index: cheap, and harmless to
  // determinism because a cell's result depends only on its own config.
  std::atomic<size_t> next{0};
  ThreadPool pool(workers);
  for (int w = 0; w < workers; ++w) {
    pool.Submit([&next, &cells, &outcomes] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= cells.size()) return;
        outcomes[i] = RunOne(std::move(cells[i]));
      }
    });
  }
  pool.Wait();
  return outcomes;
}

}  // namespace oodb::exec
