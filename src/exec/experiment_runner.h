#ifndef SEMCLUST_EXEC_EXPERIMENT_RUNNER_H_
#define SEMCLUST_EXEC_EXPERIMENT_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/model_config.h"
#include "core/run_result.h"
#include "obs/metrics.h"

/// \file
/// Parallel execution of independent experiment cells. The paper's
/// evaluation is a grid of independent simulations (policies x workloads x
/// buffering combos); each cell owns its entire model state, so the grid
/// parallelises perfectly. The runner guarantees a *determinism contract*:
/// the statistics of every cell are bit-identical regardless of the job
/// count or the order in which workers pick cells up, because
///   - each cell's seed is derived only from (its configured seed, its
///     submission index) via splitmix64, never from scheduling state, and
///   - results are written into a slot pre-assigned by submission index.
///
/// Environment:
///   SEMCLUST_BENCH_JOBS=n   worker threads (default: hardware
///                           concurrency; 1 runs cells serially on the
///                           calling thread, the legacy path)

namespace oodb::exec {

/// One cell's outcome: the simulation statistics plus runner metadata.
struct CellOutcome {
  core::RunResult result;
  /// The derived seed the cell actually ran with.
  uint64_t seed = 0;
  /// Wall-clock seconds spent simulating this cell.
  double wall_s = 0;
};

/// Runs batches of independent `core::RunCell` simulations on a fixed-size
/// thread pool. Stateless between batches; cheap to construct.
class ExperimentRunner {
 public:
  /// `jobs` <= 1 forces the serial path; otherwise up to `jobs` worker
  /// threads run cells concurrently.
  explicit ExperimentRunner(int jobs = JobsFromEnv());

  /// Runs every cell and returns outcomes in submission order. Each cell's
  /// config has its seed replaced by CellSeed(config.seed, index) and its
  /// cell_index stamped with the submission index before the run, so a
  /// batch gives every cell an independent, reproducible random stream and
  /// a stable identity in exported traces.
  std::vector<CellOutcome> Run(std::vector<core::ModelConfig> cells) const;

  /// Folds every outcome's metric snapshot into one, in submission order.
  /// Because each cell's snapshot depends only on its own config and the
  /// fold order is fixed, the merged snapshot is bit-identical at any job
  /// count — the determinism contract extended to observability.
  static obs::MetricsSnapshot MergeMetrics(
      const std::vector<CellOutcome>& outcomes);

  int jobs() const { return jobs_; }

  /// SEMCLUST_BENCH_JOBS, defaulting to std::thread::hardware_concurrency.
  /// A value that is not a whole positive integer exits with status 2.
  static int JobsFromEnv();

  /// splitmix64 over (base_seed, cell_index): statistically independent
  /// per-cell seeds that depend only on submission order, never on
  /// scheduling. Stable across platforms and job counts.
  static uint64_t CellSeed(uint64_t base_seed, uint64_t cell_index);

 private:
  int jobs_;
};

}  // namespace oodb::exec

#endif  // SEMCLUST_EXEC_EXPERIMENT_RUNNER_H_
