#ifndef SEMCLUST_BENCH_BENCH_COMMON_H_
#define SEMCLUST_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/bench_report.h"
#include "core/experiment.h"
#include "core/model_config.h"
#include "exec/experiment_runner.h"
#include "util/table_printer.h"

/// \file
/// Shared plumbing for the figure-regeneration binaries that a scenario
/// file (bench/scenarios/, run by tools/semclust_run) cannot express. Every
/// bench binary prints: a header naming the paper table/figure it
/// reproduces and the expected shape, the regenerated series as an aligned
/// table, and a short shape check (SHAPE-OK/DEVIATION) against the paper's
/// qualitative claims.
///
/// Experiment grids run on the exec::ExperimentRunner worker pool; each
/// cell gets a splitmix64-derived per-cell seed, so the numbers are
/// bit-identical at any job count.
///
/// Environment (a malformed value exits 2, naming the variable):
///   SEMCLUST_BENCH_FAST=1      quarter-length runs (smoke mode)
///   SEMCLUST_BENCH_SEED=n      override the simulation base seed
///   SEMCLUST_BENCH_JOBS=n      worker threads (default: hardware
///                              concurrency; 1 = legacy serial path)
///   SEMCLUST_BENCH_JSON=path   append one JSON record per cell to `path`
///   SEMCLUST_BENCH_SERIES_S=x  simulated seconds between telemetry
///                              samples (default: epoch boundaries only)

namespace oodb::bench {

/// True when SEMCLUST_BENCH_FAST is set.
bool FastMode();

/// The base configuration used by all simulation benches: the scaled
/// database with the paper's 1000-buffer level and default cost model.
core::ModelConfig BaseConfig();

/// The per-binary JSON reporter. Its bench name is set by PrintHeader;
/// inert unless SEMCLUST_BENCH_JSON is set.
core::BenchReport& Report();

/// Prints the figure banner and names the JSON reporter after `figure`.
void PrintHeader(const std::string& figure, const std::string& title,
                 const std::string& expectation);

/// Prints a shape-check verdict line.
void ShapeCheck(const std::string& claim, bool holds);

/// One labelled cell for batch execution. Empty label fields are filled
/// from the config (policy from clustering, workload from the workload,
/// cell_label as "policy/workload").
struct CellSpec {
  core::ModelConfig config;
  std::string cell_label;
  std::string policy;
  std::string workload;
};

/// Runs `cells` through the ExperimentRunner (SEMCLUST_BENCH_JOBS
/// workers), emits one JSON record per cell through Report(), prints a
/// `[exec]` wall-clock summary to stderr, and returns the results in
/// submission order.
std::vector<core::RunResult> RunCells(std::vector<CellSpec> cells);

/// Runs one cell on the calling thread (no per-cell seed derivation — the
/// configured seed is used as-is) and returns mean response time in
/// seconds. Emits a JSON record.
double MeanResponse(const core::ModelConfig& config);

/// Label helper: seconds with ms precision.
std::string Sec(double s);

/// Response-time matrix of clustering policies x workload cells.
struct ClusteringGrid {
  std::vector<std::string> policy_labels;    // rows
  std::vector<std::string> workload_labels;  // columns
  /// response[policy][workload], mean seconds.
  std::vector<std::vector<double>> response;

  double At(size_t policy, size_t workload) const {
    return response[policy][workload];
  }
};

/// Prints the grid with policies as rows.
void PrintGrid(const ClusteringGrid& grid);

}  // namespace oodb::bench

#endif  // SEMCLUST_BENCH_BENCH_COMMON_H_
