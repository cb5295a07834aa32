#include "bench_common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "util/env.h"

namespace oodb::bench {

namespace {

double Now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

void FillDefaultLabels(CellSpec& cell) {
  if (cell.policy.empty()) cell.policy = cell.config.clustering.Label();
  if (cell.workload.empty()) cell.workload = cell.config.WorkloadLabel();
  if (cell.cell_label.empty()) {
    cell.cell_label = cell.policy + "/" + cell.workload;
  }
}

}  // namespace

bool FastMode() { return EnvFlag("SEMCLUST_BENCH_FAST"); }

core::ModelConfig BaseConfig() {
  core::ModelConfig cfg = core::ScaledConfig();
  cfg.buffer_pages = cfg.BufferMedium();  // the paper's 1000-buffer level
  cfg.warmup_transactions = FastMode() ? 100 : 300;
  cfg.measured_transactions = FastMode() ? 500 : 2000;
  if (const auto seed = EnvSeed()) cfg.seed = *seed;
  // Telemetry density: epoch-boundary samples are always on; a positive
  // interval adds simulated-time samples between them (DESIGN.md §9).
  if (const auto interval = EnvSeriesS()) {
    cfg.telemetry_interval_s = *interval;
  }
  // Span profiler (DESIGN.md §14), same knob semclust_run honours.
  if (std::getenv("SEMCLUST_SPANS") != nullptr) {
    cfg.profile_spans = EnvFlag("SEMCLUST_SPANS");
  }
  return cfg;
}

core::BenchReport& Report() {
  static core::BenchReport report("bench");
  return report;
}

void PrintHeader(const std::string& figure, const std::string& title,
                 const std::string& expectation) {
  Report().set_bench(figure);
  std::printf("\n================================================================\n");
  std::printf("%s -- %s\n", figure.c_str(), title.c_str());
  std::printf("Paper expectation: %s\n", expectation.c_str());
  if (FastMode()) std::printf("(fast mode: shortened runs)\n");
  std::printf("================================================================\n");
}

void ShapeCheck(const std::string& claim, bool holds) {
  std::printf("[%s] %s\n", holds ? "SHAPE-OK " : "DEVIATION", claim.c_str());
}

std::vector<core::RunResult> RunCells(std::vector<CellSpec> cells) {
  for (CellSpec& cell : cells) FillDefaultLabels(cell);

  std::vector<core::ModelConfig> configs;
  configs.reserve(cells.size());
  for (const CellSpec& cell : cells) configs.push_back(cell.config);

  exec::ExperimentRunner runner;
  const double start = Now();
  auto outcomes = runner.Run(std::move(configs));
  const double wall = Now() - start;
  // Status goes to stderr so the stdout tables stay byte-identical to the
  // serial harness.
  std::fprintf(stderr, "[exec] %zu cells, jobs=%d, %.1f s wall\n",
               cells.size(), runner.jobs(), wall);

  std::vector<core::RunResult> results;
  results.reserve(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    Report().Record(cells[i].cell_label, cells[i].policy, cells[i].workload,
                    outcomes[i].result, outcomes[i].wall_s);
    results.push_back(std::move(outcomes[i].result));
  }
  return results;
}

double MeanResponse(const core::ModelConfig& config) {
  const double start = Now();
  const core::RunResult result = core::RunCell(config);
  CellSpec labels;
  labels.config = config;
  FillDefaultLabels(labels);
  Report().Record(labels.cell_label, labels.policy, labels.workload, result,
                  Now() - start);
  return result.response_time.Mean();
}

std::string Sec(double s) { return FormatDouble(s * 1000.0, 1) + " ms"; }

void PrintGrid(const ClusteringGrid& grid) {
  std::vector<std::string> headers{"policy \\ workload"};
  for (const auto& l : grid.workload_labels) headers.push_back(l);
  TablePrinter table(std::move(headers));
  for (size_t p = 0; p < grid.policy_labels.size(); ++p) {
    std::vector<std::string> row{grid.policy_labels[p]};
    for (double rt : grid.response[p]) row.push_back(Sec(rt));
    table.AddRow(std::move(row));
  }
  std::ostringstream os;
  table.Print(os);
  std::fputs(os.str().c_str(), stdout);
}

}  // namespace oodb::bench
