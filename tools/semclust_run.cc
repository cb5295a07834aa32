// Runs declarative `.scenario.json` experiment files (core/scenario.h)
// through the exec::ExperimentRunner worker pool and emits the standard
// BenchReport JSONL — the same records the hand-written bench binaries
// produce, so `bench_diff` can gate a scenario run against a committed
// baseline byte-for-byte.
//
// Usage:
//   semclust_run [options] <scenario.json>...
//     --jobs N     worker threads, a positive int (same as
//                  SEMCLUST_BENCH_JOBS=N)
//     --json PATH  append one JSONL record per cell to PATH
//                  (same as SEMCLUST_BENCH_JSON=PATH)
//     --seed N     override the scenario's base seed, an unsigned 64-bit
//                  integer (same as SEMCLUST_BENCH_SEED=N)
//     --metrics-out PATH
//                  write the final merged MetricsSnapshot of each
//                  scenario as a standalone JSON file (truncating;
//                  deterministic at any job count)
//     --dry-run    expand and list the cells without simulating
//     --policies   list the canonical policy names per axis and exit
//     --list-policies
//                  list every policy axis with canonical names AND the
//                  registered aliases each level accepts, and exit
//
// Environment: SEMCLUST_BENCH_FAST=1 applies each scenario's "fast"
// overlay; SEMCLUST_BENCH_SEED and SEMCLUST_BENCH_SERIES_S override the
// base seed and telemetry interval; SEMCLUST_SPANS=1 turns on the
// per-transaction span profiler (config.profile_spans) without editing
// the committed scenario. After the table, each "expect" claim prints as
// "[SHAPE-OK ] claim" or "[DEVIATION] claim".
//
// Exit status: 0 on success, 1 when any claim deviates (every scenario
// still runs), 2 on usage/parse errors: a flag or environment value that
// does not parse whole, a value-taking flag followed by another option,
// or an expectation that names no cell or record field.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/bench_report.h"
#include "core/policy_registry.h"
#include "core/scenario.h"
#include "exec/experiment_runner.h"
#include "util/env.h"
#include "util/json_reader.h"
#include "util/table_printer.h"

namespace {

using oodb::core::PolicyAxis;
using oodb::core::PolicyRegistry;

double Now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// The process's peak resident set (VmHWM) in MB, or a negative value where
// /proc does not report it. Host information for the closing stderr line;
// it never enters the JSONL.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

void PrintUsage(std::FILE* to) {
  std::fprintf(to,
               "usage: semclust_run [--jobs N] [--json PATH] [--seed N] "
               "[--metrics-out PATH] [--dry-run] [--policies] "
               "[--list-policies] <scenario.json>...\n");
}

using oodb::ParseWhole;

/// The environment overrides, read (and checked) once before any scenario
/// loads, so a malformed value exits 2 even under --dry-run.
struct EnvOverrides {
  bool fast = oodb::EnvFlag("SEMCLUST_BENCH_FAST");
  std::optional<uint64_t> seed = oodb::EnvSeed();
  std::optional<double> series_s = oodb::EnvSeriesS();
  int jobs = oodb::exec::ExperimentRunner::JobsFromEnv();
};

void PrintPolicies() {
  for (const PolicyAxis axis : oodb::core::kAllPolicyAxes) {
    std::printf("%-16s %s\n", oodb::core::PolicyAxisName(axis),
                PolicyRegistry::Global().KnownNames(axis).c_str());
  }
}

// The full naming surface: one line per policy level with the canonical
// spelling first and every registered alias after it, so scenario authors
// can discover which strings a `.scenario.json` file will resolve.
void PrintPolicyCatalog() {
  for (const PolicyAxis axis : oodb::core::kAllPolicyAxes) {
    std::printf("%s:\n", oodb::core::PolicyAxisName(axis));
    for (const auto& entry : PolicyRegistry::Global().Entries(axis)) {
      std::printf("  %-28s", entry.canonical.c_str());
      if (!entry.aliases.empty()) {
        std::string joined;
        for (const auto& alias : entry.aliases) {
          if (!joined.empty()) joined += ", ";
          joined += alias;
        }
        std::printf(" (aliases: %s)", joined.c_str());
      }
      std::printf("\n");
    }
  }
}

int RunScenario(const std::string& path, const EnvOverrides& env,
                bool dry_run, const std::string& metrics_out) {
  auto spec_or = oodb::core::LoadScenarioFile(path, env.fast);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "semclust_run: %s\n",
                 spec_or.status().ToString().c_str());
    return 2;
  }
  oodb::core::ScenarioSpec spec = std::move(spec_or).value();

  // Vary seed, telemetry and profiling without editing the committed
  // file; the overridden cells pass the same validation as parsed ones.
  if (env.seed) spec.base.seed = *env.seed;
  if (env.series_s) spec.base.telemetry_interval_s = *env.series_s;
  if (std::getenv("SEMCLUST_SPANS") != nullptr) {
    spec.base.profile_spans = oodb::EnvFlag("SEMCLUST_SPANS");
  }
  if (const oodb::Status st = spec.Validate(); !st.ok()) {
    std::fprintf(stderr, "semclust_run: %s: %s\n", path.c_str(),
                 st.ToString().c_str());
    return 2;
  }

  const auto cells = spec.Expand();
  std::printf("scenario %s -- %s: %zu cell(s)\n", spec.name.c_str(),
              spec.bench.c_str(), cells.size());
  if (!spec.description.empty()) {
    std::printf("%s\n", spec.description.c_str());
  }
  if (dry_run) {
    for (const auto& cell : cells) {
      std::printf("  %s\n", cell.cell_label.c_str());
    }
    return 0;
  }

  oodb::core::BenchReport report(spec.bench);
  std::vector<oodb::core::ModelConfig> configs;
  configs.reserve(cells.size());
  for (const auto& cell : cells) configs.push_back(cell.config);

  const oodb::exec::ExperimentRunner runner(env.jobs);
  const double start = Now();
  const auto outcomes = runner.Run(std::move(configs));
  const double wall = Now() - start;
  std::fprintf(stderr, "[exec] %zu cells, jobs=%d, %.1f s wall, peak RSS ",
               cells.size(), runner.jobs(), wall);
  if (const double peak_mb = PeakRssMb(); peak_mb >= 0) {
    std::fprintf(stderr, "%.1f MB\n", peak_mb);
  } else {
    std::fprintf(stderr, "unknown\n");
  }

  oodb::TablePrinter table({"cell", "mean resp", "physical IOs"});
  std::vector<std::map<std::string, oodb::JsonValue>> records;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const auto& result = outcomes[i].result;
    const oodb::core::BenchRecord record = oodb::core::BenchReport::FromResult(
        cells[i].cell_label, cells[i].policy, cells[i].workload, result,
        outcomes[i].wall_s);
    report.Record(record);
    if (!spec.expect.empty()) {
      records.push_back(oodb::FlattenJson(
          *oodb::JsonValue::Parse(report.ToJsonLine(record))));
    }
    table.AddRow({cells[i].cell_label,
                  oodb::FormatDouble(result.response_time.Mean() * 1000.0, 1) +
                      " ms",
                  std::to_string(result.total_physical_ios())});
  }
  std::ostringstream os;
  table.Print(os);
  std::fputs(os.str().c_str(), stdout);

  int rc = 0;
  if (!spec.expect.empty()) {
    const auto verdicts = spec.Evaluate(records);
    if (!verdicts.ok()) {
      std::fprintf(stderr, "semclust_run: %s: %s\n", path.c_str(),
                   verdicts.status().ToString().c_str());
      return 2;
    }
    for (const oodb::core::ShapeVerdict& v : *verdicts) {
      std::printf("[%s] %s\n", v.holds ? "SHAPE-OK " : "DEVIATION",
                  v.claim.c_str());
      if (!v.holds) rc = 1;
    }
  }

  if (!metrics_out.empty()) {
    // The merged snapshot folds cells in submission order, so the file is
    // bit-identical at any job count. Several scenarios on one command
    // line each truncate-and-rewrite; the file ends up holding the last.
    std::ofstream out(metrics_out, std::ios::trunc);
    if (out) {
      out << oodb::exec::ExperimentRunner::MergeMetrics(outcomes).ToJson()
          << '\n';
    }
    if (!out) {
      std::fprintf(stderr, "semclust_run: --metrics-out %s is not writable\n",
                   metrics_out.c_str());
      return 2;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool dry_run = false;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    }
    if (arg == "--policies") {
      PrintPolicies();
      return 0;
    }
    if (arg == "--list-policies") {
      PrintPolicyCatalog();
      return 0;
    }
    if (arg == "--dry-run") {
      dry_run = true;
      continue;
    }
    if (arg == "--metrics-out" || arg == "--jobs" || arg == "--json" ||
        arg == "--seed") {
      // A following option is a missing value, not the value.
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        std::fprintf(stderr, "semclust_run: %s needs a value\n", arg.c_str());
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--metrics-out") {
        metrics_out = value;
        continue;
      }
      if (arg == "--jobs") {
        const std::optional<int> jobs = ParseWhole<int>(value);
        if (!jobs || *jobs <= 0) {
          std::fprintf(stderr,
                       "semclust_run: --jobs must be a positive integer, "
                       "not '%s'\n",
                       value.c_str());
          return 2;
        }
      }
      if (arg == "--seed" && !ParseWhole<uint64_t>(value)) {
        std::fprintf(stderr,
                     "semclust_run: --seed must be an unsigned 64-bit "
                     "integer, not '%s'\n",
                     value.c_str());
        return 2;
      }
      // BenchReport and ExperimentRunner read their configuration from the
      // environment at construction, so the flags just set the same knobs.
      const char* var = arg == "--jobs"   ? "SEMCLUST_BENCH_JOBS"
                        : arg == "--json" ? "SEMCLUST_BENCH_JSON"
                                          : "SEMCLUST_BENCH_SEED";
      ::setenv(var, value.c_str(), 1);
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "semclust_run: unknown option %s\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  const EnvOverrides env;
  int worst = 0;
  for (const auto& path : paths) {
    const int rc = RunScenario(path, env, dry_run, metrics_out);
    if (rc == 2) return rc;
    worst = std::max(worst, rc);
  }
  return worst;
}
