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
// The SEMCLUST_BENCH_SEED and SEMCLUST_BENCH_SERIES_S environment knobs
// are honoured exactly as the bench binaries honour them, and
// SEMCLUST_SPANS=1 turns on the per-transaction span profiler
// (config.profile_spans) without editing the committed scenario. Exit
// status: 0 on success, 2 on usage/parse errors, including a flag value
// that does not parse whole or a value-taking flag followed by another
// option.

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/bench_report.h"
#include "core/policy_registry.h"
#include "core/scenario.h"
#include "exec/experiment_runner.h"
#include "util/table_printer.h"

namespace {

using oodb::core::PolicyAxis;
using oodb::core::PolicyRegistry;

double Now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

void PrintUsage(std::FILE* to) {
  std::fprintf(to,
               "usage: semclust_run [--jobs N] [--json PATH] [--seed N] "
               "[--metrics-out PATH] [--dry-run] [--policies] "
               "[--list-policies] <scenario.json>...\n");
}

// Parses the whole of `text` as a T with std::from_chars, the rule
// core/scenario.cc applies to JSON integers: no sign on an unsigned type,
// no leading '+', no trailing characters, no overflow.
template <typename T>
std::optional<T> ParseWhole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

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

int RunScenario(const std::string& path, bool dry_run,
                const std::string& metrics_out) {
  auto spec_or = oodb::core::LoadScenarioFile(path);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "semclust_run: %s\n",
                 spec_or.status().ToString().c_str());
    return 2;
  }
  oodb::core::ScenarioSpec spec = std::move(spec_or).value();

  // The bench binaries read these knobs in BaseConfig(); a scenario run
  // honours them the same way so CI can vary seed/telemetry without
  // editing the committed file.
  if (const char* seed = std::getenv("SEMCLUST_BENCH_SEED")) {
    spec.base.seed =
        static_cast<uint64_t>(std::strtoull(seed, nullptr, 10));
  }
  if (const char* interval = std::getenv("SEMCLUST_BENCH_SERIES_S")) {
    spec.base.telemetry_interval_s = std::strtod(interval, nullptr);
  }
  if (const char* sp = std::getenv("SEMCLUST_SPANS")) {
    spec.base.profile_spans = sp[0] != '\0' && sp[0] != '0';
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

  const oodb::exec::ExperimentRunner runner;
  const double start = Now();
  const auto outcomes = runner.Run(std::move(configs));
  const double wall = Now() - start;
  std::fprintf(stderr, "[exec] %zu cells, jobs=%d, %.1f s wall\n",
               cells.size(), runner.jobs(), wall);

  oodb::TablePrinter table({"cell", "mean resp", "physical IOs"});
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const auto& result = outcomes[i].result;
    report.Record(cells[i].cell_label, cells[i].policy, cells[i].workload,
                  result, outcomes[i].wall_s);
    table.AddRow({cells[i].cell_label,
                  oodb::FormatDouble(result.response_time.Mean() * 1000.0, 1) +
                      " ms",
                  std::to_string(result.total_physical_ios())});
  }
  std::ostringstream os;
  table.Print(os);
  std::fputs(os.str().c_str(), stdout);

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
  return 0;
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
  for (const auto& path : paths) {
    const int rc = RunScenario(path, dry_run, metrics_out);
    if (rc != 0) return rc;
  }
  return 0;
}
