#ifndef SEMCLUST_CORE_BENCH_REPORT_H_
#define SEMCLUST_CORE_BENCH_REPORT_H_

#include <optional>
#include <string>

#include "core/engineering_db.h"
#include "obs/metrics.h"

/// \file
/// Machine-readable benchmark output. When SEMCLUST_BENCH_JSON=<path> is
/// set, every bench binary appends one JSON record per simulated cell to
/// that file (JSON Lines: one object per line), which is what populates the
/// repo's BENCH_*.json perf-trajectory files. Without the variable the
/// reporter is inert and the human-readable tables are the only output.
///
/// Every record embeds the cell's final metric snapshot (under "metrics")
/// plus the derived observability ratios. Derived ratios whose denominator
/// is zero — no buffer accesses, no reclusterings, no prefetches issued —
/// are emitted as JSON null, never as the result of a division by zero.

namespace oodb::core {

/// One emitted record's fields (all cells of a bench share `bench`).
struct BenchRecord {
  std::string cell_label;  ///< unique-within-bench cell name
  std::string policy;      ///< clustering/buffering policy label
  std::string workload;    ///< workload label, e.g. "hi10-100"
  double mean_response_s = 0;
  uint64_t io_count = 0;  ///< total physical I/Os of the measured phase
  double hit_ratio = 0;   ///< buffer hit ratio
  double elapsed_wall_s = 0;  ///< host wall-clock spent on the cell

  // Observability summary (nullopt renders as JSON null).
  std::optional<double> buffer_hit_ratio;        ///< hits / accesses
  std::optional<double> exam_ios_per_recluster;  ///< exam reads / attempts
  std::optional<double> prefetch_accuracy;       ///< hits / issued
  /// remote / (local + remote) object-page fetches across shards; null
  /// when the run was not sharded (shards = 1 never routes a fetch).
  std::optional<double> remote_fetch_fraction;
  uint64_t page_splits = 0;

  /// Response-time percentiles interpolated from the core.response_s
  /// histogram buckets (null when no transactions ran).
  std::optional<double> response_p50_s;
  std::optional<double> response_p95_s;
  std::optional<double> response_p99_s;

  /// Per-measurement-epoch response time: (transaction count, mean
  /// seconds), one entry per configured epoch.
  std::vector<std::pair<uint64_t, double>> response_epochs;

  /// The cell's full metric snapshot (empty snapshots are omitted from the
  /// JSON rather than rendered as an empty object). The nested "cc" object
  /// (DESIGN.md §16) is rendered from its `cc.*` counters, which are
  /// registered only when the run had the subsystem on — cc-off records
  /// (every committed pre-cc baseline) carry no cc keys at all.
  obs::MetricsSnapshot metrics;

  /// The cell's simulated-time telemetry (omitted from the JSON when
  /// empty): metric deltas + placement audits per sample.
  obs::TimeSeries series;

  /// Per-kind response-time phase breakdown (DESIGN.md §14): exact
  /// integer-tick totals per transaction kind. Empty — and omitted from
  /// the JSON — unless the run had `profile_spans` on.
  std::vector<obs::SpanKindBreakdown> breakdown;
};

/// Appends records for one bench binary to $SEMCLUST_BENCH_JSON.
class BenchReport {
 public:
  /// `bench` names the binary/figure and is stamped on every record. The
  /// destination is read from SEMCLUST_BENCH_JSON once, at construction.
  explicit BenchReport(std::string bench);

  /// False when SEMCLUST_BENCH_JSON is unset (records are dropped).
  bool enabled() const { return !path_.empty(); }

  const std::string& bench() const { return bench_; }
  void set_bench(std::string bench) { bench_ = std::move(bench); }

  /// Appends one record (open-append-close per record, so partial bench
  /// runs still leave valid lines behind).
  void Record(const BenchRecord& record) const;

  /// Convenience: fills the numeric fields (including the observability
  /// summary and metric snapshot) from a RunResult.
  void Record(const std::string& cell_label, const std::string& policy,
              const std::string& workload, const RunResult& result,
              double elapsed_wall_s) const;

  /// Builds a record from a RunResult (the null-safe ratio derivation
  /// lives here; exposed for tests).
  static BenchRecord FromResult(const std::string& cell_label,
                                const std::string& policy,
                                const std::string& workload,
                                const RunResult& result,
                                double elapsed_wall_s);

  /// Renders one record as its JSONL line (without the trailing newline).
  std::string ToJsonLine(const BenchRecord& record) const;

 private:
  std::string bench_;
  std::string path_;
  mutable bool warned_unwritable_ = false;
};

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_BENCH_REPORT_H_
