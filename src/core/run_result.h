#ifndef SEMCLUST_CORE_RUN_RESULT_H_
#define SEMCLUST_CORE_RUN_RESULT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/span_profiler.h"
#include "obs/time_series.h"
#include "util/stats.h"
#include "workload/query.h"

/// \file
/// The statistics one simulation run reports — assembled by the
/// MeasurementController and returned through the EngineeringDbModel
/// facade. Split out of engineering_db.h so downstream consumers
/// (bench reporting, the experiment runner) can depend on the result
/// shape without pulling in the whole model wiring.

namespace oodb::core {

/// Everything one run reports.
struct RunResult {
  /// Per-transaction response time over the measured phase (seconds).
  StreamingStats response_time;
  StreamingStats read_response;
  StreamingStats write_response;

  uint64_t transactions = 0;
  uint64_t logical_reads = 0;
  uint64_t logical_writes = 0;

  /// Response time broken down by the seven query types (paper §4.1),
  /// indexed by workload::QueryType.
  std::array<StreamingStats, workload::kNumQueryTypes> response_by_query;
  /// Response time per measurement epoch (config.measurement_epochs).
  std::vector<StreamingStats> response_epochs;

  double achieved_rw_ratio = 0;

  size_t db_pages = 0;
  size_t db_objects = 0;

  /// Deadlock-timeout aborts of the measured phase (0 when cc is off): the
  /// `cc.txn_aborts` counter of `metrics`, kept as a field only because
  /// perfbench/driver.cc reads it and perfbench/ changes only together
  /// with the benchmark it defines.
  uint64_t cc_txn_aborts = 0;

  /// The cell's full metrics-registry state at the end of the measured
  /// phase: the one place every reported counter lives (physical I/O by
  /// purpose, buffer, log, clustering, utilisation, prefetch, shard and cc
  /// counters). Read them by name, e.g. `metrics.counter("io.data-read")`.
  obs::MetricsSnapshot metrics;

  /// Simulated-time telemetry over the measured phase: metric deltas and
  /// placement-quality audits per sample (DESIGN.md §9). Always has at
  /// least the final epoch-boundary sample.
  obs::TimeSeries series;

  /// Exact per-kind response-time phase breakdown over the measured phase
  /// (DESIGN.md §14). Empty unless `config.profile_spans`.
  std::vector<obs::SpanKindBreakdown> span_breakdown;

  /// Sum of the six `io.<category>` counters of `metrics`.
  uint64_t total_physical_ios() const;
};

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_RUN_RESULT_H_
