#ifndef SEMCLUST_OBS_TIME_SERIES_H_
#define SEMCLUST_OBS_TIME_SERIES_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/placement_auditor.h"

/// \file
/// Simulated-time telemetry (DESIGN.md §9). A TimeSeriesSampler snapshots
/// a MetricsRegistry at configurable simulated-time intervals and at
/// measurement-epoch boundaries, recording per-sample *deltas* (work done
/// since the previous sample), never cumulatives — so convergence under
/// dynamic reclustering is directly plottable instead of being washed out
/// by end-of-run aggregates. Each sample optionally carries a
/// PlacementSample taken on the same schedule.
///
/// Determinism: samples are triggered by the owning simulation's virtual
/// clock crossing precomputed boundaries, never by host time, and every
/// recorded quantity derives from per-cell state alone. The series is
/// therefore bit-identical at any SEMCLUST_BENCH_JOBS count, extending
/// the runner's determinism contract to telemetry.

namespace oodb::obs {

/// One telemetry sample: counter deltas since the previous sample (or
/// since StartMeasurement for the first), gauge values as-of the sample,
/// and an optional placement audit.
struct TimeSeriesSample {
  double sim_time_s = 0;
  /// Measurement epoch the sampled window belongs to.
  uint32_t epoch = 0;
  /// True when the sample was taken at an epoch boundary (including the
  /// final end-of-run sample) rather than an interval crossing.
  bool epoch_boundary = false;
  /// (name, delta) in registration order, zero deltas included so every
  /// sample of a series carries the same key set.
  std::vector<std::pair<std::string, uint64_t>> counter_deltas;
  /// (name, value) as of the sample (gauges are levels, not flows).
  std::vector<std::pair<std::string, double>> gauges;
  /// Placement audit on the same schedule; empty when auditing is off.
  std::optional<PlacementSample> placement;

  std::string ToJson() const;
};

/// A whole cell's telemetry: plain data, safe to copy into
/// core::RunResult and across threads.
struct TimeSeries {
  std::vector<TimeSeriesSample> samples;

  bool empty() const { return samples.empty(); }

  /// Deterministic JSON array of sample objects.
  std::string ToJson() const;
};

/// Drives sampling for one simulation cell. The owner calls
/// StartMeasurement at the warmup/measured boundary, Poll after every
/// unit of work, SampleEpochBoundary when an epoch ends mid-run, and
/// SampleFinal once at end of run.
class TimeSeriesSampler {
 public:
  /// `interval_s` <= 0 disables interval sampling (epoch-boundary and
  /// final samples still fire). `registry` may be disabled; samples then
  /// carry no metric deltas but still carry placement audits.
  TimeSeriesSampler(const MetricsRegistry* registry, double interval_s);

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Audits placement at every sample when set (owner keeps `auditor`
  /// alive).
  void set_placement_auditor(const PlacementAuditor* auditor) {
    auditor_ = auditor;
  }

  /// Invoked immediately before every registry snapshot; the model uses
  /// this to re-sync mirrored component counters (set-semantics) so
  /// mid-run deltas cover buffer/io/log/cluster activity too.
  void set_pre_sample_hook(std::function<void()> hook) {
    pre_sample_hook_ = std::move(hook);
  }

  /// Re-baselines deltas and anchors the interval schedule at `now`
  /// (call after the warmup counter reset).
  void StartMeasurement(double now);

  /// Takes one interval sample when `now` has crossed the next interval
  /// boundary (at most one sample per call; the schedule then skips to
  /// the first boundary after `now`). No-op before StartMeasurement or
  /// when interval sampling is disabled.
  void Poll(double now, uint32_t epoch);

  /// Samples the end of `epoch` (the epoch just finished).
  void SampleEpochBoundary(double now, uint32_t epoch);

  /// The mandatory end-of-run sample, closing `last_epoch`. Idempotent
  /// per run: callers guard against double-sampling themselves.
  void SampleFinal(double now, uint32_t last_epoch);

  double interval_s() const { return interval_s_; }
  const TimeSeries& series() const { return series_; }

 private:
  void TakeSample(double now, uint32_t epoch, bool epoch_boundary);

  const MetricsRegistry* registry_;
  const PlacementAuditor* auditor_ = nullptr;
  std::function<void()> pre_sample_hook_;
  double interval_s_;
  bool started_ = false;
  double start_time_ = 0;
  double next_sample_time_ = 0;
  MetricsSnapshot baseline_;
  TimeSeries series_;
};

}  // namespace oodb::obs

#endif  // SEMCLUST_OBS_TIME_SERIES_H_
