#ifndef SEMCLUST_OBS_METRICS_H_
#define SEMCLUST_OBS_METRICS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file
/// The metrics half of the observability subsystem (DESIGN.md §8): a
/// registry of named counters, gauges, and fixed-bucket histograms cheap
/// enough to stay enabled in benches. Names are resolved to integer
/// handles once, at registration; every hot-path mutation is a plain
/// uint64/double slot operation with no locks and no hashing. Each
/// simulation cell (single-threaded by construction) owns its own
/// registry; `exec::ExperimentRunner` merges the per-cell snapshots in
/// submission order, so the merged view is bit-identical at any job count.
/// The registry is always on: it is the one place a reported counter
/// lives (core::RunResult carries only what it does not hold).

namespace oodb::obs {

/// Opaque handle to a registered counter (monotone uint64).
struct CounterHandle {
  uint32_t slot = UINT32_MAX;
  bool valid() const { return slot != UINT32_MAX; }
};

/// Opaque handle to a registered gauge (last-set double).
struct GaugeHandle {
  uint32_t slot = UINT32_MAX;
  bool valid() const { return slot != UINT32_MAX; }
};

/// Opaque handle to a registered histogram.
struct HistogramHandle {
  uint32_t slot = UINT32_MAX;
  bool valid() const { return slot != UINT32_MAX; }
};

/// Point-in-time state of one histogram. `buckets[i]` counts observations
/// <= `bounds[i]`; the final bucket (buckets.size() == bounds.size() + 1)
/// is the overflow bucket.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0;

  std::optional<double> Mean() const {
    if (count == 0) return std::nullopt;
    return sum / static_cast<double>(count);
  }

  /// Quantile estimate for `q` in [0, 1] by linear interpolation inside
  /// the covering bucket. Assumes non-negative observations (bucket 0
  /// spans [0, bounds[0]]); mass in the overflow bucket is clamped to the
  /// last finite bound. An empty histogram returns 0.0 (never an
  /// interpolation over garbage); consumers that must distinguish "no
  /// samples" from "all samples at 0" null-guard on `count == 0`.
  double Quantile(double q) const;
};

/// A registry's full state, detached from the registry: plain data, safe
/// to copy across threads and carry inside core::RunResult.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Counter value by name; nullopt when the name was never registered.
  std::optional<uint64_t> counter(std::string_view name) const;
  std::optional<double> gauge(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;

  /// Accumulates `other` into this snapshot: counters and gauges sum,
  /// histograms merge bucket-wise (bounds must agree). Metrics present
  /// only in `other` are appended in `other`'s order, so folding a batch
  /// in submission order is deterministic.
  void MergeFrom(const MetricsSnapshot& other);

  /// num/den as a ratio, or nullopt when the denominator is zero or either
  /// metric is missing — the "zero samples emit null" rule (never divides
  /// by zero).
  static std::optional<double> Ratio(std::optional<uint64_t> num,
                                     std::optional<uint64_t> den);

  /// Deterministic JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{"h":{"bounds":[...],
  /// "buckets":[...],"count":n,"sum":x}}} in registration order.
  std::string ToJson() const;
};

/// The per-worker metrics registry. Not thread-safe by design: one
/// registry per simulation cell, merged after the fact.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ---- registration (cold path; re-registering a name returns the
  //      existing handle) ----
  CounterHandle Counter(std::string_view name);
  GaugeHandle Gauge(std::string_view name);
  /// `bounds` must be strictly increasing; an overflow bucket is implied.
  HistogramHandle Histogram(std::string_view name,
                            std::vector<double> bounds);

  // ---- mutation (hot path: bounds-checked slot writes, no hashing;
  //      a default-constructed handle is invalid and no-ops) ----
  void Add(CounterHandle h, uint64_t delta = 1) {
    if (h.valid()) counter_slots_[h.slot] += delta;
  }
  /// Overwrites a counter with an absolute cumulative value. For metrics
  /// mirrored from component counters (buffer hits, physical I/Os, ...):
  /// re-syncing at every telemetry sample is then idempotent, so the
  /// registry can be snapshotted mid-run, not only at end of run.
  void SetCounter(CounterHandle h, uint64_t value) {
    if (h.valid()) counter_slots_[h.slot] = value;
  }
  void Set(GaugeHandle h, double value) {
    if (h.valid()) gauge_slots_[h.slot] = value;
  }
  void Observe(HistogramHandle h, double value);

  // ---- reads (tests and snapshotting) ----
  uint64_t value(CounterHandle h) const {
    return h.valid() ? counter_slots_[h.slot] : 0;
  }
  double value(GaugeHandle h) const {
    return h.valid() ? gauge_slots_[h.slot] : 0.0;
  }

  /// Zeroes every slot; registrations (names, handles, bounds) survive.
  /// Called between warmup and the measured phase.
  void ResetValues();

  MetricsSnapshot Snapshot() const;

 private:
  struct HistogramState {
    std::string name;
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;  // bounds.size() + 1
    uint64_t count = 0;
    double sum = 0;
  };

  std::vector<std::string> counter_names_;
  std::vector<uint64_t> counter_slots_;
  std::vector<std::string> gauge_names_;
  std::vector<double> gauge_slots_;
  std::vector<HistogramState> histograms_;
};

}  // namespace oodb::obs

#endif  // SEMCLUST_OBS_METRICS_H_
