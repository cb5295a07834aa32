#ifndef SEMCLUST_UTIL_STATS_H_
#define SEMCLUST_UTIL_STATS_H_

#include <cstdint>
#include <limits>

/// \file
/// Streaming summary statistics used by the simulation engine's resource
/// monitors and the experiment harness.

namespace oodb {

/// Welford-style streaming mean/min/max accumulator.
class StreamingStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations.
  uint64_t count() const { return count_; }
  /// Sum of observations.
  double sum() const { return sum_; }
  /// Mean, or 0 when empty.
  double Mean() const;
  /// Minimum observation; +inf when empty.
  double min() const { return min_; }
  /// Maximum observation; -inf when empty.
  double max() const { return max_; }

 private:
  uint64_t count_ = 0;
  double sum_ = 0;
  double mean_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted average of a piecewise-constant quantity (queue length,
/// utilisation). Integrates value(t) dt between updates.
class TimeWeightedStats {
 public:
  /// Records that the tracked quantity had value `value` from the previous
  /// update time until `now` (simulation seconds, non-decreasing).
  void Update(double now, double value);

  /// Time-weighted mean over [first update, last update].
  double Mean() const;

  double elapsed() const { return last_time_ - first_time_; }

 private:
  bool started_ = false;
  double first_time_ = 0;
  double last_time_ = 0;
  double weighted_sum_ = 0;
};

}  // namespace oodb

#endif  // SEMCLUST_UTIL_STATS_H_
