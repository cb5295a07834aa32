#ifndef SEMCLUST_UTIL_STATS_H_
#define SEMCLUST_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

/// \file
/// Streaming summary statistics and histograms used by the simulation
/// engine's resource monitors and the experiment harness.

namespace oodb {

/// Welford-style streaming mean/variance/min/max accumulator.
class StreamingStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Merges another accumulator into this one.
  void Merge(const StreamingStats& other);

  /// Number of observations.
  uint64_t count() const { return count_; }
  /// Sum of observations.
  double sum() const { return sum_; }
  /// Mean, or 0 when empty.
  double Mean() const;
  /// Sample variance (n-1 denominator), or 0 when count < 2.
  double Variance() const;
  /// Minimum observation; +inf when empty.
  double min() const { return min_; }
  /// Maximum observation; -inf when empty.
  double max() const { return max_; }

 private:
  uint64_t count_ = 0;
  double sum_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket histogram over [lo, hi) with overflow/underflow buckets.
/// Supports quantile estimation by linear interpolation within a bucket.
class Histogram {
 public:
  /// Divides [lo, hi) into `buckets` equal-width bins. Requires lo < hi and
  /// buckets >= 1.
  Histogram(double lo, double hi, size_t buckets);

  void Add(double x);

  uint64_t count() const { return count_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }

  /// Quantile in [0, 1]; returns lo/hi bounds for out-of-range mass.
  double Quantile(double q) const;

  /// Fraction of observations falling in [bucket_lo, bucket_hi) for the
  /// i-th bucket.
  double BucketFraction(size_t i) const;

  size_t num_buckets() const { return counts_.size(); }
  double bucket_lo(size_t i) const { return lo_ + width_ * i; }
  double bucket_hi(size_t i) const { return lo_ + width_ * (i + 1); }

 private:
  double lo_;
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  uint64_t count_ = 0;
  double sum_ = 0;
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
