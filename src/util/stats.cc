#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace oodb {

void StreamingStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::Mean() const { return count_ == 0 ? 0.0 : mean_; }

double StreamingStats::Variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}


Histogram::Histogram(double lo, double hi, size_t buckets) : lo_(lo) {
  OODB_CHECK_LT(lo, hi);
  OODB_CHECK_GE(buckets, 1u);
  width_ = (hi - lo) / static_cast<double>(buckets);
  counts_.assign(buckets, 0);
}

void Histogram::Add(double x) {
  ++count_;
  sum_ += x;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  const auto idx = static_cast<size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) {
    ++overflow_;
    return;
  }
  ++counts_[idx];
}

double Histogram::Quantile(double q) const {
  OODB_CHECK_GE(q, 0.0);
  OODB_CHECK_LE(q, 1.0);
  if (count_ == 0) return lo_;
  const double target = q * static_cast<double>(count_);
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return lo_;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return bucket_lo(i) + frac * width_;
    }
    cum = next;
  }
  return lo_ + width_ * static_cast<double>(counts_.size());
}

double Histogram::BucketFraction(size_t i) const {
  OODB_CHECK_LT(i, counts_.size());
  if (count_ == 0) return 0.0;
  return static_cast<double>(counts_[i]) / static_cast<double>(count_);
}

void TimeWeightedStats::Update(double now, double value) {
  if (!started_) {
    started_ = true;
    first_time_ = now;
    last_time_ = now;
    return;
  }
  OODB_CHECK_GE(now, last_time_);
  weighted_sum_ += value * (now - last_time_);
  last_time_ = now;
}

double TimeWeightedStats::Mean() const {
  const double dt = last_time_ - first_time_;
  return dt <= 0.0 ? 0.0 : weighted_sum_ / dt;
}

}  // namespace oodb
