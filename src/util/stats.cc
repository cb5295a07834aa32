#include "util/stats.h"

#include <algorithm>

#include "util/check.h"

namespace oodb {

void StreamingStats::Add(double x) {
  ++count_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double StreamingStats::Mean() const { return count_ == 0 ? 0.0 : mean_; }

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
