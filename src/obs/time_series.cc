#include "obs/time_series.h"

#include <cmath>

#include "util/json_writer.h"

namespace oodb::obs {

std::string TimeSeriesSample::ToJson() const {
  JsonObjectWriter counters;
  for (const auto& [name, delta] : counter_deltas) counters.Add(name, delta);
  JsonObjectWriter gauges_json;
  for (const auto& [name, value] : gauges) gauges_json.Add(name, value);
  JsonObjectWriter out;
  out.Add("sim_time_s", sim_time_s)
      .Add("epoch", static_cast<uint64_t>(epoch))
      .Add("epoch_boundary", epoch_boundary)
      .AddRaw("counter_deltas", counters.str())
      .AddRaw("gauges", gauges_json.str());
  if (placement.has_value()) {
    out.AddRaw("placement", placement->ToJson());
  }
  return out.str();
}

std::string TimeSeries::ToJson() const {
  JsonArrayWriter out;
  for (const TimeSeriesSample& s : samples) out.AddRaw(s.ToJson());
  return out.str();
}

TimeSeriesSampler::TimeSeriesSampler(const MetricsRegistry* registry,
                                     double interval_s)
    : registry_(registry), interval_s_(interval_s) {}

void TimeSeriesSampler::StartMeasurement(double now) {
  started_ = true;
  start_time_ = now;
  next_sample_time_ = interval_s_ > 0 ? now + interval_s_ : 0;
  if (pre_sample_hook_) pre_sample_hook_();
  baseline_ = registry_ != nullptr ? registry_->Snapshot() : MetricsSnapshot{};
  series_.samples.clear();
}

void TimeSeriesSampler::Poll(double now, uint32_t epoch) {
  if (!started_ || interval_s_ <= 0 || now < next_sample_time_) return;
  TakeSample(now, epoch, /*epoch_boundary=*/false);
  // Skip to the first boundary strictly after `now`: long idle stretches
  // yield one catch-up sample, not a burst of empty ones.
  const double intervals_done =
      std::floor((now - start_time_) / interval_s_) + 1.0;
  next_sample_time_ = start_time_ + intervals_done * interval_s_;
}

void TimeSeriesSampler::SampleEpochBoundary(double now, uint32_t epoch) {
  if (!started_) return;
  TakeSample(now, epoch, /*epoch_boundary=*/true);
}

void TimeSeriesSampler::SampleFinal(double now, uint32_t last_epoch) {
  if (!started_) return;
  TakeSample(now, last_epoch, /*epoch_boundary=*/true);
}

void TimeSeriesSampler::TakeSample(double now, uint32_t epoch,
                                   bool epoch_boundary) {
  if (pre_sample_hook_) pre_sample_hook_();
  TimeSeriesSample sample;
  sample.sim_time_s = now;
  sample.epoch = epoch;
  sample.epoch_boundary = epoch_boundary;
  if (registry_ != nullptr) {
    MetricsSnapshot current = registry_->Snapshot();
    sample.counter_deltas.reserve(current.counters.size());
    for (const auto& [name, value] : current.counters) {
      const std::optional<uint64_t> before = baseline_.counter(name);
      // Mirrored counters are set-synced (monotone), so value >= before;
      // a counter registered after the baseline deltas from zero.
      const uint64_t prev = before.value_or(0);
      sample.counter_deltas.emplace_back(name,
                                         value >= prev ? value - prev : 0);
    }
    sample.gauges = current.gauges;
    baseline_ = std::move(current);
  }
  if (auditor_ != nullptr) {
    sample.placement = auditor_->Sample();
  }
  series_.samples.push_back(std::move(sample));
}

}  // namespace oodb::obs
