#include "obs/metrics.h"

#include <algorithm>

#include "util/check.h"
#include "util/json_writer.h"

namespace oodb::obs {

namespace {

/// Index of `name` in a (name, ...) pair vector, or npos.
template <typename Pairs>
size_t FindName(const Pairs& pairs, std::string_view name) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].first == name) return i;
  }
  return static_cast<size_t>(-1);
}

}  // namespace

std::optional<uint64_t> MetricsSnapshot::counter(
    std::string_view name) const {
  const size_t i = FindName(counters, name);
  if (i == static_cast<size_t>(-1)) return std::nullopt;
  return counters[i].second;
}

std::optional<double> MetricsSnapshot::gauge(std::string_view name) const {
  const size_t i = FindName(gauges, name);
  if (i == static_cast<size_t>(-1)) return std::nullopt;
  return gauges[i].second;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  const size_t i = FindName(histograms, name);
  if (i == static_cast<size_t>(-1)) return nullptr;
  return &histograms[i].second;
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    const size_t i = FindName(counters, name);
    if (i == static_cast<size_t>(-1)) {
      counters.emplace_back(name, value);
    } else {
      counters[i].second += value;
    }
  }
  for (const auto& [name, value] : other.gauges) {
    const size_t i = FindName(gauges, name);
    if (i == static_cast<size_t>(-1)) {
      gauges.emplace_back(name, value);
    } else {
      gauges[i].second += value;
    }
  }
  for (const auto& [name, hist] : other.histograms) {
    const size_t i = FindName(histograms, name);
    if (i == static_cast<size_t>(-1)) {
      histograms.emplace_back(name, hist);
      continue;
    }
    HistogramSnapshot& mine = histograms[i].second;
    OODB_CHECK(mine.bounds == hist.bounds);  // same registration everywhere
    for (size_t b = 0; b < mine.buckets.size(); ++b) {
      mine.buckets[b] += hist.buckets[b];
    }
    mine.count += hist.count;
    mine.sum += hist.sum;
  }
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0 || bounds.empty()) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Smallest rank whose cumulative count covers q of the mass.
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t before = cumulative;
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < target || buckets[i] == 0) {
      continue;
    }
    if (i >= bounds.size()) return bounds.back();  // overflow: clamp
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    const double within =
        (target - static_cast<double>(before)) /
        static_cast<double>(buckets[i]);
    return lo + (hi - lo) * (within < 0 ? 0.0 : within);
  }
  return bounds.back();
}

std::optional<double> MetricsSnapshot::Ratio(std::optional<uint64_t> num,
                                             std::optional<uint64_t> den) {
  if (!num.has_value() || !den.has_value() || *den == 0) return std::nullopt;
  return static_cast<double>(*num) / static_cast<double>(*den);
}

std::string MetricsSnapshot::ToJson() const {
  JsonObjectWriter counters_json;
  for (const auto& [name, value] : counters) counters_json.Add(name, value);
  JsonObjectWriter gauges_json;
  for (const auto& [name, value] : gauges) gauges_json.Add(name, value);
  JsonObjectWriter histograms_json;
  for (const auto& [name, hist] : histograms) {
    JsonArrayWriter bounds;
    for (double b : hist.bounds) bounds.Add(b);
    JsonArrayWriter buckets;
    for (uint64_t b : hist.buckets) buckets.Add(b);
    JsonObjectWriter h;
    h.AddRaw("bounds", bounds.str())
        .AddRaw("buckets", buckets.str())
        .Add("count", hist.count)
        .Add("sum", hist.sum);
    histograms_json.AddRaw(name, h.str());
  }
  JsonObjectWriter out;
  out.AddRaw("counters", counters_json.str())
      .AddRaw("gauges", gauges_json.str())
      .AddRaw("histograms", histograms_json.str());
  return out.str();
}

CounterHandle MetricsRegistry::Counter(std::string_view name) {
  for (size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) {
      return CounterHandle{static_cast<uint32_t>(i)};
    }
  }
  counter_names_.emplace_back(name);
  counter_slots_.push_back(0);
  return CounterHandle{static_cast<uint32_t>(counter_names_.size() - 1)};
}

GaugeHandle MetricsRegistry::Gauge(std::string_view name) {
  for (size_t i = 0; i < gauge_names_.size(); ++i) {
    if (gauge_names_[i] == name) return GaugeHandle{static_cast<uint32_t>(i)};
  }
  gauge_names_.emplace_back(name);
  gauge_slots_.push_back(0);
  return GaugeHandle{static_cast<uint32_t>(gauge_names_.size() - 1)};
}

HistogramHandle MetricsRegistry::Histogram(std::string_view name,
                                           std::vector<double> bounds) {
  OODB_CHECK(std::is_sorted(bounds.begin(), bounds.end()));
  for (size_t i = 0; i < histograms_.size(); ++i) {
    if (histograms_[i].name == name) {
      OODB_CHECK(histograms_[i].bounds == bounds);
      return HistogramHandle{static_cast<uint32_t>(i)};
    }
  }
  HistogramState h;
  h.name = std::string(name);
  h.buckets.assign(bounds.size() + 1, 0);
  h.bounds = std::move(bounds);
  histograms_.push_back(std::move(h));
  return HistogramHandle{static_cast<uint32_t>(histograms_.size() - 1)};
}

void MetricsRegistry::Observe(HistogramHandle h, double value) {
  if (!h.valid()) return;
  HistogramState& hist = histograms_[h.slot];
  // First bound >= value; everything above the last bound overflows.
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(hist.bounds.begin(), hist.bounds.end(), value) -
      hist.bounds.begin());
  ++hist.buckets[bucket];
  ++hist.count;
  hist.sum += value;
}

void MetricsRegistry::ResetValues() {
  std::fill(counter_slots_.begin(), counter_slots_.end(), 0);
  std::fill(gauge_slots_.begin(), gauge_slots_.end(), 0.0);
  for (HistogramState& h : histograms_) {
    std::fill(h.buckets.begin(), h.buckets.end(), 0);
    h.count = 0;
    h.sum = 0;
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters.emplace_back(counter_names_[i], counter_slots_[i]);
  }
  snap.gauges.reserve(gauge_names_.size());
  for (size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges.emplace_back(gauge_names_[i], gauge_slots_[i]);
  }
  snap.histograms.reserve(histograms_.size());
  for (const HistogramState& h : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h.bounds;
    hs.buckets = h.buckets;
    hs.count = h.count;
    hs.sum = h.sum;
    snap.histograms.emplace_back(h.name, std::move(hs));
  }
  return snap;
}

}  // namespace oodb::obs
