#include "analysis/factorial.h"

#include <algorithm>
#include <cmath>

#include "exec/experiment_runner.h"
#include "util/check.h"

namespace oodb::analysis {

std::vector<Factor> StandardFactors() {
  using core::ModelConfig;
  return {
      {"F:density",
       [](ModelConfig& c, bool high) {
         c.workload.density = high ? workload::StructureDensity::kHigh10
                                   : workload::StructureDensity::kLow3;
         c.database.density = c.workload.density;
       }},
      {"G:rw-ratio",
       [](ModelConfig& c, bool high) {
         c.workload.read_write_ratio = high ? 100 : 5;
       }},
      {"H:clustering",
       [](ModelConfig& c, bool high) {
         c.clustering.pool = high ? cluster::CandidatePool::kWithinDb
                                  : cluster::CandidatePool::kNoClustering;
       }},
      {"I:splitting",
       [](ModelConfig& c, bool high) {
         c.clustering.split = high ? cluster::SplitPolicy::kLinearGreedy
                                   : cluster::SplitPolicy::kNoSplit;
       }},
      {"J:hints",
       [](ModelConfig& c, bool high) { c.clustering.use_hints = high; }},
      {"K:replacement",
       [](ModelConfig& c, bool high) {
         c.replacement = high ? buffer::ReplacementPolicy::kContextSensitive
                              : buffer::ReplacementPolicy::kLru;
       }},
      {"L:buffers",
       [](ModelConfig& c, bool high) {
         c.buffer_pages = high ? c.BufferLarge() : c.BufferSmall();
       }},
      {"M:prefetch",
       [](ModelConfig& c, bool high) {
         c.prefetch = high ? buffer::PrefetchPolicy::kWithinDb
                           : buffer::PrefetchPolicy::kNone;
       }},
  };
}

const char* InteractionClassName(InteractionClass c) {
  switch (c) {
    case InteractionClass::kNone:
      return "none";
    case InteractionClass::kMinor:
      return "minor";
    case InteractionClass::kMajor:
      return "major";
  }
  return "unknown";
}

InteractionClass ClassifyInteraction(const InteractionCell& cell,
                                     double parallel_tolerance) {
  // Two lines over A's level (x in {low, high}): B-low line from low_low
  // to high_low, and B-high line from low_high to high_high.
  const double slope0 = cell.high_low - cell.low_low;
  const double slope1 = cell.high_high - cell.low_high;
  const double scale =
      std::max({std::abs(cell.low_low), std::abs(cell.low_high),
                std::abs(cell.high_low), std::abs(cell.high_high), 1e-12});
  if (std::abs(slope0 - slope1) <= parallel_tolerance * scale) {
    return InteractionClass::kNone;
  }
  // Crossing inside the level range [0, 1]?
  const double gap_at_low = cell.low_high - cell.low_low;
  const double gap_at_high = cell.high_high - cell.high_low;
  if (gap_at_low == 0 || gap_at_high == 0 ||
      (gap_at_low > 0) != (gap_at_high > 0)) {
    return InteractionClass::kMajor;
  }
  return InteractionClass::kMinor;
}

FactorialDesign::FactorialDesign(core::ModelConfig base,
                                 std::vector<Factor> factors, Runner runner)
    : base_(std::move(base)),
      factors_(std::move(factors)),
      runner_(std::move(runner)),
      custom_runner_(runner_ != nullptr) {
  OODB_CHECK(!factors_.empty());
  OODB_CHECK_LE(factors_.size(), 16u);
  if (!runner_) {
    runner_ = [](const core::ModelConfig& cfg) {
      return core::RunCell(cfg).response_time.Mean();
    };
  }
}

void FactorialDesign::set_cell_observer(CellObserver observer) {
  observer_ = std::move(observer);
}

void FactorialDesign::Run() {
  const uint32_t cells = 1u << factors_.size();
  responses_.resize(cells);
  std::vector<core::ModelConfig> cfgs;
  cfgs.reserve(cells);
  for (uint32_t mask = 0; mask < cells; ++mask) {
    core::ModelConfig cfg = base_;
    for (size_t f = 0; f < factors_.size(); ++f) {
      factors_[f].apply(cfg, (mask >> f) & 1u);
    }
    cfgs.push_back(std::move(cfg));
  }
  if (custom_runner_) {
    // Injected runners (tests) keep the legacy serial loop and see the
    // configured seed untouched.
    for (uint32_t mask = 0; mask < cells; ++mask) {
      responses_[mask] = runner_(cfgs[mask]);
    }
  } else {
    exec::ExperimentRunner runner;
    const auto outcomes = runner.Run(cfgs);
    for (uint32_t mask = 0; mask < cells; ++mask) {
      responses_[mask] = outcomes[mask].result.response_time.Mean();
    }
    if (observer_) {
      for (uint32_t mask = 0; mask < cells; ++mask) {
        observer_(mask, cfgs[mask], outcomes[mask].result,
                  outcomes[mask].wall_s);
      }
    }
  }
  ran_ = true;
}

double FactorialDesign::Contrast(uint32_t subset) const {
  OODB_CHECK(ran_);
  // effect(S) = 2/2^k * sum_x r(x) * prod_{i in S} (x_i ? +1 : -1).
  // The product's sign is +1 iff the number of low-level factors in S is
  // even, i.e. popcount(S) - popcount(mask & S) is even.
  const int subset_bits = __builtin_popcount(subset);
  double sum = 0;
  for (uint32_t mask = 0; mask < responses_.size(); ++mask) {
    const int low_bits = subset_bits - __builtin_popcount(mask & subset);
    sum += (low_bits & 1) ? -responses_[mask] : responses_[mask];
  }
  return 2.0 * sum / static_cast<double>(responses_.size());
}

std::string FactorialDesign::SubsetName(uint32_t subset) const {
  std::string name;
  for (size_t f = 0; f < factors_.size(); ++f) {
    if ((subset >> f) & 1u) {
      if (!name.empty()) name += " x ";
      name += factors_[f].name;
    }
  }
  return name;
}

std::vector<EffectResult> FactorialDesign::MainEffects() const {
  std::vector<EffectResult> effects;
  for (size_t f = 0; f < factors_.size(); ++f) {
    effects.push_back(
        EffectResult{factors_[f].name, Contrast(1u << f), 1});
  }
  return effects;
}

std::vector<EffectResult> FactorialDesign::AllEffects() const {
  std::vector<EffectResult> effects;
  const uint32_t cells = 1u << factors_.size();
  for (uint32_t subset = 1; subset < cells; ++subset) {
    effects.push_back(EffectResult{SubsetName(subset), Contrast(subset),
                                   __builtin_popcount(subset)});
  }
  std::sort(effects.begin(), effects.end(),
            [](const EffectResult& x, const EffectResult& y) {
              return std::abs(x.effect) > std::abs(y.effect);
            });
  return effects;
}

InteractionCell FactorialDesign::Interaction(size_t a, size_t b) const {
  OODB_CHECK(ran_);
  OODB_CHECK_NE(a, b);
  InteractionCell cell;
  int counts[2][2] = {{0, 0}, {0, 0}};
  double sums[2][2] = {{0, 0}, {0, 0}};
  for (uint32_t mask = 0; mask < responses_.size(); ++mask) {
    const int la = (mask >> a) & 1u;
    const int lb = (mask >> b) & 1u;
    sums[la][lb] += responses_[mask];
    ++counts[la][lb];
  }
  cell.low_low = sums[0][0] / counts[0][0];
  cell.low_high = sums[0][1] / counts[0][1];
  cell.high_low = sums[1][0] / counts[1][0];
  cell.high_high = sums[1][1] / counts[1][1];
  return cell;
}

}  // namespace oodb::analysis
