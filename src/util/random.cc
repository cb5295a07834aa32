#include "util/random.h"

#include <cmath>

namespace oodb {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// The splitmix64 step, shared by the SplitMix64 stream class and the
// xoshiro state seeding.
inline uint64_t SplitMix64Step(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Lemire's unbiased bounded sampling over any uniform-u64 source.
template <typename NextU64Fn>
uint64_t LemireBelow(NextU64Fn&& next, uint64_t n) {
  OODB_CHECK_GT(n, 0u);
  uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

}  // namespace

ZipfTransform::ZipfTransform(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  OODB_CHECK_GT(n, 0u);
  OODB_CHECK_GE(theta, 0.0);
  OODB_CHECK_LT(theta, 1.0);
  if (theta == 0.0) return;
  alpha_ = 1.0 / (1.0 - theta);
  zetan_ = (std::pow(static_cast<double>(n), 1.0 - theta) - 1.0) /
               (1.0 - theta) +
           0.5;  // approximate zeta(n, theta)
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - (std::pow(2.0, 1.0 - theta) - 1.0) / (1.0 - theta) / zetan_);
  one_bound_ = 1.0 + std::pow(0.5, theta);
}

uint64_t ZipfTransform::operator()(double u) const {
  OODB_CHECK_GT(theta_, 0.0);
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < one_bound_) return 1;
  uint64_t v = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (v >= n_) v = n_ - 1;
  return v;
}

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64Step(x);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBelow(uint64_t n) {
  return LemireBelow([this] { return NextU64(); }, n);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  OODB_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  NextBelow(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double mean) {
  OODB_CHECK_GT(mean, 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

uint64_t Rng::Zipf(uint64_t n, double theta) {
  return ZipfTransform(n, theta).Sample(*this);
}

uint64_t SplitMix64::Next() { return SplitMix64Step(state_); }

double SplitMix64::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SplitMix64::NextBelow(uint64_t n) {
  return LemireBelow([this] { return Next(); }, n);
}

uint64_t BelowFromDraw(uint64_t draw, uint64_t n) {
  bool first = true;
  SplitMix64 rest(draw);
  return LemireBelow(
      [&] {
        if (!first) return rest.Next();
        first = false;
        return draw;
      },
      n);
}

double SplitMix64::Gaussian(double mean, double stddev) {
  OODB_CHECK_GE(stddev, 0.0);
  if (has_spare_) {
    has_spare_ = false;
    return mean + stddev * spare_;
  }
  // Marsaglia's polar method: only sqrt and log, whose results are stable
  // across libms in practice (unlike std::normal_distribution, whose draw
  // *algorithm* differs between standard libraries).
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double scale = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * scale;
  has_spare_ = true;
  return mean + stddev * u * scale;
}

DiscreteDistribution::DiscreteDistribution(
    const std::vector<double>& weights) {
  OODB_CHECK(!weights.empty());
  const size_t n = weights.size();
  double sum = 0;
  for (double w : weights) {
    OODB_CHECK_GE(w, 0.0);
    sum += w;
  }
  OODB_CHECK_GT(sum, 0.0);

  norm_.resize(n);
  prob_.resize(n);
  alias_.resize(n);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    norm_[i] = weights[i] / sum;
    scaled[i] = norm_[i] * static_cast<double>(n);
  }

  std::vector<size_t> small, large;
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    size_t s = small.back();
    small.pop_back();
    size_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (size_t i : large) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
  for (size_t i : small) {  // numerical leftovers
    prob_[i] = 1.0;
    alias_[i] = i;
  }
}

size_t DiscreteDistribution::Sample(Rng& rng) const {
  const size_t i = rng.NextBelow(prob_.size());
  return rng.NextDouble() < prob_[i] ? i : alias_[i];
}

}  // namespace oodb
