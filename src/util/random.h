#ifndef SEMCLUST_UTIL_RANDOM_H_
#define SEMCLUST_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

/// \file
/// Deterministic pseudo-random number generation and the distributions used
/// by the workload generator and the simulation model. A seeded xoshiro256**
/// generator keeps every simulation run reproducible bit-for-bit.

namespace oodb {

/// xoshiro256** PRNG (Blackman & Vigna). Fast, high quality, and — unlike
/// std::mt19937 + std::*_distribution — produces identical streams on every
/// platform and standard library, which matters for reproducible experiments.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with the same seed produce the
  /// same stream.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  /// Zipf-distributed integer in [0, n) with skew theta in [0, 1).
  /// theta = 0 is uniform; larger theta is more skewed. Uses the standard
  /// rejection-free inverse-CDF approximation of Gray et al. A caller that
  /// draws many values for one (n, theta) holds a ZipfTransform instead.
  uint64_t Zipf(uint64_t n, double theta);

 private:
  uint64_t s_[4];
};

/// A single-word splitmix64 stream (Steele, Lea & Vigna). One 64-bit state
/// word, sequential output, and — like Rng — bit-identical on every
/// platform and standard library. Used where a *derivable* stream matters
/// more than period length: per-purpose generation streams (the OCB
/// database generator gives class assignment, sizes, and references each
/// their own forked stream, so adding a draw to one stage can never shift
/// another stage's sequence), and the distribution draws below, which are
/// implemented directly on the raw stream instead of std::*_distribution
/// (whose draw algorithms differ between standard libraries).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Next 64-bit value of the stream.
  uint64_t Next();

  /// Uniform double in [0, 1) (53 bits).
  double NextDouble();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n);

  /// Normally distributed value (Marsaglia's polar method; the second
  /// value of each pair is cached). Requires stddev >= 0.
  double Gaussian(double mean, double stddev);

  /// Derives an independent stream: the fork is seeded from the parent's
  /// next output, so `Fork(); Fork()` yields two unrelated sequences and
  /// the parent advances deterministically.
  SplitMix64 Fork() { return SplitMix64(Next()); }

 private:
  uint64_t state_;
  double spare_ = 0;
  bool has_spare_ = false;
};

/// Uniform integer in [0, n) from one recorded raw draw, as Rng::NextBelow
/// would return it had `draw` been its next NextU64: Lemire's multiply.
/// Inside the multiply's rejection zone, which a uniform draw hits with
/// probability below n / 2^64, the draw is finished from a SplitMix64
/// seeded with `draw`, so the result stays a deterministic function of
/// (draw, n). Lets a generator record a bounded draw before the bound is
/// known. Requires n > 0.
uint64_t BelowFromDraw(uint64_t draw, uint64_t n);

/// Gray et al.'s inverse-CDF Zipf mapping ("Quickly generating
/// billion-record synthetic databases") for one fixed (n, theta). The
/// constants that depend only on (n, theta) -- alpha, the approximate
/// zeta(n, theta), eta and the bound of index 1 -- are computed once here,
/// so one draw costs two compares and one pow. Rng::Zipf builds one per
/// call; a generator that draws many values for the same (n, theta) keeps
/// its own and gets the identical values.
class ZipfTransform {
 public:
  /// Requires n > 0 and theta in [0, 1).
  ZipfTransform(uint64_t n, double theta);

  /// Index in [0, n) for one uniform draw u in [0, 1). Requires theta > 0:
  /// theta = 0 is uniform and draws NextBelow(n) instead (see Sample).
  uint64_t operator()(double u) const;

  /// One draw from `rng` (an Rng or a SplitMix64): NextBelow(n) when
  /// theta = 0, else the mapping of one NextDouble.
  template <typename Generator>
  uint64_t Sample(Generator& rng) const {
    if (theta_ == 0.0) return rng.NextBelow(n_);
    return (*this)(rng.NextDouble());
  }

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  // Unused (zero) when theta = 0.
  double alpha_ = 0;
  double zetan_ = 0;
  double eta_ = 0;
  double one_bound_ = 0;  // u * zetan below this (and >= 1) maps to 1
};

/// Samples indices 0..n-1 with the given non-negative weights, in O(1) per
/// sample after O(n) setup (Walker's alias method). Used for choosing query
/// types, tool mixes, and relationship kinds by frequency.
class DiscreteDistribution {
 public:
  /// Builds the alias table. `weights` must be non-empty with a positive sum.
  explicit DiscreteDistribution(const std::vector<double>& weights);

  /// Returns an index in [0, size()) with probability proportional to its
  /// weight.
  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

  /// Probability of index i (normalised weight).
  double probability(size_t i) const { return norm_[i]; }

 private:
  std::vector<double> prob_;   // alias-table acceptance probabilities
  std::vector<size_t> alias_;  // alias targets
  std::vector<double> norm_;   // normalised weights, for inspection
};

}  // namespace oodb

#endif  // SEMCLUST_UTIL_RANDOM_H_
