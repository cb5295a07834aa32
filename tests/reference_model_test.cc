// Differential tests against naive reference implementations: the
// production structures must agree with obviously-correct (but slow)
// models under randomized activity.

#include <algorithm>
#include <cmath>
#include <list>
#include <vector>

#include "gtest/gtest.h"

#include "buffer/buffer_pool.h"
#include "cluster/page_splitter.h"
#include "util/random.h"

namespace oodb {
namespace {

// ------------------------------------------------------------- LRU model

/// Textbook LRU over a std::list, no cleverness.
class NaiveLru {
 public:
  explicit NaiveLru(size_t capacity) : capacity_(capacity) {}

  /// Returns {hit, evicted_page or kInvalidPage}.
  std::pair<bool, store::PageId> Fix(store::PageId page) {
    auto it = std::find(order_.begin(), order_.end(), page);
    if (it != order_.end()) {
      order_.erase(it);
      order_.push_back(page);
      return {true, store::kInvalidPage};
    }
    store::PageId evicted = store::kInvalidPage;
    if (order_.size() == capacity_) {
      evicted = order_.front();
      order_.pop_front();
    }
    order_.push_back(page);
    return {false, evicted};
  }

 private:
  size_t capacity_;
  std::list<store::PageId> order_;
};

class LruDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(LruDifferentialTest, MatchesNaiveModelExactly) {
  const size_t capacity = 4 + static_cast<size_t>(GetParam()) % 29;
  buffer::BufferPool pool(capacity, buffer::ReplacementPolicy::kLru);
  NaiveLru naive(capacity);
  Rng rng(1000 + static_cast<uint64_t>(GetParam()));
  for (int step = 0; step < 5000; ++step) {
    const auto page = static_cast<store::PageId>(rng.Zipf(120, 0.5));
    const auto fix = pool.Fix(page);
    const auto [hit, evicted] = naive.Fix(page);
    ASSERT_EQ(fix.hit, hit) << "step " << step << " page " << page;
    ASSERT_EQ(fix.evicted_page, evicted) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruDifferentialTest,
                         ::testing::Range(0, 10));

// ------------------------------------------------- exact splitter model

// Brute-force minimum-broken-cost bipartition by full enumeration.
cluster::SplitResult BruteForceSplit(const cluster::DependencyGraph& g,
                                     uint32_t capacity) {
  const size_t n = g.nodes.size();
  cluster::SplitResult best;
  double best_cost = 1e300;
  for (uint32_t mask = 1; mask + 1 < (1u << n); ++mask) {
    uint64_t left = 0, right = 0;
    std::vector<int> side(n);
    for (size_t i = 0; i < n; ++i) {
      side[i] = (mask >> i) & 1u;
      (side[i] ? right : left) += g.nodes[i].size_bytes;
    }
    if (left > capacity || right > capacity) continue;
    const double cost = cluster::CutCost(g, side);
    if (cost < best_cost) {
      best_cost = cost;
      best = cluster::SplitResult{};
      best.feasible = true;
      best.broken_cost = cost;
      for (uint32_t i = 0; i < n; ++i) {
        (side[i] ? best.right : best.left).push_back(i);
      }
    }
  }
  return best;
}

class SplitterDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitterDifferentialTest, ExhaustiveMatchesBruteForce) {
  Rng rng(4242 + static_cast<uint64_t>(GetParam()));
  const int n = 4 + static_cast<int>(rng.NextBelow(9));  // 4..12 nodes
  cluster::DependencyGraph g;
  uint64_t total = 0;
  for (int i = 0; i < n; ++i) {
    const auto size = static_cast<uint32_t>(30 + rng.NextBelow(90));
    g.nodes.push_back({static_cast<obj::ObjectId>(i), size});
    total += size;
  }
  for (uint32_t a = 0; a < static_cast<uint32_t>(n); ++a) {
    for (uint32_t b = a + 1; b < static_cast<uint32_t>(n); ++b) {
      if (rng.Bernoulli(0.4)) {
        g.arcs.push_back({a, b, rng.UniformDouble(0.05, 3.0)});
      }
    }
  }
  const auto capacity = static_cast<uint32_t>(total * 4 / 5);

  const auto exact = cluster::ExhaustiveMinCutSplit(g, capacity);
  const auto brute = BruteForceSplit(g, capacity);
  ASSERT_EQ(exact.feasible, brute.feasible);
  if (brute.feasible) {
    EXPECT_NEAR(exact.broken_cost, brute.broken_cost, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SplitterDifferentialTest,
                         ::testing::Range(0, 30));

// ------------------------------------------------------------ RNG model

// The alias-method sampler must match direct inverse-CDF sampling in
// distribution (chi-square-ish bound on each bucket).
TEST(DiscreteDistributionDifferentialTest, MatchesExpectedFrequencies) {
  Rng rng(5);
  const std::vector<double> weights = {0.5, 2.5, 0.1, 4.0, 1.9, 1.0};
  DiscreteDistribution dist(weights);
  double sum = 0;
  for (double w : weights) sum += w;
  std::vector<int> counts(weights.size(), 0);
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) ++counts[dist.Sample(rng)];
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / sum * kSamples;
    EXPECT_NEAR(counts[i], expected, 5 * std::sqrt(expected) + 30)
        << "bucket " << i;
  }
}

}  // namespace
}  // namespace oodb
