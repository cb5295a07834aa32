#include <cmath>

#include "gtest/gtest.h"
#include "analysis/factorial.h"

namespace oodb::analysis {
namespace {

// A synthetic runner with a known response surface lets us verify the
// effect estimates exactly without running simulations.
FactorialDesign MakeSyntheticDesign() {
  // Factors: A (index 0) and B (index 1) plus an inert C (index 2).
  std::vector<Factor> factors = {
      {"A", [](core::ModelConfig& c, bool high) {
         c.workload.read_write_ratio = high ? 100 : 5;
       }},
      {"B", [](core::ModelConfig& c, bool high) {
         c.buffer_pages = high ? 512 : 64;
       }},
      {"C", [](core::ModelConfig& c, bool high) {
         c.seed = high ? 2 : 1;
       }},
  };
  // response = 10 + 4*A + 2*B + 1*A*B (with A,B in {-1,+1}); C inert.
  auto runner = [](const core::ModelConfig& cfg) {
    const double a = cfg.workload.read_write_ratio > 50 ? 1.0 : -1.0;
    const double b = cfg.buffer_pages > 100 ? 1.0 : -1.0;
    return 10.0 + 4.0 * a + 2.0 * b + 1.0 * a * b;
  };
  FactorialDesign design(core::ModelConfig{}, std::move(factors), runner);
  design.Run();
  return design;
}

TEST(FactorialTest, MainEffectsMatchSurface) {
  auto design = MakeSyntheticDesign();
  auto effects = design.MainEffects();
  ASSERT_EQ(effects.size(), 3u);
  // Effect = response change from low to high = 2 * coefficient.
  EXPECT_NEAR(effects[0].effect, 8.0, 1e-12);  // A
  EXPECT_NEAR(effects[1].effect, 4.0, 1e-12);  // B
  EXPECT_NEAR(effects[2].effect, 0.0, 1e-12);  // C inert
}

TEST(FactorialTest, TwoWayInteractionsMatchSurface) {
  auto design = MakeSyntheticDesign();
  int two_way = 0;
  double ab = 0, ac = 0, bc = 0;
  for (const auto& e : design.AllEffects()) {
    if (e.order != 2) continue;
    ++two_way;
    if (e.name == "A x B") ab = e.effect;
    if (e.name == "A x C") ac = e.effect;
    if (e.name == "B x C") bc = e.effect;
  }
  EXPECT_EQ(two_way, 3);  // AB, AC, BC
  EXPECT_NEAR(ab, 2.0, 1e-12);
  EXPECT_NEAR(ac, 0.0, 1e-12);
  EXPECT_NEAR(bc, 0.0, 1e-12);
}

TEST(FactorialTest, AllEffectsSortedByMagnitude) {
  auto design = MakeSyntheticDesign();
  auto effects = design.AllEffects();
  ASSERT_EQ(effects.size(), 7u);  // 2^3 - 1 contrasts
  for (size_t i = 1; i < effects.size(); ++i) {
    EXPECT_GE(std::abs(effects[i - 1].effect), std::abs(effects[i].effect));
  }
  EXPECT_EQ(effects[0].name, "A");
}

TEST(FactorialTest, InteractionCellAveragesCorrectly) {
  auto design = MakeSyntheticDesign();
  auto cell = design.Interaction(0, 1);
  // r(a,b) = 10 + 4a + 2b + ab.
  EXPECT_NEAR(cell.low_low, 10 - 4 - 2 + 1, 1e-12);
  EXPECT_NEAR(cell.low_high, 10 - 4 + 2 - 1, 1e-12);
  EXPECT_NEAR(cell.high_low, 10 + 4 - 2 - 1, 1e-12);
  EXPECT_NEAR(cell.high_high, 10 + 4 + 2 + 1, 1e-12);
}

// ------------------------------------------------ interaction classifier

TEST(InteractionClassTest, ParallelLinesAreNone) {
  // Same slope for both B levels.
  InteractionCell cell{1.0, 3.0, 2.0, 4.0};
  EXPECT_EQ(ClassifyInteraction(cell), InteractionClass::kNone);
}

TEST(InteractionClassTest, CrossingLinesAreMajor) {
  // B-high starts above and ends below B-low.
  InteractionCell cell{1.0, 3.0, 4.0, 2.0};
  EXPECT_EQ(ClassifyInteraction(cell), InteractionClass::kMajor);
}

TEST(InteractionClassTest, DivergingLinesAreMinor) {
  // Different slopes, no crossing inside the range.
  InteractionCell cell{1.0, 2.0, 3.0, 8.0};
  EXPECT_EQ(ClassifyInteraction(cell), InteractionClass::kMinor);
}

TEST(InteractionClassTest, ToleranceScalesWithMagnitude) {
  // Slopes differing by far less than the tolerance are "parallel".
  InteractionCell cell{100.0, 110.0, 120.0, 130.5};
  EXPECT_EQ(ClassifyInteraction(cell, 0.15), InteractionClass::kNone);
}

TEST(FactorialTest, StandardFactorsCoverTheEightControls) {
  auto factors = StandardFactors();
  ASSERT_EQ(factors.size(), 8u);
  EXPECT_EQ(factors[0].name, "F:density");
  EXPECT_EQ(factors[7].name, "M:prefetch");
  // Applying each factor's levels must modify a default config without
  // crashing.
  for (const auto& f : factors) {
    core::ModelConfig cfg;
    f.apply(cfg, false);
    f.apply(cfg, true);
  }
}

// End-to-end (tiny): a 3-factor real-simulation design runs and the
// density factor shows a positive response-time effect.
TEST(FactorialTest, RealSimulationSmallDesign) {
  core::ModelConfig base = core::TestConfig();
  base.measured_transactions = 120;
  base.warmup_transactions = 20;
  auto all = StandardFactors();
  std::vector<Factor> subset = {all[0], all[2], all[6]};  // F, H, L
  FactorialDesign design(base, subset);
  design.Run();
  auto effects = design.MainEffects();
  EXPECT_GT(effects[0].effect, 0.0);  // density raises response time
  EXPECT_LT(effects[2].effect, 0.0);  // more buffers lower it
}

}  // namespace
}  // namespace oodb::analysis
