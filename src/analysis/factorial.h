#ifndef SEMCLUST_ANALYSIS_FACTORIAL_H_
#define SEMCLUST_ANALYSIS_FACTORIAL_H_

#include <functional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/model_config.h"

/// \file
/// Two-level factorial effect analysis (paper §6, Figs 6.1-6.2). Each of
/// the eight control parameters of Table 4.1 gets a low and a high
/// operating level; the full 2^k design is simulated and the Yates
/// transform yields every main and interaction effect on mean response
/// time. Interactions are classified by the paper's parallel-lines test.

namespace oodb::analysis {

/// One two-level factor: a name and how to set its level on a config.
struct Factor {
  std::string name;
  std::function<void(core::ModelConfig&, bool high)> apply;
};

/// The eight control parameters (F..M) at the paper's outer operating
/// levels: density low3/hi10, R/W 5/100, clustering none/no-limit,
/// splitting none/linear, hints no/yes, replacement LRU/context, buffers
/// small/large, prefetch none/within-DB.
std::vector<Factor> StandardFactors();

/// One estimated effect.
struct EffectResult {
  std::string name;  ///< "F:density" or "F:density x K:replacement"
  double effect = 0;  ///< mean response-time change from low to high
  int order = 1;      ///< 1 = main effect, 2 = two-way interaction, ...
};

/// The paper's Fig 6.2 X-Y interaction diagram for a factor pair:
/// responses averaged over all other factors at the four level
/// combinations.
struct InteractionCell {
  double low_low = 0;    ///< A low,  B low
  double low_high = 0;   ///< A low,  B high
  double high_low = 0;   ///< A high, B low
  double high_high = 0;  ///< A high, B high
};

/// Parallel-lines classification (paper §6): parallel lines mean no
/// interaction, crossing lines a strong interaction, non-parallel
/// non-crossing lines a minor interaction.
enum class InteractionClass { kNone = 0, kMinor = 1, kMajor = 2 };

const char* InteractionClassName(InteractionClass c);

InteractionClass ClassifyInteraction(const InteractionCell& cell,
                                     double parallel_tolerance = 0.15);

/// Runs the full 2^k design and computes effects.
class FactorialDesign {
 public:
  /// `runner` maps a configured model to a response value; the default
  /// (set in the constructor) runs the simulation and returns mean
  /// response time. Injectable for tests.
  using Runner = std::function<double(const core::ModelConfig&)>;

  /// Called once per cell after the design runs (default runner only):
  /// the cell's factor mask, its configuration, the full simulation
  /// result, and the wall-clock seconds it took. Invoked on the calling
  /// thread in mask order.
  using CellObserver =
      std::function<void(uint32_t mask, const core::ModelConfig& config,
                         const core::RunResult& result, double wall_s)>;

  FactorialDesign(core::ModelConfig base, std::vector<Factor> factors,
                  Runner runner = nullptr);

  /// Registers an observer for per-cell results; call before Run().
  void set_cell_observer(CellObserver observer);

  /// Simulates all 2^k cells (k <= 16). With the default runner the cells
  /// execute on the exec::ExperimentRunner worker pool
  /// (SEMCLUST_BENCH_JOBS), each under its splitmix64-derived per-cell
  /// seed, so the design's responses are bit-identical at any job count.
  /// An injected runner keeps the legacy serial loop.
  void Run();

  size_t num_factors() const { return factors_.size(); }
  const std::vector<Factor>& factors() const { return factors_; }

  /// All main effects, in factor order.
  std::vector<EffectResult> MainEffects() const;

  /// Every contrast of the design (all non-empty factor subsets),
  /// sorted by |effect| descending — the population of blobs in Fig 6.1.
  std::vector<EffectResult> AllEffects() const;

  /// Fig 6.2 data for factors `a` and `b`.
  InteractionCell Interaction(size_t a, size_t b) const;

 private:
  double Contrast(uint32_t subset) const;
  std::string SubsetName(uint32_t subset) const;

  core::ModelConfig base_;
  std::vector<Factor> factors_;
  Runner runner_;
  bool custom_runner_ = false;
  CellObserver observer_;
  std::vector<double> responses_;
  bool ran_ = false;
};

}  // namespace oodb::analysis

#endif  // SEMCLUST_ANALYSIS_FACTORIAL_H_
