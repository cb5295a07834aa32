// A netlist simulator traverses the configuration hierarchy (paper §1:
// "a simulation tool traverses the net list representation hierarchy, and
// clustering along the configuration hierarchy is best"). This example
// runs the full engineering-DB model with a configuration-heavy read mix
// and compares the three prefetch policies end to end.
//
// Build & run:  ./build/examples/netlist_simulator

#include <cstdio>

#include "core/engineering_db.h"
#include "core/experiment.h"

using namespace oodb;

int main() {
  // A simulator's workload: nearly all reads, dominated by component and
  // composite (deep) retrieval along configuration.
  workload::WorkloadConfig w;
  w.density = workload::StructureDensity::kHigh10;
  w.read_write_ratio = 170;  // bdsim/mosaico territory (Fig 3.2)
  w.read_mix = {0.10, 0.35, 0.45, 0.03, 0.03, 0.04};
  w.session_module_count = 0;  // batch simulator: every run a fresh design

  std::printf("netlist-simulator workload: R/W %.0f, %s density, deep "
              "configuration traversal\n\n",
              w.read_write_ratio, workload::StructureDensityName(w.density));
  std::printf("%-28s %14s %12s %14s\n", "prefetch policy", "response (ms)",
              "hit ratio", "prefetch I/Os");

  double rt_none = 0, rt_db = 0;
  for (auto prefetch : {buffer::PrefetchPolicy::kNone,
                        buffer::PrefetchPolicy::kWithinBuffer,
                        buffer::PrefetchPolicy::kWithinDb}) {
    core::ModelConfig cfg = core::WithWorkload(core::TestConfig(), w);
    cfg.measured_transactions = 800;
    cfg.clustering.pool = cluster::CandidatePool::kWithinDb;
    cfg.clustering.split = cluster::SplitPolicy::kLinearGreedy;
    cfg.replacement = buffer::ReplacementPolicy::kContextSensitive;
    cfg.prefetch = prefetch;
    const core::RunResult r = core::RunCell(cfg);
    const double hits =
        static_cast<double>(r.metrics.counter("buffer.hits").value_or(0));
    const double misses =
        static_cast<double>(r.metrics.counter("buffer.misses").value_or(0));
    std::printf("%-28s %14.1f %11.1f%% %14llu\n",
                buffer::PrefetchPolicyName(prefetch),
                r.response_time.Mean() * 1000,
                hits + misses == 0 ? 0.0 : hits / (hits + misses) * 100,
                static_cast<unsigned long long>(
                    r.metrics.counter("io.prefetch-read").value_or(0)));
    if (prefetch == buffer::PrefetchPolicy::kNone) {
      rt_none = r.response_time.Mean();
    }
    if (prefetch == buffer::PrefetchPolicy::kWithinDb) {
      rt_db = r.response_time.Mean();
    }
  }

  std::printf("\nprefetch-within-database improves the simulator's "
              "response by %.0f%%:\ntouching a cell pulls its immediate "
              "subcomponents into the pool before the\ntraversal asks for "
              "them.\n",
              (rt_none / rt_db - 1) * 100);
  return 0;
}
