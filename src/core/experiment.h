#ifndef SEMCLUST_CORE_EXPERIMENT_H_
#define SEMCLUST_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/engineering_db.h"
#include "core/model_config.h"

/// \file
/// Experiment-grid helpers shared by the benchmark harness: the paper's
/// standard operating levels for workloads (Figs 5.1-5.8 x-axes), the five
/// clustering policies, and the six buffering configurations of Fig 5.11.

namespace oodb::core {

/// Runs one fully configured simulation.
RunResult RunCell(const ModelConfig& config);

/// The nine workload cells {low3,med5,hi10} x {5,10,100} in the paper's
/// x-axis order ("low3-5" ... "hi10-100").
std::vector<workload::WorkloadConfig> StandardWorkloadGrid();

/// The five clustering policies of Figure 5.1: No_Clustering,
/// Cluster_within_Buffer, 2_IO_limit, 10_IO_limit, No_limit.
/// `split` applies to every clustering policy (ignored by No_Clustering).
std::vector<cluster::ClusterConfig> ClusteringPolicyLevels(
    cluster::SplitPolicy split = cluster::SplitPolicy::kNoSplit);

/// One replacement x prefetch configuration of Figure 5.11.
struct BufferingLevel {
  buffer::ReplacementPolicy replacement;
  buffer::PrefetchPolicy prefetch;
  std::string label;  // paper's labels: C_p_DB, C_p_buff, R_p_DB, ...
};

/// The six buffering configurations reported in Figure 5.11.
std::vector<BufferingLevel> BufferingLevels();

/// Applies a workload to a config (sets F and G).
ModelConfig WithWorkload(ModelConfig base,
                         const workload::WorkloadConfig& w);

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_EXPERIMENT_H_
