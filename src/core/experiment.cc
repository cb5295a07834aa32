#include "core/experiment.h"

namespace oodb::core {

RunResult RunCell(const ModelConfig& config) {
  EngineeringDbModel model(config);
  return model.Run();
}

std::vector<workload::WorkloadConfig> StandardWorkloadGrid() {
  std::vector<workload::WorkloadConfig> grid;
  for (auto density : workload::kAllStructureDensities) {
    for (double ratio : {5.0, 10.0, 100.0}) {
      workload::WorkloadConfig w;
      w.density = density;
      w.read_write_ratio = ratio;
      grid.push_back(w);
    }
  }
  return grid;
}

std::vector<cluster::ClusterConfig> ClusteringPolicyLevels(
    cluster::SplitPolicy split) {
  std::vector<cluster::ClusterConfig> levels;
  {
    cluster::ClusterConfig c;
    c.pool = cluster::CandidatePool::kNoClustering;
    levels.push_back(c);
  }
  {
    cluster::ClusterConfig c;
    c.pool = cluster::CandidatePool::kWithinBuffer;
    c.split = split;
    levels.push_back(c);
  }
  {
    cluster::ClusterConfig c;
    c.pool = cluster::CandidatePool::kIoLimit;
    c.io_limit = 2;
    c.split = split;
    levels.push_back(c);
  }
  {
    cluster::ClusterConfig c;
    c.pool = cluster::CandidatePool::kIoLimit;
    c.io_limit = 10;
    c.split = split;
    levels.push_back(c);
  }
  {
    cluster::ClusterConfig c;
    c.pool = cluster::CandidatePool::kWithinDb;
    c.split = split;
    levels.push_back(c);
  }
  return levels;
}

std::vector<BufferingLevel> BufferingLevels() {
  using R = buffer::ReplacementPolicy;
  using P = buffer::PrefetchPolicy;
  return {
      {R::kContextSensitive, P::kWithinDb, "C_p_DB"},
      {R::kContextSensitive, P::kWithinBuffer, "C_p_buff"},
      {R::kRandom, P::kWithinDb, "R_p_DB"},
      {R::kRandom, P::kWithinBuffer, "R_p_buff"},
      {R::kLru, P::kWithinDb, "LRU_p_DB"},
      {R::kLru, P::kNone, "LRU_no_p"},
  };
}

ModelConfig WithWorkload(ModelConfig base,
                         const workload::WorkloadConfig& w) {
  base.workload = w;
  base.database.density = w.density;
  return base;
}

}  // namespace oodb::core
