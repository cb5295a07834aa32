#include "cluster/dependency_graph.h"

#include <unordered_map>

namespace oodb::cluster {

DependencyGraph DependencyGraph::Build(const obj::ObjectGraph& graph,
                                       const AffinityModel& affinity,
                                       const store::StorageManager& storage,
                                       store::PageId page,
                                       std::optional<DepNode> incoming) {
  DependencyGraph dep;
  std::unordered_map<obj::ObjectId, uint32_t> index;

  for (const store::Slot& slot : storage.page(page).slots()) {
    index.emplace(slot.object, static_cast<uint32_t>(dep.nodes.size()));
    dep.nodes.push_back(DepNode{slot.object, slot.size_bytes});
  }
  if (incoming.has_value()) {
    index.emplace(incoming->object, static_cast<uint32_t>(dep.nodes.size()));
    dep.nodes.push_back(*incoming);
  }

  // Accumulate arcs between co-located nodes; a pair may be related by
  // several kinds (e.g. version history + instance inheritance).
  std::unordered_map<uint64_t, double> pair_weight;
  for (uint32_t i = 0; i < dep.nodes.size(); ++i) {
    const obj::ObjectId from = dep.nodes[i].object;
    if (!graph.IsLive(from)) continue;
    for (const obj::Edge e : graph.edges(from)) {
      auto it = index.find(e.target);
      if (it == index.end()) continue;
      const uint32_t j = it->second;
      if (j == i) continue;
      const uint32_t lo = std::min(i, j);
      const uint32_t hi = std::max(i, j);
      // Each undirected relationship appears as an edge on both endpoints;
      // halve so the pair's weight is counted once per relationship.
      pair_weight[(static_cast<uint64_t>(lo) << 32) | hi] +=
          0.5 * affinity.EdgeWeight(graph, from, e);
    }
  }
  dep.arcs.reserve(pair_weight.size());
  for (const auto& [key, weight] : pair_weight) {
    dep.arcs.push_back(DepArc{static_cast<uint32_t>(key >> 32),
                              static_cast<uint32_t>(key & 0xFFFFFFFFu),
                              weight});
  }
  return dep;
}

}  // namespace oodb::cluster
