#ifndef SEMCLUST_CLUSTER_DEPENDENCY_GRAPH_H_
#define SEMCLUST_CLUSTER_DEPENDENCY_GRAPH_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/affinity.h"
#include "objmodel/object_graph.h"
#include "storage/storage_manager.h"

/// \file
/// The inheritance-dependency graph over the objects of one page (plus,
/// optionally, an incoming object that overflowed it). Page-splitting
/// partitions this graph into two page-sized subsets while minimising the
/// total weight of broken arcs (paper §2.1(b)).

namespace oodb::cluster {

/// A node: one object and its storage footprint.
struct DepNode {
  obj::ObjectId object = obj::kInvalidObject;
  uint32_t size_bytes = 0;
};

/// A weighted undirected arc between two nodes (indices into `nodes`).
struct DepArc {
  uint32_t a = 0;
  uint32_t b = 0;
  double weight = 0;
};

/// The graph handed to the page splitters.
struct DependencyGraph {
  std::vector<DepNode> nodes;
  std::vector<DepArc> arcs;

  /// Builds the graph for `page`: one node per resident object (plus
  /// `incoming` if given), and one arc for every structural relationship
  /// between two nodes, weighted by the affinity model. Parallel
  /// relationships between the same pair accumulate into one arc.
  static DependencyGraph Build(
      const obj::ObjectGraph& graph, const AffinityModel& affinity,
      const store::StorageManager& storage, store::PageId page,
      std::optional<DepNode> incoming = std::nullopt);
};

}  // namespace oodb::cluster

#endif  // SEMCLUST_CLUSTER_DEPENDENCY_GRAPH_H_
