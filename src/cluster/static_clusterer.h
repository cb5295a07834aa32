#ifndef SEMCLUST_CLUSTER_STATIC_CLUSTERER_H_
#define SEMCLUST_CLUSTER_STATIC_CLUSTERER_H_

#include <cstdint>
#include <vector>

#include "cluster/affinity.h"
#include "objmodel/object_graph.h"
#include "storage/storage_manager.h"

/// \file
/// Static (offline) clustering — the alternative the paper contrasts with
/// its run-time algorithm (§2.1): "For static clustering, the system is
/// quiesced, and the database administrator decides on a partitioning of
/// objects." This reorganizer computes an affinity-ordered traversal of
/// the whole object graph and repacks pages to match. It produces
/// excellent locality *at the moment it runs*, but requires quiescing the
/// database, and its layout decays as the workload keeps creating and
/// restructuring objects — which is exactly why the paper argues for
/// dynamic clustering when availability matters. The ablation bench
/// `bench_ablation_static_vs_dynamic` measures that decay.

namespace oodb::cluster {

/// Outcome of a full reorganization.
struct ReorganizationReport {
  /// Objects moved to a different page.
  uint64_t objects_moved = 0;
  /// Objects processed in total.
  uint64_t objects_total = 0;
  /// Pages in use after reorganization.
  size_t pages_after = 0;
  /// Pages that were in use before.
  size_t pages_before = 0;
  /// Physical page writes a real system would owe (every destination page
  /// plus every vacated source page).
  uint64_t page_writes = 0;
};

/// Offline repacking of the whole database.
class StaticClusterer {
 public:
  /// `fill_fraction` caps how full the packer makes each page, leaving
  /// update headroom like any reorganisation utility.
  StaticClusterer(obj::ObjectGraph* graph, store::StorageManager* storage,
                  const AffinityModel* affinity,
                  double fill_fraction = 0.9);

  /// Repacks every placed object: walks the object graph in
  /// affinity-greedy order (each cluster seed expands along its heaviest
  /// edges first) and assigns objects to fresh pages in that order.
  /// The storage manager's old pages are left empty, and a page every
  /// record left keeps no slot storage (StorageManager::RelocateToNewPages).
  ReorganizationReport Reorganize();

  /// The affinity-greedy visit order (exposed for tests).
  std::vector<obj::ObjectId> ComputeOrder() const;

 private:
  obj::ObjectGraph* graph_;
  store::StorageManager* storage_;
  const AffinityModel* affinity_;
  double fill_fraction_;
};

}  // namespace oodb::cluster

#endif  // SEMCLUST_CLUSTER_STATIC_CLUSTERER_H_
