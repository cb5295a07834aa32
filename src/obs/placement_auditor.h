#ifndef SEMCLUST_OBS_PLACEMENT_AUDITOR_H_
#define SEMCLUST_OBS_PLACEMENT_AUDITOR_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "objmodel/object_graph.h"
#include "storage/storage_manager.h"

/// \file
/// Clustering-quality auditing (DESIGN.md §9). The paper's claim is about
/// *placement*: run-time reclustering should drive structurally related
/// objects onto shared pages. End-of-run I/O counts only show the
/// consequence; the auditor measures the cause directly — which fraction
/// of structure/inheritance edges is page-co-located, how full pages are,
/// how fragmented each type's extent is, and how many pages a composite
/// configuration spans — so locality convergence under dynamic
/// reclustering is observable over time, in the style of Darmont et al.'s
/// clustering-evaluation metrics.
///
/// A PlacementSample is a pure read of graph + storage state: auditing
/// never mutates the model, so attaching it cannot change any simulated
/// outcome. All aggregates are order-independent sums or means over
/// deterministic iterations, keeping samples bit-identical at any
/// `SEMCLUST_BENCH_JOBS` count.

namespace oodb::obs {

/// Co-location tally for one relationship kind.
struct EdgeLocality {
  uint64_t edges = 0;      ///< edges with both endpoints live and placed
  uint64_t colocated = 0;  ///< ... whose endpoints share a page
};

/// Number of occupancy-histogram deciles ([0,10%), [10,20%), ..., the last
/// bucket includes exactly-full pages).
inline constexpr size_t kOccupancyBuckets = 10;

/// One point-in-time audit of the whole database's object placement.
struct PlacementSample {
  // ---- population ----
  uint64_t live_objects = 0;
  uint64_t placed_objects = 0;
  uint64_t pages = 0;           ///< pages ever allocated
  uint64_t nonempty_pages = 0;  ///< pages holding at least one object
  /// Pages allocated but currently holding no objects — the page-death
  /// signal of structural churn (deletes can drain a page completely; the
  /// occupancy and fragmentation means below always exclude such pages,
  /// so a churned placement never yields NaN ratios).
  uint64_t empty_pages = 0;

  // ---- structural locality ----
  /// Per-kind co-location, indexed by obj::RelKind. An edge counts once
  /// from its kDown side (correspondence, stored symmetrically, counts
  /// once per endpoint — consistently on every sample).
  std::array<EdgeLocality, obj::kNumRelKinds> by_kind{};
  uint64_t edges = 0;
  uint64_t colocated = 0;

  // ---- page occupancy ----
  /// Histogram of used/capacity over non-empty pages, kOccupancyBuckets
  /// equal-width deciles.
  std::array<uint64_t, kOccupancyBuckets> occupancy_histogram{};
  /// Mean fill fraction over non-empty pages.
  double mean_occupancy = 0;

  // ---- fragmentation ----
  /// Mean over types (with at least one placed object) of
  /// pages_spanned / ceil(type_bytes / page_capacity): 1.0 is a perfectly
  /// packed extent, larger means the type's objects are scattered.
  double mean_type_fragmentation = 0;
  uint64_t types_audited = 0;

  /// Mean number of distinct pages spanned by one configuration: the pages
  /// of the objects a stamped DFS from a composite root pops before 4096
  /// objects have been pushed (DESIGN.md §9). Below that cap this is
  /// exactly the root's transitive `kConfiguration` closure.
  double mean_pages_per_configuration = 0;
  uint64_t configurations = 0;

  /// colocated / edges, or nullopt when no edges qualified.
  std::optional<double> ColocatedFraction() const {
    if (edges == 0) return std::nullopt;
    return static_cast<double>(colocated) / static_cast<double>(edges);
  }

  /// Deterministic JSON object (see DESIGN.md §9 for the schema).
  std::string ToJson() const;
};

/// Computes PlacementSamples from a live graph + storage pair. Holds no
/// state beyond the two pointers; every Sample() is a fresh full scan,
/// linear in objects + edges + pages apart from configuration walks that
/// hit the cap (at most 4096 objects per root).
class PlacementAuditor {
 public:
  PlacementAuditor(const obj::ObjectGraph* graph,
                   const store::StorageManager* storage)
      : graph_(graph), storage_(storage) {}

  PlacementSample Sample() const;

 private:
  const obj::ObjectGraph* graph_;
  const store::StorageManager* storage_;
};

}  // namespace oodb::obs

#endif  // SEMCLUST_OBS_PLACEMENT_AUDITOR_H_
