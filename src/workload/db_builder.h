#ifndef SEMCLUST_WORKLOAD_DB_BUILDER_H_
#define SEMCLUST_WORKLOAD_DB_BUILDER_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "buffer/buffer_pool.h"
#include "cluster/build_placer.h"
#include "cluster/cluster_manager.h"
#include "objmodel/inheritance.h"
#include "objmodel/object_graph.h"
#include "util/random.h"
#include "workload/workload_config.h"

/// \file
/// Synthetic design-database construction. The database accretes the way a
/// real multi-user CAD repository does: several concurrent checkin streams
/// (one per engineer), each creating one design module at a time —
/// composite first, then its components depth-first, an alternate
/// representation with correspondences, and derived versions — interleaved
/// one object per turn. The builder generates in creation order and hands
/// each batch of objects to the cluster::BuildPlacer, which places them in
/// that order through the ClusterManager under test, so each clustering
/// policy produces its own physical layout, and arrival-order
/// (No_Clustering) placement naturally scatters modules across the shared
/// append pages.

namespace oodb::workload {

/// Bounds of a generated object's size in bytes. Both database builders
/// (DbBuilder and ocb::OcbBuilder) clamp every object they create into
/// [kMinObjectBytes, kMaxObjectBytes], so a page must hold at least
/// kMaxObjectBytes (core::ModelConfig::Validate).
inline constexpr uint32_t kMinObjectBytes = 24;
inline constexpr uint32_t kMaxObjectBytes = 1024;

/// Parameters of the generated database.
struct DatabaseSpec {
  /// Total object bytes to create (the DB size knob, Table 4.1 A scaled).
  uint64_t target_bytes = 8ull << 20;
  StructureDensity density = StructureDensity::kMed5;
  /// Interleaved checkin streams (defaults to Table 4.1's 10 users).
  int concurrent_streams = 10;
  /// Mean component-object size in bytes. CAD objects carry geometry;
  /// a few hundred bytes is typical, so a high-density configuration
  /// spans pages even when perfectly clustered.
  uint32_t mean_object_bytes = 320;
  /// Composites carry this much extra (child references etc.).
  uint32_t composite_extra_bytes = 48;
  /// Configuration depth below a module root (1 = flat).
  int hierarchy_depth = 2;
  /// Probability that a non-root slot at depth < hierarchy_depth is itself
  /// a composite.
  double composite_fraction = 0.3;
  /// Number of alternate representations built per module (0 = none);
  /// each corresponds object-by-object to the primary representation root
  /// and its direct components.
  int alt_representations = 1;
  /// Fraction of module objects that receive a derived version chain.
  double version_fraction = 0.12;
  /// Mean extra versions derived per versioned object (geometric).
  double version_chain_mean = 1.6;
  /// Probability that each checkin step is accompanied by one concurrent
  /// read of a random existing page (library lookups, verification scans
  /// by other tools). This keeps realistic pressure on the buffer pool
  /// during accretion: without it, a stream's relative pages would always
  /// be resident and Cluster_within_Buffer would never miss a candidate.
  double interleaved_read_probability = 0.8;
  uint64_t seed = 42;

  friend bool operator==(const DatabaseSpec&, const DatabaseSpec&) = default;
};

/// The logical catalogue of the built database, consumed by the workload
/// generator. Object lists are maintained by the execution model as the
/// workload inserts and deletes objects.
struct DesignDatabase {
  struct Module {
    obj::ObjectId root = obj::kInvalidObject;
    /// All live objects of the module (any representation or version).
    std::vector<obj::ObjectId> objects;
    /// Objects with configuration components (navigation entry points).
    std::vector<obj::ObjectId> composites;
    /// Objects that have version ancestors or descendants.
    std::vector<obj::ObjectId> versioned;
    /// Objects with correspondence links.
    std::vector<obj::ObjectId> corresponding;
  };

  std::vector<Module> modules;
  obj::TypeId composite_type = obj::kInvalidType;
  obj::TypeId leaf_type = obj::kInvalidType;
  obj::TypeId alt_type = obj::kInvalidType;

  size_t TotalObjects() const;
};

/// Registers the builder's CAD-flavoured types (cell / primitive /
/// netcell) on `lattice` — exposed so tests and benches can build
/// compatible graphs.
struct CadTypes {
  obj::TypeId composite;  ///< "cell": configuration-dominant profile
  obj::TypeId leaf;       ///< "primitive"
  obj::TypeId alt;        ///< "netcell": correspondence-heavy profile
};
CadTypes RegisterCadTypes(obj::TypeLattice& lattice);

namespace internal {
struct PlanStep;  // one step of a module-construction plan (db_builder.cc)
}  // namespace internal

/// Builds the database through `cluster_mgr` (and mirrors write residency
/// into `buffer` when non-null, as the run-time write path would).
class DbBuilder {
 public:
  DbBuilder(obj::ObjectGraph* graph, cluster::ClusterManager* cluster_mgr,
            buffer::BufferPool* buffer, DatabaseSpec spec);
  ~DbBuilder();

  /// Creates modules until `spec.target_bytes` of objects exist. The
  /// graph's columns and the storage directory are sized once, with room
  /// for what `run_transactions` transactions run on the database
  /// afterwards add to it.
  DesignDatabase Build(CadTypes types, uint64_t run_transactions = 0);

  /// Total object bytes created so far.
  uint64_t bytes_created() const { return bytes_created_; }

  /// What Build reserved beyond what existed before it: objects in the
  /// graph's columns and the storage directory, edge slots in the edge
  /// arenas, and modules in the catalogue and the graph's families.
  struct Reservation {
    size_t objects = 0;
    size_t edge_slots = 0;
    size_t modules = 0;
  };
  const Reservation& reservation() const { return reservation_; }

  /// Largest capacity any per-batch buffer (recorded reads, the placer's
  /// sizes and page runs) has reached; at most
  /// cluster::kBuildBatchObjects.
  size_t batch_buffer_capacity() const {
    return std::max(reads_.capacity(), placer_.buffer_capacity());
  }

 private:
  struct StreamState;
  /// An interleaved read as drawn during generation: whether it happens
  /// and, if so, the raw draw its page comes from (BelowFromDraw over the
  /// page count once the object is placed).
  struct RecordedRead {
    bool read = false;
    uint64_t draw = 0;
  };

  uint32_t SampleObjectSize(Rng& rng, bool composite);
  /// Places the pending batch (and resolves its recorded reads).
  void PlaceBatch();
  /// Plans one module into `plan` from `rng`'s draws as a step script (no
  /// side effects on the graph), then sizes every step's edge run
  /// (PlanDegrees).
  void PlanModule(Rng& rng, std::vector<internal::PlanStep>& plan);
  /// Sets each step's `degree` to the number of edges its object has once
  /// the whole plan has executed.
  void PlanDegrees(std::vector<internal::PlanStep>& plan);
  /// Executes the next step of a stream's plan: creates and relates its
  /// object and adds it to the pending batch.
  void ExecuteStep(StreamState& stream);
  /// Sizes the graph's columns and the storage directory once, from a
  /// sample of module plans, before any object is created.
  void ReserveColumns(uint64_t run_transactions);

  obj::ObjectGraph* graph_;
  cluster::BuildPlacer placer_;
  DatabaseSpec spec_;
  Rng rng_;
  uint64_t bytes_created_ = 0;
  Reservation reservation_;
  obj::InheritanceCostModel inherit_model_;
  CadTypes types_{};

  // Planning scratch, cleared per module instead of reallocated.
  /// Depth-first expansion stack: (plan index, depth).
  std::vector<std::pair<int, int>> plan_stack_;
  /// Plan indices of the primary root's direct components.
  std::vector<int> root_components_;
  /// Member count of each side of each correspondence group: group g's
  /// sides are entries 2g and 2g + 1.
  std::vector<uint32_t> corr_side_size_;
  /// Per type: the layout of a derived version (obj::LayoutHeir), filled
  /// once per Build.
  std::vector<obj::HeirLayout> heir_layouts_;

  // The pending batch: objects batch_first_ .. batch_first_ +
  // batch_count_ - 1, created and related but not placed, and their
  // recorded reads (filled only when the placer interleaves reads).
  obj::ObjectId batch_first_ = obj::kInvalidObject;
  size_t batch_count_ = 0;
  std::vector<RecordedRead> reads_;
};

}  // namespace oodb::workload

#endif  // SEMCLUST_WORKLOAD_DB_BUILDER_H_
