#ifndef SEMCLUST_OCB_OCB_BUILDER_H_
#define SEMCLUST_OCB_OCB_BUILDER_H_

#include <cstdint>
#include <vector>

#include "buffer/buffer_pool.h"
#include "cluster/build_placer.h"
#include "cluster/cluster_manager.h"
#include "objmodel/object_graph.h"
#include "objmodel/type_system.h"
#include "ocb/ocb_config.h"
#include "util/random.h"
#include "workload/db_builder.h"

/// \file
/// Deterministic OCB database generation: a random class hierarchy and a
/// random instance graph with configurable reference locality. Generation
/// is driven by per-purpose SplitMix64 streams forked from a single seed —
/// class shape, instance sizes, references, inheritance links, and load
/// interleaving each consume their own stream, so the generated graph is
/// bit-identical for a given (config, seed) regardless of how any one
/// stage evolves, and regardless of SEMCLUST_BENCH_JOBS.
///
/// Unlike the engineering-design DbBuilder — which accretes objects the
/// way concurrent checkin streams would — the OCB builder plans the full
/// logical graph first (every draw, before any object exists), creates
/// each object with its final degree as edge capacity, relates, and then
/// bulk-loads it through the ClusterManager under test in creation order
/// (cluster::BuildPlacer, shared with DbBuilder), the way a generic
/// benchmark database is installed into a DBMS.

namespace oodb::ocb {

/// The generated class hierarchy.
struct OcbSchema {
  /// All class ids, in generation order (index = class number).
  std::vector<obj::TypeId> classes;
  /// Inheritance depth of each class (root = 0).
  std::vector<int> level_of;
  /// Superclass *index* of each class (-1 for the root).
  std::vector<int> super_of;
  /// CAD-type facade consumed by the execution model's insert path: the
  /// root class plays "composite", two leaf-most classes play "leaf" and
  /// "alt".
  workload::CadTypes cad{};
};

/// Registers `config.classes` OCB classes on `lattice` as one inheritance
/// tree of depth <= `config.hierarchy_depth`, with per-class base sizes
/// and traversal profiles drawn from a SplitMix64 stream seeded by `seed`.
OcbSchema RegisterOcbClasses(obj::TypeLattice& lattice,
                             const OcbConfig& config, uint64_t seed);

/// The generated database, as consumed by the OCB workload generator and
/// the execution model.
struct OcbCatalog {
  OcbSchema schema;
  /// Partition catalogue in DesignDatabase form (partition = module), so
  /// the execution model's write path maintains it unchanged.
  workload::DesignDatabase db;
  /// Per-class instance extents (creation order) for set-oriented lookup.
  std::vector<std::vector<obj::ObjectId>> extents;
  /// Objects that are sources of instance-inheritance links (hierarchy
  /// traversal entry points).
  std::vector<obj::ObjectId> inheritance_roots;
};

/// Order-independent FNV-1a digest of the live object graph (ids, types,
/// sizes, edges) — the determinism witness used by tests: equal seeds must
/// produce equal digests.
uint64_t GraphDigest(const obj::ObjectGraph& graph);

/// Generates the instance graph and loads it through `cluster_mgr`.
class OcbBuilder {
 public:
  /// `buffer` may be null (no residency mirroring; see DbBuilder).
  OcbBuilder(obj::ObjectGraph* graph, cluster::ClusterManager* cluster_mgr,
             buffer::BufferPool* buffer, OcbConfig config);

  /// Builds `config.instances` objects of the schema's classes, wires
  /// references and inheritance links, places every object through the
  /// cluster manager, and returns the catalogue.
  OcbCatalog Build(const OcbSchema& schema, uint64_t seed);

  /// Total object bytes created by the last Build.
  uint64_t bytes_created() const { return bytes_created_; }

 private:
  obj::ObjectGraph* graph_;
  cluster::BuildPlacer placer_;
  OcbConfig config_;
  uint64_t bytes_created_ = 0;
};

}  // namespace oodb::ocb

#endif  // SEMCLUST_OCB_OCB_BUILDER_H_
