#ifndef SEMCLUST_CLUSTER_AFFINITY_H_
#define SEMCLUST_CLUSTER_AFFINITY_H_

#include <array>
#include <vector>

#include "objmodel/object_graph.h"
#include "objmodel/type_system.h"

/// \file
/// Inter-object access-frequency model. The static prior comes from the
/// type lattice (instances inherit their type's traversal-frequency profile
/// at creation time, paper §2.1); a run-time component learns the actually
/// observed traversal mix per type so the reclustering algorithm adapts as
/// an application's phases change (paper §3.3 observes R/W and access mixes
/// vary across phases of the same tool).
///
/// Threading: an AffinityModel belongs to exactly one simulation cell (one
/// EngineeringDbModel); it is never shared across cells or threads. The
/// type-state table is sized once, in the constructor, from the lattice —
/// every type must therefore be registered before the model is built.

namespace oodb::cluster {

/// Blended static + learned traversal frequencies per (type, kind).
class AffinityModel {
 public:
  /// `learned_share` in [0, 1] is the weight of the learned component once
  /// enough observations accumulate. The per-type state table is built
  /// eagerly here for every type currently in `lattice` (priors included),
  /// so the const accessors below never resize or initialise anything.
  explicit AffinityModel(const obj::TypeLattice* lattice,
                         double learned_share = 0.5);

  /// Records that an application navigated from an instance of `type`
  /// along `kind`. Invalidates the cached weights of `type`.
  void RecordTraversal(obj::TypeId type, obj::RelKind kind);

  /// Affinity weight for navigating from an instance of `type` along
  /// `kind`: the type prior blended with the learned distribution.
  /// Priors are normalised so weights across kinds sum to ~1 per type.
  /// The blend is cached per type between RecordTraversal calls — the hot
  /// path of candidate scoring recomputes nothing.
  double Weight(obj::TypeId type, obj::RelKind kind) const;

  /// Affinity contribution of one structural edge for clustering purposes:
  /// the weight of `edge.kind` as seen from `from`'s type. Instance-
  /// inheritance edges additionally count the dereference traffic of
  /// by-reference attributes.
  double EdgeWeight(const obj::ObjectGraph& graph, obj::ObjectId from,
                    const obj::Edge& edge) const;

  /// EdgeWeight for any edge of `kind` leaving an instance of `type`: the
  /// weight depends on nothing else, so bulk walks can tabulate it once
  /// per (type, kind).
  double KindEdgeWeight(obj::TypeId type, obj::RelKind kind) const;

 private:
  struct TypeState {
    std::array<double, obj::kNumRelKinds> prior{};   // normalised
    std::array<uint64_t, obj::kNumRelKinds> counts{};
    uint64_t total_count = 0;
    /// Blended prior+learned weights, valid while `cache_valid`. Mutable:
    /// the cache is refreshed inside const Weight() on first use after an
    /// invalidation (the model is per-cell, so no synchronisation needed).
    mutable std::array<double, obj::kNumRelKinds> cached_weights{};
    mutable bool cache_valid = false;
  };

  const TypeState& StateFor(obj::TypeId type) const;
  /// Recomputes `cached_weights` for one state.
  void RefreshCache(const TypeState& s) const;

  const obj::TypeLattice* lattice_;
  double learned_share_;
  std::vector<TypeState> states_;  // one per lattice type, fixed size
};

}  // namespace oodb::cluster

#endif  // SEMCLUST_CLUSTER_AFFINITY_H_
