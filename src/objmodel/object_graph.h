#ifndef SEMCLUST_OBJMODEL_OBJECT_GRAPH_H_
#define SEMCLUST_OBJMODEL_OBJECT_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "objmodel/object_id.h"
#include "objmodel/type_system.h"
#include "util/status.h"

/// \file
/// The design-object graph: typed, versioned objects interrelated by the
/// structural relationships of the Version Data Model. Relationships are
/// first-class: the storage and buffering layers navigate them directly,
/// which is exactly the semantics the paper exploits.
///
/// Edges are stored struct-of-arrays in two shared arenas (targets and
/// packed kind+direction bytes) with one {offset, count, capacity} run per
/// object, so affinity scans and neighbour walks touch contiguous memory
/// instead of chasing one heap-allocated std::vector<Edge> per object
/// (DESIGN.md §12). Append and swap-with-last removal reproduce the edge
/// order of the former per-object vectors exactly, which keeps every
/// downstream iteration — and therefore simulation output — bit-identical.

namespace oodb::obj {

/// One directed structural link incident to an object (materialised view;
/// storage is columnar).
struct Edge {
  ObjectId target = kInvalidObject;
  RelKind kind = RelKind::kConfiguration;
  Direction dir = Direction::kDown;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// A design object instance. Edge storage lives in the owning graph's
/// arenas; see ObjectGraph::edges().
struct DesignObject {
  FamilyId family = kInvalidFamily;
  uint16_t version = 0;
  TypeId type = kInvalidType;
  /// Storage footprint in bytes (base + attribute storage as chosen by the
  /// inheritance engine).
  uint32_t size_bytes = 0;
  bool deleted = false;
};

/// Owns all design objects and their structural links.
///
/// Correspondence is symmetric: Relate(a, b, kCorrespondence) makes each
/// object a kDown-neighbour of the other. The other kinds are directed:
/// configuration points composite->component, version history points
/// ancestor->descendant, instance inheritance points source->heir.
class ObjectGraph {
 public:
  /// Lightweight random-access view of one object's edges, yielding Edge
  /// by value from the columnar arenas. Invalidated by any edge mutation
  /// on the graph (like the former per-object vector, whose iterators a
  /// reallocation invalidated).
  class EdgeView {
   public:
    class Iterator {
     public:
      using value_type = Edge;
      using difference_type = ptrdiff_t;

      Iterator(const ObjectId* target, const uint8_t* meta)
          : target_(target), meta_(meta) {}
      Edge operator*() const {
        return Edge{*target_, static_cast<RelKind>(*meta_ & 0x3),
                    static_cast<Direction>(*meta_ >> 2)};
      }
      Iterator& operator++() {
        ++target_;
        ++meta_;
        return *this;
      }
      friend bool operator==(const Iterator&, const Iterator&) = default;

     private:
      const ObjectId* target_;
      const uint8_t* meta_;
    };

    EdgeView(const ObjectId* target, const uint8_t* meta, size_t count)
        : target_(target), meta_(meta), count_(count) {}

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    Edge operator[](size_t i) const {
      OODB_CHECK_LT(i, count_);
      return Edge{target_[i], static_cast<RelKind>(meta_[i] & 0x3),
                  static_cast<Direction>(meta_[i] >> 2)};
    }
    Iterator begin() const { return Iterator(target_, meta_); }
    Iterator end() const { return Iterator(target_ + count_, meta_ + count_); }

   private:
    const ObjectId* target_;
    const uint8_t* meta_;
    size_t count_;
  };

  explicit ObjectGraph(const TypeLattice* lattice) : lattice_(lattice) {}

  ObjectGraph(const ObjectGraph&) = delete;
  ObjectGraph& operator=(const ObjectGraph&) = delete;

  /// Registers an object-name family and returns its id.
  FamilyId NewFamily(std::string name);

  /// Sizes the columns once for `objects` more objects, `edge_slots` more
  /// edge slots and `families` more families, so a build that stays
  /// within all three never reallocates them; one that outgrows any grows
  /// it geometrically.
  void Reserve(size_t objects, size_t edge_slots, size_t families);

  /// Creates an object `family[version].type` of the given size. A
  /// builder that knows the object's final degree passes it as
  /// `edge_capacity`: the run is carved at the arena tail with exactly that
  /// room, so the object's edges never relocate while it stays within it.
  ObjectId Create(FamilyId family, uint16_t version, TypeId type,
                  uint32_t size_bytes, uint32_t edge_capacity = 0);

  /// Adds a structural relationship. Both endpoints must be live.
  void Relate(ObjectId from, ObjectId to, RelKind kind);

  /// Marks the object deleted and detaches all of its links.
  void Remove(ObjectId id);

  /// Number of objects ever created (including deleted ones).
  size_t size() const { return objects_.size(); }
  /// Number of live objects.
  size_t live_count() const { return live_count_; }

  const DesignObject& object(ObjectId id) const {
    OODB_CHECK_LT(id, objects_.size());
    return objects_[id];
  }
  bool IsLive(ObjectId id) const {
    return id < objects_.size() && !objects_[id].deleted;
  }

  /// The object's edges, in insertion order (modulo swap-with-last
  /// removal). The view dangles across edge mutations.
  EdgeView edges(ObjectId id) const {
    OODB_CHECK_LT(id, runs_.size());
    const EdgeRun& r = runs_[id];
    return EdgeView(edge_target_.data() + r.offset,
                    edge_meta_.data() + r.offset, r.count);
  }

  /// Number of edges incident to `id` (any kind/direction).
  size_t EdgeCount(ObjectId id) const {
    OODB_CHECK_LT(id, runs_.size());
    return runs_[id].count;
  }

  /// Edges `id` can hold before its run relocates.
  size_t EdgeCapacity(ObjectId id) const {
    OODB_CHECK_LT(id, runs_.size());
    return runs_[id].capacity;
  }

  /// Objects the object columns hold before they reallocate.
  size_t object_capacity() const { return objects_.capacity(); }
  /// Edge slots the edge arenas hold before they reallocate.
  size_t edge_slot_capacity() const { return edge_target_.capacity(); }

  /// External name triple, e.g. "ALU[2].layout".
  VersionedName NameOf(ObjectId id) const;

  /// Calls `fn(ObjectId)` for each `kind`/`dir` neighbour.
  template <typename Fn>
  void ForEachNeighbor(ObjectId id, RelKind kind, Direction dir,
                       Fn&& fn) const {
    OODB_CHECK_LT(id, runs_.size());
    const EdgeRun r = runs_[id];
    const uint8_t want = PackMeta(kind, dir);
    const uint8_t* meta = edge_meta_.data() + r.offset;
    const ObjectId* target = edge_target_.data() + r.offset;
    for (uint32_t i = 0; i < r.count; ++i) {
      if (meta[i] == want) fn(target[i]);
    }
  }

  /// True if `id` has at least one `kind`/`dir` neighbour. Allocation-free
  /// replacement for `Neighbors(...).empty()`.
  bool HasNeighbor(ObjectId id, RelKind kind, Direction dir) const {
    OODB_CHECK_LT(id, runs_.size());
    const EdgeRun r = runs_[id];
    const uint8_t want = PackMeta(kind, dir);
    const uint8_t* meta = edge_meta_.data() + r.offset;
    for (uint32_t i = 0; i < r.count; ++i) {
      if (meta[i] == want) return true;
    }
    return false;
  }

  /// Collected neighbour list (allocates; prefer ForEachNeighbor in hot
  /// paths).
  std::vector<ObjectId> Neighbors(ObjectId id, RelKind kind,
                                  Direction dir) const;

  /// Calls `fn(ObjectId)` for every structurally related object regardless
  /// of kind or direction.
  template <typename Fn>
  void ForEachRelated(ObjectId id, Fn&& fn) const {
    OODB_CHECK_LT(id, runs_.size());
    const EdgeRun r = runs_[id];
    const ObjectId* target = edge_target_.data() + r.offset;
    for (uint32_t i = 0; i < r.count; ++i) fn(target[i]);
  }

  // Navigation shorthands mirroring the paper's vocabulary.
  std::vector<ObjectId> Components(ObjectId id) const {
    return Neighbors(id, RelKind::kConfiguration, Direction::kDown);
  }
  std::vector<ObjectId> Composites(ObjectId id) const {
    return Neighbors(id, RelKind::kConfiguration, Direction::kUp);
  }
  std::vector<ObjectId> Descendants(ObjectId id) const {
    return Neighbors(id, RelKind::kVersionHistory, Direction::kDown);
  }
  std::vector<ObjectId> Ancestors(ObjectId id) const {
    return Neighbors(id, RelKind::kVersionHistory, Direction::kUp);
  }
  std::vector<ObjectId> Correspondents(ObjectId id) const {
    return Neighbors(id, RelKind::kCorrespondence, Direction::kDown);
  }
  std::vector<ObjectId> InheritanceHeirs(ObjectId id) const {
    return Neighbors(id, RelKind::kInstanceInheritance, Direction::kDown);
  }
  std::vector<ObjectId> InheritanceSources(ObjectId id) const {
    return Neighbors(id, RelKind::kInstanceInheritance, Direction::kUp);
  }

  const TypeLattice& lattice() const { return *lattice_; }
  const std::string& family_name(FamilyId id) const {
    OODB_CHECK_LT(id, family_names_.size());
    return family_names_[id];
  }
  size_t family_count() const { return family_names_.size(); }

 private:
  /// One object's slice of the edge arenas.
  struct EdgeRun {
    uint32_t offset = 0;
    uint32_t count = 0;
    uint32_t capacity = 0;
  };

  static uint8_t PackMeta(RelKind kind, Direction dir) {
    return static_cast<uint8_t>(static_cast<uint8_t>(kind) |
                                (static_cast<uint8_t>(dir) << 2));
  }

  void AddEdge(ObjectId obj, ObjectId target, RelKind kind, Direction dir);
  /// Doubles a full run's capacity, relocating it to the arena tail.
  void GrowRun(EdgeRun& r);
  void RemoveEdge(ObjectId obj, ObjectId target, RelKind kind,
                  Direction dir);

  const TypeLattice* lattice_;
  std::vector<DesignObject> objects_;
  /// Columnar edge storage: runs_[id] slices the parallel arenas. A run
  /// created with an edge capacity starts at the arena tail; a run that
  /// fills up grows by doubling, relocating to the arena tail, and its
  /// abandoned slices are bounded by the usual geometric-growth constant
  /// factor.
  std::vector<EdgeRun> runs_;
  std::vector<ObjectId> edge_target_;
  std::vector<uint8_t> edge_meta_;
  std::vector<std::string> family_names_;
  size_t live_count_ = 0;
};

}  // namespace oodb::obj

#endif  // SEMCLUST_OBJMODEL_OBJECT_GRAPH_H_
