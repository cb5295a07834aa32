#ifndef SEMCLUST_OBJMODEL_TYPE_SYSTEM_H_
#define SEMCLUST_OBJMODEL_TYPE_SYSTEM_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "objmodel/object_id.h"

/// \file
/// The type lattice. Types define attributes (propagated to subtypes through
/// type inheritance) and a *traversal-frequency profile*: the expected
/// relative frequency with which instances of the type are navigated along
/// each structural relationship kind. The profile is the type-level
/// knowledge that newly created instances inherit and the clustering
/// algorithm consumes (paper §2.1: "The interobject access frequencies are
/// inherited from the type at object creation time").

namespace oodb::obj {

/// Per-relationship-kind relative traversal frequencies. Values are
/// non-negative weights; only ratios matter.
using TraversalProfile = std::array<double, kNumRelKinds>;

/// A uniform profile (all kinds equally likely).
TraversalProfile UniformProfile();

/// An attribute defined by a type.
struct AttributeDef {
  std::string name;
  uint32_t size_bytes = 0;
  /// True if descendant versions may inherit this attribute's value from
  /// their version ancestor (instance-to-instance inheritance).
  bool instance_inheritable = false;
  /// Expected reads of this attribute per access of the owning object.
  double read_frequency = 0.0;
  /// Expected updates of the source value per access (drives the
  /// copy-vs-reference decision: copies must be refreshed on update).
  double update_frequency = 0.0;
};

/// Metadata of one representation type.
struct TypeInfo {
  std::string name;
  TypeId supertype = kInvalidType;
  /// Fixed part of an instance, excluding attribute storage.
  uint32_t base_size_bytes = 0;
  /// Attributes defined locally (not including inherited ones).
  std::vector<AttributeDef> attributes;
  /// Traversal-frequency profile declared for this type.
  TraversalProfile traversal;
};

/// The type lattice: a forest of types with attribute and profile
/// inheritance along supertype chains.
class TypeLattice {
 public:
  /// Defines a new type. `supertype` may be kInvalidType for a root type.
  /// Returns the new TypeId.
  TypeId DefineType(std::string name, TypeId supertype,
                    uint32_t base_size_bytes, TraversalProfile traversal,
                    std::vector<AttributeDef> attributes = {});

  const TypeInfo& info(TypeId id) const;
  size_t size() const { return types_.size(); }

  /// All attributes visible on instances of `type`: local attributes plus
  /// those inherited from supertypes. A local attribute with the same name
  /// as an inherited one overrides it (nearest definition wins). The
  /// returned reference stays valid for the lattice's lifetime (resolution
  /// is memoized per type; supertype chains are immutable once defined).
  const std::vector<AttributeDef>& ResolveAttributes(TypeId type) const;

  /// Instance size if every attribute is stored by copy: base size plus the
  /// sizes of all resolved attributes (including inherited definitions —
  /// type inheritance propagates the *definition*; storage is per
  /// instance).
  uint32_t InstanceSize(TypeId type) const;

  /// Effective traversal profile for `type`: its own profile, falling back
  /// to the nearest supertype that declared a non-zero profile.
  TraversalProfile EffectiveTraversal(TypeId type) const;

 private:
  std::vector<TypeInfo> types_;

  // Memoized ResolveAttributes results, one slot per type, filled lazily.
  // Safe to cache forever: DefineType only appends, and a type's supertype
  // chain (hence its resolution) is fixed at definition time. Version
  // derivation resolves the attribute list on every DeriveVersion call, so
  // the repeated chain walk showed up in the database-build profile.
  mutable std::vector<std::vector<AttributeDef>> resolved_cache_;
  mutable std::vector<uint8_t> resolved_valid_;
};

}  // namespace oodb::obj

#endif  // SEMCLUST_OBJMODEL_TYPE_SYSTEM_H_
