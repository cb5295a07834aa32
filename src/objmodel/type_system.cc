#include "objmodel/type_system.h"

#include <algorithm>

#include "util/check.h"

namespace oodb::obj {

TraversalProfile UniformProfile() { return {1.0, 1.0, 1.0, 1.0}; }

TypeId TypeLattice::DefineType(std::string name, TypeId supertype,
                               uint32_t base_size_bytes,
                               TraversalProfile traversal,
                               std::vector<AttributeDef> attributes) {
  if (supertype != kInvalidType) {
    OODB_CHECK_LT(supertype, types_.size());
  }
  TypeInfo info;
  info.name = std::move(name);
  info.supertype = supertype;
  info.base_size_bytes = base_size_bytes;
  info.traversal = traversal;
  info.attributes = std::move(attributes);
  types_.push_back(std::move(info));
  return static_cast<TypeId>(types_.size() - 1);
}

const TypeInfo& TypeLattice::info(TypeId id) const {
  OODB_CHECK_LT(id, types_.size());
  return types_[id];
}

const std::vector<AttributeDef>& TypeLattice::ResolveAttributes(
    TypeId type) const {
  OODB_CHECK_LT(type, types_.size());
  if (resolved_valid_.size() < types_.size()) {
    resolved_valid_.resize(types_.size(), 0);
    resolved_cache_.resize(types_.size());
  }
  if (resolved_valid_[type]) return resolved_cache_[type];

  // Collect the supertype chain root-first so nearer definitions override.
  std::vector<TypeId> chain;
  for (TypeId t = type; t != kInvalidType; t = types_[t].supertype) {
    chain.push_back(t);
  }
  std::reverse(chain.begin(), chain.end());

  std::vector<AttributeDef> resolved;
  for (TypeId t : chain) {
    for (const AttributeDef& attr : types_[t].attributes) {
      auto it = std::find_if(
          resolved.begin(), resolved.end(),
          [&](const AttributeDef& r) { return r.name == attr.name; });
      if (it != resolved.end()) {
        *it = attr;  // override inherited definition
      } else {
        resolved.push_back(attr);
      }
    }
  }
  resolved_cache_[type] = std::move(resolved);
  resolved_valid_[type] = 1;
  return resolved_cache_[type];
}

uint32_t TypeLattice::InstanceSize(TypeId type) const {
  uint32_t size = info(type).base_size_bytes;
  for (const AttributeDef& attr : ResolveAttributes(type)) {
    size += attr.size_bytes;
  }
  return size;
}

TraversalProfile TypeLattice::EffectiveTraversal(TypeId type) const {
  OODB_CHECK_LT(type, types_.size());
  for (TypeId t = type; t != kInvalidType; t = types_[t].supertype) {
    const TraversalProfile& p = types_[t].traversal;
    const bool nonzero =
        std::any_of(p.begin(), p.end(), [](double w) { return w > 0; });
    if (nonzero) return p;
  }
  return UniformProfile();
}

}  // namespace oodb::obj
