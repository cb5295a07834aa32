#include "objmodel/inheritance.h"

namespace oodb::obj {

double CopyCost(const AttributeDef& attr, const InheritanceCostModel& model) {
  return static_cast<double>(attr.size_bytes) * model.storage_cost_per_byte +
         attr.update_frequency * model.update_propagation_cost;
}

double ReferenceCost(const AttributeDef& attr,
                     const InheritanceCostModel& model) {
  return attr.read_frequency * model.traverse_cost +
         static_cast<double>(model.reference_size_bytes) *
             model.storage_cost_per_byte;
}

ImplChoice ChooseImplementation(const AttributeDef& attr,
                                const InheritanceCostModel& model) {
  return CopyCost(attr, model) <= ReferenceCost(attr, model)
             ? ImplChoice::kByCopy
             : ImplChoice::kByReference;
}

HeirLayout LayoutHeir(const TypeLattice& lattice, TypeId type,
                      const InheritanceCostModel& model) {
  HeirLayout layout;
  layout.size_bytes = lattice.info(type).base_size_bytes;
  for (const AttributeDef& attr : lattice.ResolveAttributes(type)) {
    if (attr.instance_inheritable &&
        ChooseImplementation(attr, model) == ImplChoice::kByReference) {
      layout.size_bytes += model.reference_size_bytes;
      ++layout.attributes_by_reference;
    } else {
      layout.size_bytes += attr.size_bytes;
      ++layout.attributes_by_copy;
    }
  }
  if (layout.size_bytes == 0) layout.size_bytes = lattice.InstanceSize(type);
  return layout;
}

DerivationResult DeriveVersion(ObjectGraph& graph, ObjectId parent,
                               const InheritanceCostModel& model,
                               uint32_t edge_capacity) {
  OODB_CHECK(graph.IsLive(parent));
  return DeriveVersion(
      graph, parent,
      LayoutHeir(graph.lattice(), graph.object(parent).type, model),
      edge_capacity);
}

DerivationResult DeriveVersion(ObjectGraph& graph, ObjectId parent,
                               const HeirLayout& layout,
                               uint32_t edge_capacity) {
  OODB_CHECK(graph.IsLive(parent));
  // Copy the fields we need: Create() below may reallocate object storage.
  const FamilyId family = graph.object(parent).family;
  const uint16_t parent_version = graph.object(parent).version;
  const TypeId type = graph.object(parent).type;

  DerivationResult result;
  result.attributes_by_copy = layout.attributes_by_copy;
  result.attributes_by_reference = layout.attributes_by_reference;

  const ObjectId heir =
      graph.Create(family, static_cast<uint16_t>(parent_version + 1), type,
                   layout.size_bytes, edge_capacity);
  graph.Relate(parent, heir, RelKind::kVersionHistory);
  if (layout.LinksInstanceInheritance()) {
    graph.Relate(parent, heir, RelKind::kInstanceInheritance);
  }

  // Default inheritance of correspondence relationships: the heir
  // corresponds to everything its parent corresponded to, in the order of
  // the parent's edges. Relate(heir, other) touches only the heir's and
  // the other object's runs, so the parent's run keeps its length and
  // order while the loop walks it by index; the view is fetched again at
  // each step because a relocating run may reallocate the arenas.
  for (size_t i = 0; i < graph.EdgeCount(parent); ++i) {
    const Edge e = graph.edges(parent)[i];
    if (e.kind != RelKind::kCorrespondence || e.dir != Direction::kDown) {
      continue;
    }
    graph.Relate(heir, e.target, RelKind::kCorrespondence);
    ++result.correspondences_inherited;
  }

  result.heir = heir;
  return result;
}

}  // namespace oodb::obj
