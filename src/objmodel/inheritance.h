#ifndef SEMCLUST_OBJMODEL_INHERITANCE_H_
#define SEMCLUST_OBJMODEL_INHERITANCE_H_

#include <cstdint>
#include <vector>

#include "objmodel/object_graph.h"
#include "objmodel/type_system.h"

/// \file
/// Instance-to-instance inheritance (paper §1–2). A descendant version
/// inherits properties, behaviours, and structural relationships from its
/// version ancestor. Inherited attributes are implemented either *by copy*
/// (value duplicated into the heir; larger object, no traversal at read) or
/// *by reference* (heir stores a reference; reads traverse the inheritance
/// link, which becomes a clustering affinity). The choice is made by a cost
/// model, and the resulting reference links change the access frequencies
/// the clustering algorithm sees (paper §2.1).

namespace oodb::obj {

/// Relative costs used by the copy-vs-reference decision.
struct InheritanceCostModel {
  /// Expected cost of dereferencing a by-reference attribute at read time
  /// (it may reside on another page: a potential extra logical I/O).
  double traverse_cost = 1.0;
  /// Amortised cost per byte of duplicated attribute storage.
  double storage_cost_per_byte = 0.004;
  /// Cost per source-value update of refreshing a propagated copy.
  double update_propagation_cost = 2.0;
  /// Size in bytes of a stored reference.
  uint32_t reference_size_bytes = 8;
};

/// How an inherited attribute is implemented in the heir.
enum class ImplChoice : uint8_t { kByCopy = 0, kByReference = 1 };

/// Expected cost of implementing `attr` by copy under `model`.
double CopyCost(const AttributeDef& attr, const InheritanceCostModel& model);

/// Expected cost of implementing `attr` by reference under `model`.
double ReferenceCost(const AttributeDef& attr,
                     const InheritanceCostModel& model);

/// Picks the cheaper implementation (ties go to copy, which never adds
/// run-time traversals).
ImplChoice ChooseImplementation(const AttributeDef& attr,
                                const InheritanceCostModel& model);

/// Storage layout of a derived version of `type`: its size and how its
/// attributes are implemented. It depends only on the type and the cost
/// model, so a builder can know it before deriving.
struct HeirLayout {
  uint32_t size_bytes = 0;
  int attributes_by_copy = 0;
  int attributes_by_reference = 0;

  /// True if derivation links parent -> heir along instance inheritance
  /// (some attribute is implemented by reference).
  bool LinksInstanceInheritance() const {
    return attributes_by_reference > 0;
  }
};

/// Layout of a heir of `type` under `model` (what DeriveVersion creates).
HeirLayout LayoutHeir(const TypeLattice& lattice, TypeId type,
                      const InheritanceCostModel& model);

/// Outcome of deriving a new version.
struct DerivationResult {
  ObjectId heir = kInvalidObject;
  int attributes_by_copy = 0;
  int attributes_by_reference = 0;
  int correspondences_inherited = 0;
};

/// Derives a new version of `parent` in `graph`:
///  * creates `family[parent.version + 1].type`, laid out by LayoutHeir,
///  * links parent -> heir along version history,
///  * adds an instance-inheritance link parent -> heir if some attribute
///    is implemented by reference,
///  * inherits the parent's correspondence relationships by default (the
///    paper's ALU[2].layout / ALU[3].netlist example).
/// `edge_capacity` is passed to ObjectGraph::Create for the heir.
DerivationResult DeriveVersion(ObjectGraph& graph, ObjectId parent,
                               const InheritanceCostModel& model,
                               uint32_t edge_capacity = 0);

/// DeriveVersion with the heir's layout precomputed: `layout` must be
/// LayoutHeir of the parent's type under the model in use. A builder that
/// tabulates the layout per type derives without recomputing it.
DerivationResult DeriveVersion(ObjectGraph& graph, ObjectId parent,
                               const HeirLayout& layout,
                               uint32_t edge_capacity = 0);

}  // namespace oodb::obj

#endif  // SEMCLUST_OBJMODEL_INHERITANCE_H_
