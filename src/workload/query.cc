#include "workload/query.h"

namespace oodb::workload {

const char* QueryTypeName(QueryType q) {
  switch (q) {
    case QueryType::kSimpleLookup:
      return "simple-lookup";
    case QueryType::kComponentRetrieval:
      return "component-retrieval";
    case QueryType::kCompositeRetrieval:
      return "composite-retrieval";
    case QueryType::kDescendantVersions:
      return "descendant-versions";
    case QueryType::kAncestorVersions:
      return "ancestor-versions";
    case QueryType::kCorresponding:
      return "corresponding-objects";
    case QueryType::kObjectWrite:
      return "object-write";
    case QueryType::kOcbSetLookup:
      return "ocb-set-lookup";
    case QueryType::kOcbSimpleTraversal:
      return "ocb-simple-traversal";
    case QueryType::kOcbHierarchyTraversal:
      return "ocb-hierarchy-traversal";
    case QueryType::kOcbStochasticTraversal:
      return "ocb-stochastic-traversal";
  }
  return "unknown";
}

}  // namespace oodb::workload
