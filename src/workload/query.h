#ifndef SEMCLUST_WORKLOAD_QUERY_H_
#define SEMCLUST_WORKLOAD_QUERY_H_

#include <cstdint>
#include <vector>

#include "objmodel/object_id.h"

/// \file
/// The seven engineering-design query types (paper §4.1) plus the four
/// read operations of the OCB generic object benchmark (Darmont et al.).
/// Every object read or write operation is a transaction; checkin/checkout
/// are composites of these primitives.

namespace oodb::workload {

/// Query types assigned to transactions in the workload-definition phase.
/// Types 0-6 are the paper's engineering-design set; types 7-10 are the
/// OCB operation set (src/ocb/), appended so the indices of the original
/// seven — and every statistic keyed on them — are unchanged.
enum class QueryType : uint8_t {
  kSimpleLookup = 0,        ///< (1) simple object lookup by name
  kComponentRetrieval = 1,  ///< (2) retrieve the components of an object
  kCompositeRetrieval = 2,  ///< (3) retrieve a composite object (deep)
  kDescendantVersions = 3,  ///< (4) descendant-version retrieval
  kAncestorVersions = 4,    ///< (5) ancestor-version retrieval
  kCorresponding = 5,       ///< (6) corresponding-objects retrieval
  kObjectWrite = 6,         ///< (7) object insertion / deletion / update
  kOcbSetLookup = 7,        ///< OCB: set-oriented lookup over one class
  kOcbSimpleTraversal = 8,  ///< OCB: depth-first reference traversal
  kOcbHierarchyTraversal = 9,   ///< OCB: traversal along inheritance edges
  kOcbStochasticTraversal = 10, ///< OCB: random walk with backtracking
};
inline constexpr int kNumQueryTypes = 11;

const char* QueryTypeName(QueryType q);

/// True for the six read query types.
inline bool IsReadQuery(QueryType q) { return q != QueryType::kObjectWrite; }

/// The flavours of a write transaction.
enum class WriteKind : uint8_t {
  kSimpleUpdate = 0,   ///< update attributes of an existing object
  kStructureWrite = 1, ///< create an attachment (structural link)
  kInsertObject = 2,   ///< create a new object (component or version)
  kDeriveVersion = 3,  ///< checkin-style version derivation
  kDeleteObject = 4,   ///< remove an object
  /// Structural churn (OCB churn phase only): delete the target outright,
  /// even mid-structure — the graph detaches its relationship mirrors and
  /// its page space is reclaimed. Never mix-sampled, so it sits outside
  /// kNumWriteKinds and the write-mix arrays are unchanged.
  kChurnDelete = 5,
};
/// Mix-sampled kinds only (the write_mix array length); kChurnDelete is
/// emitted directly by the OCB churn state machine.
inline constexpr int kNumWriteKinds = 5;

/// One transaction as handed to the execution model.
struct TransactionSpec {
  QueryType type = QueryType::kSimpleLookup;
  WriteKind write_kind = WriteKind::kSimpleUpdate;  // when type is a write
  obj::ObjectId target = obj::kInvalidObject;
  /// Secondary object for structure writes (the other attachment end).
  obj::ObjectId other = obj::kInvalidObject;
  /// Index of the design module the session operates on.
  size_t module = 0;
  /// Additional targets beyond `target` (OCB set-oriented lookup); empty
  /// for the engineering-design query types.
  std::vector<obj::ObjectId> targets;
  /// Traversal depth bound for the OCB traversal types (0 = just the
  /// target object).
  int depth = 0;
};

}  // namespace oodb::workload

#endif  // SEMCLUST_WORKLOAD_QUERY_H_
