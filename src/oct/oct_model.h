#ifndef SEMCLUST_OCT_OCT_MODEL_H_
#define SEMCLUST_OCT_OCT_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "oct/trace.h"
#include "util/check.h"

/// \file
/// An OCT-like CAD data manager (paper §3.1). OCT supports a fixed set of
/// primitive VLSI object types and arbitrary bidirectional *attachments*
/// between objects; attachments carry the composition hierarchy. There is
/// no structure validation and no inheritance — exactly the subset of
/// object-orientation the paper instruments. Every read/write goes through
/// the trace collector, which is how Section 3's access-pattern figures
/// are produced.

namespace oodb::oct {

/// OCT's primitive object types (paper Figure 3.1 vocabulary).
enum class OctType : uint8_t {
  kFacet = 0,   ///< the basic design unit
  kInstance,
  kNet,
  kTerm,
  kPath,
  kBox,
  kProp,
  kBag,
  kLayer,
};
inline constexpr int kNumOctTypes = 9;

/// Identifier of an OCT object.
using OctId = uint32_t;
inline constexpr OctId kInvalidOct = UINT32_MAX;

/// One OCT object: a type, a payload size, and its attachment lists.
struct OctObject {
  OctType type = OctType::kFacet;
  uint32_t size_bytes = 0;
  bool deleted = false;
  std::vector<OctId> contents;    ///< downward attachments
  std::vector<OctId> containers;  ///< upward attachments (mirror)
};

/// The data manager. All operations are recorded against the collector's
/// current session.
class OctDataManager {
 public:
  /// `trace` may be null (no recording).
  explicit OctDataManager(TraceCollector* trace) : trace_(trace) {}

  OctDataManager(const OctDataManager&) = delete;
  OctDataManager& operator=(const OctDataManager&) = delete;

  /// Creates an object (a *simple write*).
  OctId Create(OctType type, uint32_t size_bytes);

  /// Attaches `child` under `parent` (a *structure write*): creates the
  /// bidirectional link of Figure 3.1.
  void Attach(OctId parent, OctId child);

  /// Removes an attachment (a structure write).
  void Detach(OctId parent, OctId child);

  /// Updates an object in place (a simple write).
  void Modify(OctId id);

  /// Reads one object by id (a *simple read*).
  const OctObject& Get(OctId id);

  /// Navigates downward: the contents of `id`, optionally filtered by
  /// type (a *structure read*; its fan-out is recorded for Figure 3.4).
  std::vector<OctId> Contents(OctId id,
                              std::optional<OctType> filter = std::nullopt);

  /// Navigates upward: the containers of `id` (a structure read).
  std::vector<OctId> Containers(
      OctId id, std::optional<OctType> filter = std::nullopt);

  size_t size() const { return objects_.size(); }
  bool IsLive(OctId id) const {
    return id < objects_.size() && !objects_[id].deleted;
  }

  /// Inspection without trace recording (for tests and analyzers).
  const OctObject& Peek(OctId id) const {
    OODB_CHECK(IsLive(id));
    return objects_[id];
  }

 private:
  TraceCollector* trace_;
  std::vector<OctObject> objects_;
};

}  // namespace oodb::oct

#endif  // SEMCLUST_OCT_OCT_MODEL_H_
