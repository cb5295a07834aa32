#ifndef SEMCLUST_STORAGE_PAGE_H_
#define SEMCLUST_STORAGE_PAGE_H_

#include <cstdint>
#include <vector>

#include "objmodel/object_id.h"
#include "util/check.h"

/// \file
/// A disk page holding design-object records. The simulation models object
/// *placement* (which object lives on which page and how full pages are),
/// not payload bytes, so a page is a slot directory with byte accounting.

namespace oodb::store {

/// Dense page identifier.
using PageId = uint32_t;
inline constexpr PageId kInvalidPage = UINT32_MAX;

/// One object record resident on a page.
struct Slot {
  obj::ObjectId object = obj::kInvalidObject;
  uint32_t size_bytes = 0;
};

/// A fixed-capacity slotted page.
class Page {
 public:
  /// Creates an empty page with `capacity_bytes` of usable space and room
  /// for `reserve_slots` records before the slot directory reallocates.
  explicit Page(uint32_t capacity_bytes, size_t reserve_slots = 0)
      : capacity_(capacity_bytes) {
    OODB_CHECK_GT(capacity_bytes, 0u);
    slots_.reserve(reserve_slots);
  }

  /// True if an object of `size_bytes` fits.
  bool Fits(uint32_t size_bytes) const {
    return used_ + size_bytes <= capacity_;
  }

  /// Adds a record. Returns false (without modification) if it doesn't fit.
  bool Insert(obj::ObjectId id, uint32_t size_bytes) {
    OODB_CHECK_GT(size_bytes, 0u);
    if (!Fits(size_bytes)) return false;
    slots_.push_back(Slot{id, size_bytes});
    used_ += size_bytes;
    return true;
  }

  /// Removes the record for `id`. Returns false if not present.
  bool Remove(obj::ObjectId id);

  /// Drops every record and frees the slot directory: a page that every
  /// record left keeps no slot storage.
  void Clear() {
    std::vector<Slot>().swap(slots_);
    used_ = 0;
  }

  uint32_t capacity_bytes() const { return capacity_; }
  uint32_t used_bytes() const { return used_; }
  uint32_t free_bytes() const { return capacity_ - used_; }
  size_t object_count() const { return slots_.size(); }
  /// Records the slot directory holds before it reallocates.
  size_t slot_capacity() const { return slots_.capacity(); }
  const std::vector<Slot>& slots() const { return slots_; }

 private:
  uint32_t capacity_;
  uint32_t used_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace oodb::store

#endif  // SEMCLUST_STORAGE_PAGE_H_
