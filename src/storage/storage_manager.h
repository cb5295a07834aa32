#ifndef SEMCLUST_STORAGE_STORAGE_MANAGER_H_
#define SEMCLUST_STORAGE_STORAGE_MANAGER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "objmodel/object_id.h"
#include "storage/page.h"
#include "util/status.h"

/// \file
/// The storage component: maps design objects onto pages, supports
/// clustering-driven placement and relocation, and maintains the
/// object -> page directory. Placement policy lives in the cluster manager;
/// this class only executes placements.

namespace oodb::store {

/// `count` consecutive objects that one run append placed on `page`.
struct PageRun {
  PageId page = kInvalidPage;
  uint32_t count = 0;

  friend bool operator==(const PageRun&, const PageRun&) = default;
};

/// Placement, relocation, and page bookkeeping for the whole database.
class StorageManager {
 public:
  /// `page_size_bytes` is the usable capacity per page (Table 4.1: 4 KB).
  /// `append_fill_fraction` in (0, 1] caps how full arrival-order appends
  /// make a page before a fresh one is opened; the reserve is usable by
  /// directed placements (clustering), the standard fill-factor headroom
  /// that lets later relatives join a page.
  explicit StorageManager(uint32_t page_size_bytes,
                          double append_fill_fraction = 1.0);

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  /// Sizes the object directory once for ids below `objects`, so placing
  /// them never reallocates it.
  void ReserveObjects(size_t objects);

  /// Allocates a fresh empty page. Its slot directory is sized once for
  /// the records a full page of mean-sized placed objects holds.
  PageId AllocatePage();

  /// Places an unplaced object on `page`. Fails with kResourceExhausted if
  /// the object doesn't fit, kAlreadyExists if the object is already
  /// placed, kInvalidArgument if the object can never fit on any page.
  Status Place(obj::ObjectId id, uint32_t size_bytes, PageId page);

  /// Places an unplaced object on the current append page, allocating a new
  /// page when full. This is the non-clustered "arrival order" placement.
  /// Returns the page used.
  StatusOr<PageId> PlaceAppend(obj::ObjectId id, uint32_t size_bytes);

  /// Places the unplaced objects first, first + 1, ..., object first + i
  /// of `sizes[i]` bytes, in sequence by PlaceAppend's rule, in one pass.
  /// Ends in the state of sizes.size() PlaceAppend calls, except that each
  /// page the run opens and leaves is created with exactly its slot count.
  /// Appends one run per page the objects landed on, in order, to `runs`.
  /// Every size must fit a page.
  void PlaceAppendRun(obj::ObjectId first, std::span<const uint32_t> sizes,
                      std::vector<PageRun>& runs);

  /// Moves a placed object to `to`. Fails with kResourceExhausted if it
  /// doesn't fit.
  Status Relocate(obj::ObjectId id, PageId to);

  /// Moves `objects` (distinct and placed) onto fresh pages appended to
  /// the directory: new page k receives objects[page_start[k]] up to
  /// objects[page_start[k + 1]] in sequence, its slot list sized exactly.
  /// Ends in the same state as AllocatePage plus Relocate of each object
  /// in sequence, except that a source page that every record leaves is
  /// emptied in one step, its slot storage freed (Page::Clear). Every new
  /// page must fit its objects. Returns the number of source pages the
  /// objects left.
  size_t RelocateToNewPages(const std::vector<obj::ObjectId>& objects,
                          const std::vector<size_t>& page_start);

  /// Removes a placed object from its page.
  Status Erase(obj::ObjectId id);

  /// Page holding `id`, or kInvalidPage if unplaced.
  PageId PageOf(obj::ObjectId id) const {
    if (id >= object_page_.size()) return kInvalidPage;
    return object_page_[id];
  }

  /// True if the object currently resides on some page.
  bool IsPlaced(obj::ObjectId id) const {
    return PageOf(id) != kInvalidPage;
  }

  const Page& page(PageId id) const {
    OODB_CHECK_LT(id, pages_.size());
    return pages_[id];
  }

  size_t page_count() const { return pages_.size(); }
  uint32_t page_size_bytes() const { return page_size_; }
  PageId append_page() const { return append_page_; }

  /// Ids the object directory holds before it reallocates.
  size_t directory_capacity() const { return object_page_.capacity(); }

  /// Total bytes stored across all pages.
  uint64_t used_bytes() const { return used_bytes_; }

  /// Recorded size of a placed object (as known to storage).
  uint32_t SizeOf(obj::ObjectId id) const {
    OODB_CHECK_NE(PageOf(id), kInvalidPage);
    return object_size_[id];
  }

 private:
  void EnsureDirectory(obj::ObjectId id);

  /// True if appending `size_bytes` to an append page holding `used_bytes`
  /// opens a fresh page: past the fill limit (an object larger than the
  /// limit bypasses the reserve), or past the page.
  bool AppendOpensPage(uint32_t used_bytes, uint32_t size_bytes) const {
    const bool over_fill_limit = used_bytes + size_bytes > append_fill_limit_ &&
                                 size_bytes <= append_fill_limit_;
    return over_fill_limit || used_bytes + size_bytes > page_size_;
  }

  uint32_t page_size_;
  uint32_t append_fill_limit_;
  std::vector<Page> pages_;
  // Parallel ObjectId-indexed directories, reserved together and grown
  // together.
  // The size column makes SizeOf O(1): the placement auditor asks for every
  // placed object's size once per sample, and the former page-slot scan was
  // the single hottest line of the whole simulation profile.
  std::vector<PageId> object_page_;
  std::vector<uint32_t> object_size_;
  PageId append_page_ = kInvalidPage;
  uint64_t used_bytes_ = 0;
  uint64_t placed_objects_ = 0;
};

}  // namespace oodb::store

#endif  // SEMCLUST_STORAGE_STORAGE_MANAGER_H_
