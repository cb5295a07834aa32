#include "storage/storage_manager.h"

#include <algorithm>

namespace oodb::store {

StorageManager::StorageManager(uint32_t page_size_bytes,
                               double append_fill_fraction)
    : page_size_(page_size_bytes) {
  OODB_CHECK_GT(page_size_bytes, 0u);
  OODB_CHECK_GT(append_fill_fraction, 0.0);
  OODB_CHECK_LE(append_fill_fraction, 1.0);
  append_fill_limit_ = static_cast<uint32_t>(
      append_fill_fraction * static_cast<double>(page_size_bytes));
}

PageId StorageManager::AllocatePage() {
  // Pages opened for clustered placements and splits fill from many
  // placements, one record at a time; sizing the directory from the mean
  // placed object replaces its growth by doubling with one allocation.
  const uint64_t reserve_slots =
      used_bytes_ == 0 ? 0
                       : (uint64_t{page_size_} * placed_objects_ +
                          used_bytes_ - 1) /
                             used_bytes_;
  pages_.emplace_back(page_size_, static_cast<size_t>(reserve_slots));
  return static_cast<PageId>(pages_.size() - 1);
}

void StorageManager::ReserveObjects(size_t objects) {
  object_page_.reserve(objects);
  object_size_.reserve(objects);
}

void StorageManager::EnsureDirectory(obj::ObjectId id) {
  if (id >= object_page_.size()) {
    // Filled only up to `id`: within the reservation this never
    // reallocates, and past it the vectors' own growth is geometric.
    object_page_.resize(static_cast<size_t>(id) + 1, kInvalidPage);
    object_size_.resize(static_cast<size_t>(id) + 1, 0);
  }
}

Status StorageManager::Place(obj::ObjectId id, uint32_t size_bytes,
                             PageId page) {
  OODB_CHECK_LT(page, pages_.size());
  if (size_bytes > page_size_) {
    return Status::InvalidArgument("object larger than a page");
  }
  EnsureDirectory(id);
  if (object_page_[id] != kInvalidPage) {
    return Status::AlreadyExists("object already placed");
  }
  if (!pages_[page].Insert(id, size_bytes)) {
    return Status::ResourceExhausted("page full");
  }
  object_page_[id] = page;
  object_size_[id] = size_bytes;
  used_bytes_ += size_bytes;
  ++placed_objects_;
  return Status::Ok();
}

StatusOr<PageId> StorageManager::PlaceAppend(obj::ObjectId id,
                                             uint32_t size_bytes) {
  if (size_bytes > page_size_) {
    return Status::InvalidArgument("object larger than a page");
  }
  if (append_page_ == kInvalidPage ||
      AppendOpensPage(pages_[append_page_].used_bytes(), size_bytes)) {
    // Arrival-order pages fill to about the same record count, so the new
    // page's slot directory is sized to the count the previous one closed
    // with instead of growing by doubling.
    const size_t reserve_slots = append_page_ == kInvalidPage
                                     ? 0
                                     : pages_[append_page_].object_count();
    pages_.emplace_back(page_size_, reserve_slots);
    append_page_ = static_cast<PageId>(pages_.size() - 1);
  }
  OODB_RETURN_IF_ERROR(Place(id, size_bytes, append_page_));
  return append_page_;
}

void StorageManager::PlaceAppendRun(obj::ObjectId first,
                                    std::span<const uint32_t> sizes,
                                    std::vector<PageRun>& runs) {
  const size_t n = sizes.size();
  if (n == 0) return;
  EnsureDirectory(static_cast<obj::ObjectId>(first + n - 1));
  size_t i = 0;
  while (i < n) {
    // Objects i..j-1 share one page: the append page, or a fresh one if
    // object i opens it.
    const bool opens = append_page_ == kInvalidPage ||
                       AppendOpensPage(pages_[append_page_].used_bytes(),
                                       sizes[i]);
    uint32_t used = opens ? 0 : pages_[append_page_].used_bytes();
    size_t j = i;
    do {
      OODB_CHECK_LE(sizes[j], page_size_);
      used += sizes[j];
      ++j;
    } while (j < n && !AppendOpensPage(used, sizes[j]));
    if (opens) {
      // A page the run leaves gets exactly its records; the page it ends
      // on keeps PlaceAppend's hint, the count the previous page closed
      // with, if that is larger.
      size_t reserve_slots = j - i;
      if (j == n && append_page_ != kInvalidPage) {
        reserve_slots =
            std::max(reserve_slots, pages_[append_page_].object_count());
      }
      pages_.emplace_back(page_size_, reserve_slots);
      append_page_ = static_cast<PageId>(pages_.size() - 1);
    }
    Page& page = pages_[append_page_];
    for (size_t k = i; k < j; ++k) {
      const auto id = static_cast<obj::ObjectId>(first + k);
      OODB_CHECK_EQ(object_page_[id], kInvalidPage);
      OODB_CHECK(page.Insert(id, sizes[k]));
      object_page_[id] = append_page_;
      object_size_[id] = sizes[k];
      used_bytes_ += sizes[k];
    }
    placed_objects_ += j - i;
    runs.push_back(PageRun{append_page_, static_cast<uint32_t>(j - i)});
    i = j;
  }
}

Status StorageManager::Relocate(obj::ObjectId id, PageId to) {
  OODB_CHECK_LT(to, pages_.size());
  const PageId from = PageOf(id);
  if (from == kInvalidPage) {
    return Status::NotFound("object not placed");
  }
  if (from == to) return Status::Ok();
  const uint32_t size = SizeOf(id);
  if (!pages_[to].Insert(id, size)) {
    return Status::ResourceExhausted("destination page full");
  }
  OODB_CHECK(pages_[from].Remove(id));
  object_page_[id] = to;
  return Status::Ok();
}

size_t StorageManager::RelocateToNewPages(
    const std::vector<obj::ObjectId>& objects,
    const std::vector<size_t>& page_start) {
  OODB_CHECK(!page_start.empty());
  OODB_CHECK_EQ(page_start.back(), objects.size());
  // A source page that every record leaves is emptied in one step. Removal
  // order shows only on a page some records stay on, so only those pages
  // replay the per-record removals, in sequence.
  std::vector<uint32_t> leaving(pages_.size(), 0);
  for (obj::ObjectId id : objects) {
    const PageId from = PageOf(id);
    OODB_CHECK_NE(from, kInvalidPage);
    ++leaving[from];
  }
  size_t sources = 0;
  std::vector<uint8_t> vacated(pages_.size(), 0);
  for (PageId p = 0; p < pages_.size(); ++p) {
    if (leaving[p] == 0) continue;
    ++sources;
    OODB_CHECK_LE(leaving[p], pages_[p].object_count());
    if (leaving[p] == pages_[p].object_count()) {
      vacated[p] = 1;
      pages_[p].Clear();
    }
  }
  for (obj::ObjectId id : objects) {
    const PageId from = object_page_[id];
    if (!vacated[from]) OODB_CHECK(pages_[from].Remove(id));
  }

  for (size_t k = 0; k + 1 < page_start.size(); ++k) {
    const auto to = static_cast<PageId>(pages_.size());
    Page& page = pages_.emplace_back(page_size_, page_start[k + 1] -
                                                     page_start[k]);
    for (size_t i = page_start[k]; i < page_start[k + 1]; ++i) {
      const obj::ObjectId id = objects[i];
      OODB_CHECK(page.Insert(id, object_size_[id]));
      object_page_[id] = to;
    }
  }
  return sources;
}

Status StorageManager::Erase(obj::ObjectId id) {
  const PageId from = PageOf(id);
  if (from == kInvalidPage) {
    return Status::NotFound("object not placed");
  }
  const uint32_t size = SizeOf(id);
  OODB_CHECK(pages_[from].Remove(id));
  object_page_[id] = kInvalidPage;
  object_size_[id] = 0;
  used_bytes_ -= size;
  --placed_objects_;
  return Status::Ok();
}

}  // namespace oodb::store
