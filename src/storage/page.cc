#include "storage/page.h"

#include <algorithm>

namespace oodb::store {

bool Page::Remove(obj::ObjectId id) {
  auto it = std::find_if(slots_.begin(), slots_.end(),
                         [id](const Slot& s) { return s.object == id; });
  if (it == slots_.end()) return false;
  used_ -= it->size_bytes;
  *it = slots_.back();
  slots_.pop_back();
  return true;
}

bool Page::Contains(obj::ObjectId id) const {
  return std::any_of(slots_.begin(), slots_.end(),
                     [id](const Slot& s) { return s.object == id; });
}

bool Page::ResizeObject(obj::ObjectId id, uint32_t new_size_bytes) {
  OODB_CHECK_GT(new_size_bytes, 0u);
  auto it = std::find_if(slots_.begin(), slots_.end(),
                         [id](const Slot& s) { return s.object == id; });
  if (it == slots_.end()) return false;
  const uint32_t other = used_ - it->size_bytes;
  if (other + new_size_bytes > capacity_) return false;
  used_ = other + new_size_bytes;
  it->size_bytes = new_size_bytes;
  return true;
}

}  // namespace oodb::store
