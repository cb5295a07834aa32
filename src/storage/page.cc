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

}  // namespace oodb::store
