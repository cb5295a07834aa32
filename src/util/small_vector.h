#ifndef SEMCLUST_UTIL_SMALL_VECTOR_H_
#define SEMCLUST_UTIL_SMALL_VECTOR_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "util/check.h"

/// \file
/// A growable list of trivially copyable values that keeps its first N
/// entries inline and moves to the heap only when it outgrows them: a
/// short per-call result list that is usually short costs no allocation.

namespace oodb {

template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T* data() const {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  void push_back(const T& value) {
    if (heap_.empty() && size_ < N) {
      inline_[size_++] = value;
      return;
    }
    if (heap_.empty()) {
      // Spill: from here on every entry lives on the heap.
      heap_.reserve(2 * N);
      heap_.assign(inline_.begin(), inline_.end());
    }
    heap_.push_back(value);
    ++size_;
  }

  /// Removes the entry at `pos` (a pointer into this list), keeping the
  /// order of the others.
  void erase(const T* pos) {
    const auto i = static_cast<size_t>(pos - data());
    OODB_CHECK_LT(i, size_);
    if (heap_.empty()) {
      std::copy(inline_.begin() + i + 1, inline_.begin() + size_,
                inline_.begin() + i);
    } else {
      // Erasing the last heap entry empties heap_ together with the list,
      // so the next entries go inline again.
      heap_.erase(heap_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    --size_;
  }

 private:
  // Invariant: heap_ is empty (entries in inline_[0, size_)) or holds all
  // size_ entries.
  std::array<T, N> inline_{};
  size_t size_ = 0;
  std::vector<T> heap_;
};

}  // namespace oodb

#endif  // SEMCLUST_UTIL_SMALL_VECTOR_H_
