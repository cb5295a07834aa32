#ifndef SEMCLUST_UTIL_EPOCH_SET_H_
#define SEMCLUST_UTIL_EPOCH_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

/// \file
/// A set of 32-bit ids that is cleared in O(1) and, once it has grown to
/// the largest size it is asked to hold, allocates nothing: open
/// addressing with linear probing, where a slot is occupied only while its
/// stamp equals the current epoch, so Clear is one increment. Used for the
/// visited sets of the simulation's graph traversals, which a std::
/// unordered_set would allocate node by node on every query.

namespace oodb {

class EpochSet {
 public:
  size_t size() const { return size_; }

  void Clear() {
    size_ = 0;
    if (++epoch_ == 0) {  // wrapped: forget every stamp once
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  bool Contains(uint32_t id) const {
    if (keys_.empty()) return false;
    for (size_t i = Home(id);; i = (i + 1) & Mask()) {
      if (stamps_[i] != epoch_) return false;
      if (keys_[i] == id) return true;
    }
  }

  /// Adds `id`; true when it was not already present.
  bool Insert(uint32_t id) {
    if (2 * (size_ + 1) > keys_.size()) Grow();
    size_t i = Home(id);
    for (; stamps_[i] == epoch_; i = (i + 1) & Mask()) {
      if (keys_[i] == id) return false;
    }
    keys_[i] = id;
    stamps_[i] = epoch_;
    ++size_;
    return true;
  }

 private:
  size_t Mask() const { return keys_.size() - 1; }
  size_t Home(uint32_t id) const {
    // Fibonacci hashing: the top bits of id * 2^64/phi.
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    std::vector<uint32_t> old_keys;
    std::vector<uint32_t> old_stamps;
    old_keys.swap(keys_);
    old_stamps.swap(stamps_);
    const size_t capacity = old_keys.empty() ? 64 : 2 * old_keys.size();
    keys_.assign(capacity, 0);
    stamps_.assign(capacity, 0);
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    const uint32_t epoch = epoch_;
    epoch_ = 1;
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_stamps[i] == epoch) Insert(old_keys[i]);
    }
  }

  std::vector<uint32_t> keys_;
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 1;
  int shift_ = 64;
  size_t size_ = 0;
};

}  // namespace oodb

#endif  // SEMCLUST_UTIL_EPOCH_SET_H_
