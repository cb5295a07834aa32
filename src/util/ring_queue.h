#ifndef SEMCLUST_UTIL_RING_QUEUE_H_
#define SEMCLUST_UTIL_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.h"

/// \file
/// A FIFO over a power-of-two ring buffer that only grows. It replaces
/// std::deque on the simulation's wait queues: a deque allocates a map and
/// a 512-byte chunk when it is created and frees chunks as it drains, so a
/// queue that keeps filling and emptying keeps allocating; a RingQueue
/// reaches the largest length it ever holds and then allocates nothing.
/// Popped slots keep their moved-from values until overwritten.

namespace oodb {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// The i-th element from the front.
  T& operator[](size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  T& front() {
    OODB_CHECK(size_ > 0);
    return buf_[head_];
  }

  void push_back(T value) {
    if (size_ == buf_.size()) Grow();
    (*this)[size_] = std::move(value);
    ++size_;
  }

  /// Removes and returns the front element.
  T pop_front() {
    OODB_CHECK(size_ > 0);
    T value = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return value;
  }

  /// Removes the i-th element, keeping the order of the rest.
  void erase(size_t i) {
    OODB_CHECK(i < size_);
    for (; i + 1 < size_; ++i) (*this)[i] = std::move((*this)[i + 1]);
    --size_;
  }

 private:
  void Grow() {
    std::vector<T> next(buf_.empty() ? 8 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace oodb

#endif  // SEMCLUST_UTIL_RING_QUEUE_H_
