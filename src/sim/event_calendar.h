#ifndef SEMCLUST_SIM_EVENT_CALENDAR_H_
#define SEMCLUST_SIM_EVENT_CALENDAR_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

/// \file
/// A calendar event queue (Brown 1988) for the simulation kernel. Pending
/// events are hashed by time into an array of "day" buckets of width
/// `width_`; the dequeue cursor walks the buckets in day order, taking only
/// events that fall inside the current "year" so far-future events wait for
/// a later lap. With the bucket count resized to track the event population
/// and the width re-estimated from the observed event spacing, enqueue and
/// dequeue are O(1) amortised versus O(log n) for a binary heap — and, more
/// importantly here, dequeue touches one short contiguous bucket instead of
/// sifting through a heap.
///
/// Ordering contract: PopMin always removes the globally least
/// (time, seq) entry, so the dispatch order is identical to the
/// priority_queue implementation it replaces — equal-time events fire in
/// scheduling (seq) order. This is what keeps simulation output
/// bit-identical (DESIGN.md §12).

namespace oodb::sim {

/// Priority queue of (time, seq, payload) keyed on (time, seq).
/// The payload is an opaque 32-bit value (the kernel stores callback-slab
/// slot indices). Not thread-safe.
class EventCalendar {
 public:
  struct Entry {
    double time = 0;
    uint64_t seq = 0;
    uint32_t payload = 0;
  };

  EventCalendar();

  EventCalendar(const EventCalendar&) = delete;
  EventCalendar& operator=(const EventCalendar&) = delete;

  /// Inserts an entry. (time, seq) pairs must be unique; callers pass a
  /// monotonically increasing seq.
  void Push(double time, uint64_t seq, uint32_t payload);

  /// Removes and returns the least (time, seq) entry. Requires !empty().
  Entry PopMin();

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Observability: current bucket count (tests; sizing diagnostics).
  size_t bucket_count() const { return buckets_.size(); }

 private:
  /// Virtual day index of a timestamp: floor(time / width_). Days map to
  /// buckets modulo the (power-of-two) bucket count.
  uint64_t DayOf(double time) const;

  std::vector<Entry>& BucketOfDay(uint64_t day) {
    return buckets_[day & (buckets_.size() - 1)];
  }

  /// Inserts into a bucket, keeping it sorted by (time, seq) descending so
  /// the bucket's least entry is at the back.
  void InsertSorted(std::vector<Entry>& bucket, const Entry& e);

  /// Advances the cursor to the bucket holding the global minimum.
  void LocateMin();

  /// Rebuilds with `new_bucket_count` buckets and a freshly estimated
  /// width. O(n); called when the population crosses a resize threshold.
  void Resize(size_t new_bucket_count);

  std::vector<std::vector<Entry>> buckets_;
  double width_ = 1.0;
  size_t size_ = 0;
  /// Dequeue cursor: the virtual day currently being searched.
  uint64_t cursor_day_ = 0;
  /// True when buckets_[cursor_day_ & mask].back() is the global minimum.
  bool min_located_ = false;
};

}  // namespace oodb::sim

#endif  // SEMCLUST_SIM_EVENT_CALENDAR_H_
