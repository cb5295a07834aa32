#include "sim/event_calendar.h"

#include <algorithm>

namespace oodb::sim {

namespace {

/// Smallest bucket array; shrinking stops here.
constexpr size_t kMinBuckets = 8;

/// Day index that any astronomically far timestamp clamps to, so the
/// time/width division can never overflow uint64 arithmetic. Entries
/// sharing the clamp day still order correctly by (time, seq) inside
/// their bucket.
constexpr uint64_t kClampDay = uint64_t{1} << 62;

bool EarlierThan(const EventCalendar::Entry& a,
                 const EventCalendar::Entry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace

EventCalendar::EventCalendar() : buckets_(kMinBuckets) {}

uint64_t EventCalendar::DayOf(double time) const {
  const double q = time / width_;
  if (q >= static_cast<double>(kClampDay)) return kClampDay;
  return static_cast<uint64_t>(q);
}

void EventCalendar::InsertSorted(std::vector<Entry>& bucket,
                                 const Entry& e) {
  // Descending (time, seq): the bucket's least entry sits at the back, so
  // dequeue is pop_back. Buckets average ~1 entry, so the insertion scan
  // is effectively free.
  auto it = std::upper_bound(
      bucket.begin(), bucket.end(), e,
      [](const Entry& a, const Entry& b) { return EarlierThan(b, a); });
  bucket.insert(it, e);
}

void EventCalendar::Push(double time, uint64_t seq, uint32_t payload) {
  OODB_CHECK_GE(time, 0.0);
  const Entry e{time, seq, payload};
  const uint64_t day = DayOf(time);
  if (size_ == 0) {
    cursor_day_ = day;
    min_located_ = false;
  } else if (day < cursor_day_) {
    // Earlier than anything the cursor would still visit: rewind. (The
    // simulator never pushes behind its clock, but the calendar accepts
    // any order, including an entry earlier than one already popped.)
    cursor_day_ = day;
    min_located_ = false;
  }
  InsertSorted(BucketOfDay(day), e);
  ++size_;
  if (size_ > 2 * buckets_.size()) Resize(2 * buckets_.size());
}

void EventCalendar::LocateMin() {
  if (min_located_) return;
  OODB_CHECK_GT(size_, 0u);
  const size_t nb = buckets_.size();
  // Walk at most one full lap of days; an event whose bucket minimum
  // belongs to the cursor's day is the global minimum (no entry has an
  // earlier day, by the cursor invariant).
  for (size_t scanned = 0; scanned < nb; ++scanned) {
    const std::vector<Entry>& b = buckets_[cursor_day_ & (nb - 1)];
    if (!b.empty() && DayOf(b.back().time) == cursor_day_) {
      min_located_ = true;
      return;
    }
    ++cursor_day_;
  }
  // Sparse tail: every pending event is more than a lap ahead. Fall back
  // to a direct search over the per-bucket minima.
  const Entry* best = nullptr;
  for (const std::vector<Entry>& b : buckets_) {
    if (!b.empty() && (best == nullptr || EarlierThan(b.back(), *best))) {
      best = &b.back();
    }
  }
  cursor_day_ = DayOf(best->time);
  min_located_ = true;
}

EventCalendar::Entry EventCalendar::PopMin() {
  LocateMin();
  std::vector<Entry>& b = BucketOfDay(cursor_day_);
  const Entry e = b.back();
  b.pop_back();
  --size_;
  // The next entry of this bucket keeps the cursor hot if it is still in
  // the current day (equal-time bursts pop in O(1)).
  min_located_ = !b.empty() && DayOf(b.back().time) == cursor_day_;
  if (size_ < buckets_.size() / 2 && buckets_.size() > kMinBuckets) {
    Resize(buckets_.size() / 2);
  }
  return e;
}

void EventCalendar::Resize(size_t new_bucket_count) {
  std::vector<Entry> all;
  all.reserve(size_);
  double min_t = 0, max_t = 0;
  bool first = true;
  for (std::vector<Entry>& b : buckets_) {
    for (const Entry& e : b) {
      if (first || e.time < min_t) min_t = e.time;
      if (first || e.time > max_t) max_t = e.time;
      first = false;
      all.push_back(e);
    }
    b.clear();
  }
  buckets_.assign(new_bucket_count, std::vector<Entry>());
  // Width: a few average inter-event spacings per day, so a day holds O(1)
  // events. Degenerate spreads (all equal times) fall back to unit width.
  if (all.size() < 2 || max_t <= min_t) {
    width_ = 1.0;
  } else {
    width_ = 4.0 * (max_t - min_t) / static_cast<double>(all.size());
    // Keep day indices far from the clamp even for huge timestamps.
    width_ = std::max(width_, max_t / 1e15);
  }
  for (const Entry& e : all) InsertSorted(BucketOfDay(DayOf(e.time)), e);
  cursor_day_ = all.empty() ? 0 : DayOf(min_t);
  min_located_ = false;
}

}  // namespace oodb::sim
