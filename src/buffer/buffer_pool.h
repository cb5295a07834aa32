#ifndef SEMCLUST_BUFFER_BUFFER_POOL_H_
#define SEMCLUST_BUFFER_BUFFER_POOL_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "buffer/policy.h"
#include "obs/trace_sink.h"
#include "storage/page.h"
#include "util/random.h"

/// \file
/// The buffer-pool state machine. It is *pure state*: Fix() reports whether
/// the access hit and what eviction it caused, and the simulation model
/// charges the corresponding physical I/O time. This keeps the replacement
/// logic synchronous and unit-testable without a simulator.

namespace oodb::buffer {

/// A fixed-capacity page buffer with pluggable replacement.
///
/// Context-sensitive replacement implements the paper's priority scheme:
/// each access stamps the frame with an advancing access clock (recency),
/// and Boost() raises a frame above plain recency when a structurally
/// related object is touched — so relatives of hot objects are not chosen
/// for replacement even if they themselves were referenced long ago.
/// Under LRU a Boost counts as a plain access; under Random it is ignored.
class BufferPool {
 public:
  /// `capacity` frames (Table 4.1, parameter L), using `policy`;
  /// `seed` drives Random replacement.
  BufferPool(size_t capacity, ReplacementPolicy policy, uint64_t seed = 1);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Outcome of a Fix.
  struct FixResult {
    bool hit = false;
    /// Page evicted to make room (kInvalidPage if none was needed).
    store::PageId evicted_page = store::kInvalidPage;
    /// True if the evicted page was dirty (the caller owes a flush I/O).
    bool evicted_dirty = false;
  };

  /// Makes `page` resident and records an access. On a miss the caller
  /// owes one physical read, plus one flush if `evicted_dirty`.
  FixResult Fix(store::PageId page);

  /// Same state and counters as `count` consecutive Fix(page) calls
  /// (count >= 1): the first may miss, the rest hit. Returns the first
  /// Fix's result.
  FixResult FixRepeated(store::PageId page, uint64_t count);

  /// Raises the replacement priority of a resident page because a
  /// structurally related object was accessed (weight > 0 scales the
  /// boost). No-op when not resident.
  void Boost(store::PageId page, double weight);

  /// Marks a resident page dirty. The page must be resident.
  void MarkDirty(store::PageId page);

  bool Contains(store::PageId page) const {
    return page < frame_of_.size() && frame_of_[page] != kNoFrame;
  }
  bool IsDirty(store::PageId page) const;

  /// Pins a resident page against eviction (nestable). Fix() the page
  /// first.
  void Pin(store::PageId page);
  void Unpin(store::PageId page);

  /// All currently resident pages (unspecified order).
  std::vector<store::PageId> ResidentPages() const;

  size_t capacity() const { return capacity_; }
  size_t resident_count() const { return resident_; }
  ReplacementPolicy policy() const { return policy_; }

  uint64_t accesses() const { return hits_ + misses_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t dirty_evictions() const { return dirty_evictions_; }
  double HitRatio() const {
    const uint64_t a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(a);
  }

  /// Zeroes the counters (between warmup and measurement).
  void ResetCounters();

  /// Attaches an event sink (may be null to detach). Each eviction then
  /// records an obs::TraceEventType::kEviction event carrying the page,
  /// its EvictionClass (whether a context boost was protecting it), the
  /// dirty bit, and the replacement priority at eviction time.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  using FrameId = uint32_t;
  static constexpr FrameId kNoFrame = UINT32_MAX;

  struct Frame {
    store::PageId page = store::kInvalidPage;
    bool dirty = false;
    bool boosted = false;  // context boost since the last plain access
    uint32_t pin_count = 0;
    double priority = 0;   // context-sensitive replacement key
    uint64_t heap_stamp = 0;  // invalidates stale heap entries
    FrameId lru_prev = kNoFrame;  // LRU chain
    FrameId lru_next = kNoFrame;
  };

  struct HeapEntry {
    double priority;
    uint64_t stamp;
    FrameId frame;
    bool operator>(const HeapEntry& o) const {
      if (priority != o.priority) return priority > o.priority;
      return stamp > o.stamp;
    }
  };

  void RecordAccess(FrameId f);
  void SetPriority(FrameId f, double priority);
  FrameId PickVictim();  // kNoFrame when everything is pinned
  void LruUnlink(FrameId f);
  void LruPushMru(FrameId f);

  size_t capacity_;
  ReplacementPolicy policy_;
  Rng rng_;
  /// Looks up the frame holding `page` (kNoFrame when not resident).
  FrameId FrameOf(store::PageId page) const {
    return page < frame_of_.size() ? frame_of_[page] : kNoFrame;
  }

  std::vector<Frame> frames_;
  std::vector<FrameId> free_frames_;
  // Dense PageId-indexed page directory (kNoFrame = not resident), grown on
  // demand: Fix() is the hottest buffer entry point and the hash-map lookup
  // plus its rehashes showed up directly in the simulation profile. Page
  // ids are small and dense, so the direct-indexed table is both faster and
  // smaller than the map it replaces.
  std::vector<FrameId> frame_of_;
  size_t resident_ = 0;

  // Context-sensitive state: access clock + lazy min-heap over priorities.
  double access_clock_ = 0;
  uint64_t next_stamp_ = 1;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;

  // LRU state.
  FrameId lru_head_ = kNoFrame;  // least recently used
  FrameId lru_tail_ = kNoFrame;  // most recently used

  // PickVictim scratch: pinned entries popped while hunting for an
  // unpinned frame, restored afterwards. Reused across calls to avoid a
  // per-eviction allocation.
  std::vector<HeapEntry> pinned_stash_;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t dirty_evictions_ = 0;

  obs::TraceSink* trace_ = nullptr;
};

}  // namespace oodb::buffer

#endif  // SEMCLUST_BUFFER_BUFFER_POOL_H_
