#include "buffer/buffer_pool.h"

#include <algorithm>

namespace oodb::buffer {

const char* ReplacementPolicyName(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru:
      return "LRU";
    case ReplacementPolicy::kContextSensitive:
      return "Context-sensitive";
    case ReplacementPolicy::kRandom:
      return "Random";
  }
  return "unknown";
}

const char* PrefetchPolicyName(PrefetchPolicy p) {
  switch (p) {
    case PrefetchPolicy::kNone:
      return "No_prefetch";
    case PrefetchPolicy::kWithinBuffer:
      return "Prefetch_within_buffer";
    case PrefetchPolicy::kWithinDb:
      return "Prefetch_within_DB";
  }
  return "unknown";
}

BufferPool::BufferPool(size_t capacity, ReplacementPolicy policy,
                       uint64_t seed)
    : capacity_(capacity), policy_(policy), rng_(seed) {
  OODB_CHECK_GE(capacity, 1u);
  frames_.resize(capacity);
  free_frames_.reserve(capacity);
  // Hand out frame 0 first for determinism.
  for (size_t i = capacity; i-- > 0;) {
    free_frames_.push_back(static_cast<FrameId>(i));
  }
}

void BufferPool::LruUnlink(FrameId f) {
  Frame& fr = frames_[f];
  if (fr.lru_prev != kNoFrame) {
    frames_[fr.lru_prev].lru_next = fr.lru_next;
  } else if (lru_head_ == f) {
    lru_head_ = fr.lru_next;
  }
  if (fr.lru_next != kNoFrame) {
    frames_[fr.lru_next].lru_prev = fr.lru_prev;
  } else if (lru_tail_ == f) {
    lru_tail_ = fr.lru_prev;
  }
  fr.lru_prev = fr.lru_next = kNoFrame;
}

void BufferPool::LruPushMru(FrameId f) {
  Frame& fr = frames_[f];
  fr.lru_prev = lru_tail_;
  fr.lru_next = kNoFrame;
  if (lru_tail_ != kNoFrame) frames_[lru_tail_].lru_next = f;
  lru_tail_ = f;
  if (lru_head_ == kNoFrame) lru_head_ = f;
}

void BufferPool::SetPriority(FrameId f, double priority) {
  Frame& fr = frames_[f];
  fr.priority = priority;
  fr.heap_stamp = next_stamp_++;
  heap_.push(HeapEntry{fr.priority, fr.heap_stamp, f});
}

void BufferPool::RecordAccess(FrameId f) {
  switch (policy_) {
    case ReplacementPolicy::kLru:
      LruUnlink(f);
      LruPushMru(f);
      break;
    case ReplacementPolicy::kContextSensitive:
      access_clock_ += 1.0;
      SetPriority(f, access_clock_);
      frames_[f].boosted = false;  // plain recency from here on
      break;
    case ReplacementPolicy::kRandom:
      break;
  }
}

BufferPool::FixResult BufferPool::Fix(store::PageId page) {
  OODB_CHECK_NE(page, store::kInvalidPage);
  FixResult result;
  const FrameId resident = FrameOf(page);
  if (resident != kNoFrame) {
    ++hits_;
    result.hit = true;
    RecordAccess(resident);
    return result;
  }

  ++misses_;
  FrameId f;
  if (!free_frames_.empty()) {
    f = free_frames_.back();
    free_frames_.pop_back();
  } else {
    f = PickVictim();
    OODB_CHECK_NE(f, kNoFrame);  // capacity must exceed pinned pages
    Frame& victim = frames_[f];
    result.evicted_page = victim.page;
    result.evicted_dirty = victim.dirty;
    ++evictions_;
    if (victim.dirty) ++dirty_evictions_;
    if (trace_ != nullptr) {
      obs::EvictionClass cls = obs::EvictionClass::kPlainRecency;
      switch (policy_) {
        case ReplacementPolicy::kLru:
          cls = obs::EvictionClass::kLru;
          break;
        case ReplacementPolicy::kRandom:
          cls = obs::EvictionClass::kRandom;
          break;
        case ReplacementPolicy::kContextSensitive:
          cls = victim.boosted ? obs::EvictionClass::kContextBoosted
                               : obs::EvictionClass::kPlainRecency;
          break;
      }
      trace_->Record(obs::Subsystem::kBuffer,
                     obs::TraceEventType::kEviction, victim.page,
                     static_cast<uint64_t>(cls), victim.dirty ? 1 : 0,
                     victim.priority);
    }
    frame_of_[victim.page] = kNoFrame;
    --resident_;
    if (policy_ == ReplacementPolicy::kLru) LruUnlink(f);
  }

  Frame& fr = frames_[f];
  fr.page = page;
  fr.dirty = false;
  fr.boosted = false;
  fr.pin_count = 0;
  fr.priority = 0;
  fr.heap_stamp = 0;
  if (page >= frame_of_.size()) {
    // Geometric growth: pages are allocated one at a time while the
    // database builds, so growing to exactly page+1 would resize per page.
    frame_of_.resize(std::max<size_t>(page + 1, frame_of_.size() * 2),
                     kNoFrame);
  }
  frame_of_[page] = f;
  ++resident_;
  // RecordAccess links the frame into the policy structure (LruUnlink is a
  // no-op on a frame that is not yet linked).
  RecordAccess(f);
  return result;
}

BufferPool::FixResult BufferPool::FixRepeated(store::PageId page,
                                              uint64_t count) {
  OODB_CHECK_GE(count, 1u);
  const FixResult result = Fix(page);
  const uint64_t repeats = count - 1;
  if (repeats == 0) return result;
  hits_ += repeats;
  // Fix left the frame most recently used with plain recency. A repeated
  // access keeps it there under LRU and is invisible to Random; under
  // context-sensitive replacement each one advances the clock and
  // restamps the frame, and only the last stamp stays live in the heap.
  if (policy_ == ReplacementPolicy::kContextSensitive) {
    access_clock_ += static_cast<double>(repeats);
    next_stamp_ += repeats - 1;
    SetPriority(FrameOf(page), access_clock_);
  }
  return result;
}

BufferPool::FrameId BufferPool::PickVictim() {
  switch (policy_) {
    case ReplacementPolicy::kLru: {
      for (FrameId f = lru_head_; f != kNoFrame; f = frames_[f].lru_next) {
        if (frames_[f].pin_count == 0) return f;
      }
      return kNoFrame;
    }
    case ReplacementPolicy::kContextSensitive: {
      // Pop entries until an unpinned live frame surfaces; pinned frames
      // are stashed (their stamps stay valid) and restored afterwards.
      pinned_stash_.clear();
      FrameId victim = kNoFrame;
      while (!heap_.empty()) {
        HeapEntry e = heap_.top();
        heap_.pop();
        const Frame& fr = frames_[e.frame];
        if (fr.page == store::kInvalidPage || fr.heap_stamp != e.stamp) {
          continue;  // stale entry
        }
        if (fr.pin_count > 0) {
          pinned_stash_.push_back(e);
          continue;
        }
        victim = e.frame;
        break;
      }
      for (const HeapEntry& e : pinned_stash_) heap_.push(e);
      return victim;
    }
    case ReplacementPolicy::kRandom: {
      // All frames are occupied when PickVictim is called.
      for (int attempts = 0; attempts < 1024; ++attempts) {
        const FrameId f =
            static_cast<FrameId>(rng_.NextBelow(frames_.size()));
        if (frames_[f].pin_count == 0) return f;
      }
      // Degenerate: nearly everything pinned; fall back to a scan.
      for (FrameId f = 0; f < frames_.size(); ++f) {
        if (frames_[f].pin_count == 0) return f;
      }
      return kNoFrame;
    }
  }
  return kNoFrame;
}

void BufferPool::Boost(store::PageId page, double weight) {
  OODB_CHECK_GT(weight, 0.0);
  const FrameId f = FrameOf(page);
  if (f == kNoFrame) return;
  switch (policy_) {
    case ReplacementPolicy::kContextSensitive: {
      // Lift the frame above the current clock: it outlives plain-recency
      // pages proportionally to the relationship weight.
      Frame& fr = frames_[f];
      const double base = std::max(fr.priority, access_clock_);
      SetPriority(f, base + weight);
      fr.boosted = true;
      break;
    }
    case ReplacementPolicy::kLru:
      RecordAccess(f);  // best LRU can do: treat as an access
      break;
    case ReplacementPolicy::kRandom:
      break;  // random replacement has no priority to adjust
  }
}

void BufferPool::MarkDirty(store::PageId page) {
  const FrameId f = FrameOf(page);
  OODB_CHECK_NE(f, kNoFrame);
  frames_[f].dirty = true;
}

bool BufferPool::IsDirty(store::PageId page) const {
  const FrameId f = FrameOf(page);
  return f != kNoFrame && frames_[f].dirty;
}

void BufferPool::Pin(store::PageId page) {
  const FrameId f = FrameOf(page);
  OODB_CHECK_NE(f, kNoFrame);
  ++frames_[f].pin_count;
}

void BufferPool::Unpin(store::PageId page) {
  const FrameId f = FrameOf(page);
  OODB_CHECK_NE(f, kNoFrame);
  OODB_CHECK_GT(frames_[f].pin_count, 0u);
  --frames_[f].pin_count;
}

std::vector<store::PageId> BufferPool::ResidentPages() const {
  std::vector<store::PageId> pages;
  pages.reserve(resident_);
  for (store::PageId p = 0; p < frame_of_.size(); ++p) {
    if (frame_of_[p] != kNoFrame) pages.push_back(p);
  }
  return pages;
}

void BufferPool::ResetCounters() {
  hits_ = misses_ = evictions_ = dirty_evictions_ = 0;
}

}  // namespace oodb::buffer
