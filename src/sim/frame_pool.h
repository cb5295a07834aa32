#ifndef SEMCLUST_SIM_FRAME_POOL_H_
#define SEMCLUST_SIM_FRAME_POOL_H_

#include <cstddef>

/// \file
/// Per-thread pool of coroutine frames. Every `co_await` of a sim::Task
/// creates the child's frame and destroys it when the child completes, so
/// a transaction creates and destroys dozens of frames of a handful of
/// sizes. The pool rounds each frame up to a 64-byte size class; a freed
/// frame goes onto its class's free list on the freeing thread, and the
/// next frame of that class on that thread reuses it (LIFO, so the reused
/// frame is the one most likely still in cache). A simulation that keeps
/// the same call shapes therefore allocates no frames in steady state.
/// Frames above kMaxPooledBytes bypass the pool and go to ::operator new.
/// Each thread's free lists are released when the thread exits.
///
/// A pooled frame is poisoned with ASAN_POISON_MEMORY_REGION while it
/// sits on a free list and unpoisoned on reuse, so under AddressSanitizer
/// a use of a destroyed frame is still reported (as use-after-poison).
/// The macros are no-ops in other builds.

namespace oodb::sim::internal {

class FramePool {
 public:
  static constexpr size_t kClassBytes = 64;
  static constexpr size_t kMaxPooledBytes = 4096;

  static void* Allocate(size_t bytes);
  static void Deallocate(void* frame, size_t bytes) noexcept;

  /// Frames cached on the calling thread's free lists.
  static size_t CachedFrames();
};

/// Base of the coroutine promise types: routes their frames through the
/// calling thread's FramePool.
struct PooledFrame {
  static void* operator new(size_t bytes) {
    return FramePool::Allocate(bytes);
  }
  static void operator delete(void* frame, size_t bytes) noexcept {
    FramePool::Deallocate(frame, bytes);
  }
};

}  // namespace oodb::sim::internal

#endif  // SEMCLUST_SIM_FRAME_POOL_H_
