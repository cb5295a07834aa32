#include "sim/frame_pool.h"

#include <sanitizer/asan_interface.h>

#include <array>
#include <new>
#include <vector>

namespace oodb::sim::internal {
namespace {

constexpr size_t kClasses = FramePool::kMaxPooledBytes / FramePool::kClassBytes;

size_t ClassOf(size_t bytes) {
  return bytes == 0 ? 0 : (bytes - 1) / FramePool::kClassBytes;
}

size_t ClassBytes(size_t cls) { return (cls + 1) * FramePool::kClassBytes; }

struct FreeLists {
  std::array<std::vector<void*>, kClasses> lists;

  FreeLists() = default;
  FreeLists(const FreeLists&) = delete;
  FreeLists& operator=(const FreeLists&) = delete;
  ~FreeLists();
};

thread_local FreeLists t_free;
/// False once this thread's free lists are gone: a frame freed by a later
/// thread-exit or static destructor goes straight back to the heap.
thread_local bool t_live = true;

FreeLists::~FreeLists() {
  t_live = false;
  for (size_t cls = 0; cls < kClasses; ++cls) {
    for (void* frame : lists[cls]) {
      ASAN_UNPOISON_MEMORY_REGION(frame, ClassBytes(cls));
      ::operator delete(frame);
    }
  }
}

}  // namespace

void* FramePool::Allocate(size_t bytes) {
  if (bytes > kMaxPooledBytes || !t_live) return ::operator new(bytes);
  const size_t cls = ClassOf(bytes);
  std::vector<void*>& list = t_free.lists[cls];
  if (list.empty()) return ::operator new(ClassBytes(cls));
  void* frame = list.back();
  list.pop_back();
  ASAN_UNPOISON_MEMORY_REGION(frame, ClassBytes(cls));
  return frame;
}

void FramePool::Deallocate(void* frame, size_t bytes) noexcept {
  if (bytes > kMaxPooledBytes || !t_live) {
    ::operator delete(frame);
    return;
  }
  const size_t cls = ClassOf(bytes);
  ASAN_POISON_MEMORY_REGION(frame, ClassBytes(cls));
  t_free.lists[cls].push_back(frame);
}

size_t FramePool::CachedFrames() {
  if (!t_live) return 0;
  size_t n = 0;
  for (const std::vector<void*>& list : t_free.lists) n += list.size();
  return n;
}

}  // namespace oodb::sim::internal
