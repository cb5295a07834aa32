#ifndef SEMCLUST_SIM_PROCESS_H_
#define SEMCLUST_SIM_PROCESS_H_

#include <coroutine>
#include <cstdlib>
#include <utility>

#include "sim/frame_pool.h"
#include "sim/simulator.h"

/// \file
/// Process-oriented layer over the event kernel, built on C++20 coroutines.
/// Model code (user sessions, transactions) is written as straight-line
/// coroutines that `co_await` delays and resource grants; this mirrors the
/// declarative PAWS "transaction flows among model blocks" style.
///
/// Usage:
///   sim::Task UserLoop(Model& m) {
///     for (;;) {
///       co_await sim::Delay(m.sim, think_time);
///       co_await ExecuteSession(m);
///     }
///   }
///   sim::Spawn(UserLoop(m));  // detached top-level process

namespace oodb::sim {

/// A lazily-started coroutine task. Awaiting a Task starts it and resumes
/// the awaiter when the task completes (symmetric transfer). The Task handle
/// owns the coroutine frame, which comes from the per-thread FramePool.
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::PooledFrame {
    std::coroutine_handle<> continuation;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    auto final_suspend() noexcept {
      struct FinalAwaiter {
        bool await_ready() noexcept { return false; }
        std::coroutine_handle<> await_suspend(
            std::coroutine_handle<promise_type> h) noexcept {
          auto cont = h.promise().continuation;
          return cont ? cont : std::noop_coroutine();
        }
        void await_resume() noexcept {}
      };
      return FinalAwaiter{};
    }
    void return_void() {}
    void unhandled_exception() { std::abort(); }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  /// co_await support: start the child task, resume the awaiter on
  /// completion.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    handle_.promise().continuation = cont;
    return handle_;
  }
  void await_resume() {}

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void Destroy() {
    if (handle_) handle_.destroy();
  }

  std::coroutine_handle<promise_type> handle_;
};

namespace internal {

/// Fire-and-forget driver coroutine; its frame self-destroys on completion.
struct DetachedTask {
  struct promise_type : PooledFrame {
    DetachedTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::abort(); }
  };
};

}  // namespace internal

/// Starts `task` as a detached top-level process. The task runs to its first
/// suspension immediately; its frame is freed when it finishes.
inline internal::DetachedTask Spawn(Task task) { co_await std::move(task); }

/// Awaitable that suspends the current process for `delay` simulated
/// seconds.
class Delay {
 public:
  Delay(Simulator& sim, SimTime delay) : sim_(sim), delay_(delay) {}

  bool await_ready() const noexcept { return delay_ <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    sim_.Schedule(delay_, [h] { h.resume(); });
  }
  void await_resume() {}

 private:
  Simulator& sim_;
  SimTime delay_;
};

}  // namespace oodb::sim

#endif  // SEMCLUST_SIM_PROCESS_H_
