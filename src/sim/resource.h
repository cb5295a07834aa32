#ifndef SEMCLUST_SIM_RESOURCE_H_
#define SEMCLUST_SIM_RESOURCE_H_

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "util/ring_queue.h"
#include "util/stats.h"

/// \file
/// FCFS multi-server queueing resource (CPU, a disk, ...). Processes
/// `co_await resource.Use(service_time)`; the await completes after queueing
/// delay plus service time. Collects utilisation, queue length, and
/// residence-time statistics, matching what PAWS reports for service nodes.

namespace oodb::sim {

/// An s-server FCFS service centre.
class Resource {
 public:
  /// Creates a resource with `servers` identical servers (>= 1).
  Resource(Simulator& sim, std::string name, int servers);

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Awaitable: acquires a server, holds it for `service_time`, releases it,
  /// then resumes the awaiter. FCFS among waiters.
  class UseAwaiter {
   public:
    UseAwaiter(Resource& res, SimTime service_time)
        : res_(res), service_time_(service_time) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}

   private:
    Resource& res_;
    SimTime service_time_;
  };

  UseAwaiter Use(SimTime service_time) {
    OODB_CHECK_GE(service_time, 0.0);
    return UseAwaiter(*this, service_time);
  }

  /// Fire-and-forget request: occupies a server for `service_time` without
  /// any process waiting on it (used for asynchronous prefetch I/O). The
  /// optional callback runs at completion.
  void UseDetached(SimTime service_time,
                   Simulator::Callback on_complete = nullptr);

  const std::string& name() const { return name_; }
  int servers() const { return servers_; }
  int busy() const { return busy_; }
  size_t queue_length() const { return waiters_.size(); }

  /// Completed requests.
  uint64_t completions() const { return completions_; }
  /// Enqueue / dispatch timestamps of the most recently *completed*
  /// request. A process resumed by Complete reads these before any other
  /// event can run (resumption is synchronous inside Complete), giving
  /// the span profiler the exact wait/service split of the await it just
  /// finished: wait = [enqueue, start), service = [start, now).
  SimTime last_enqueue_time() const { return last_enqueue_; }
  SimTime last_start_time() const { return last_start_; }
  /// Residence time (queueing + service) per request.
  const StreamingStats& residence_time() const { return residence_; }
  /// Time-weighted fraction of servers busy, in [0, 1].
  double Utilization() const;

 private:
  struct Waiter {
    SimTime service_time;
    SimTime enqueue_time;
    SimTime start_time = 0;               // set when dispatched to a server
    std::coroutine_handle<> handle;       // null for detached requests
    Simulator::Callback on_complete;      // may be null
  };

  void Enqueue(Waiter w);
  void StartIfPossible();
  /// Completion of the request parked in in_service_[slot].
  void Complete(uint32_t slot);
  void TouchStats();

  Simulator& sim_;
  std::string name_;
  int servers_;
  int busy_ = 0;
  uint64_t completions_ = 0;
  SimTime last_enqueue_ = 0;
  SimTime last_start_ = 0;
  /// FCFS queue of requests waiting for a server; a ring, so steady
  /// queueing allocates nothing.
  RingQueue<Waiter> waiters_;
  /// Requests currently holding a server, parked in a slab so the
  /// completion event's closure is just {this, slot} — small enough for
  /// the kernel's inline callback storage (no per-I/O heap allocation).
  std::vector<Waiter> in_service_;
  std::vector<uint32_t> free_service_slots_;
  StreamingStats residence_;
  TimeWeightedStats busy_stats_;
};

}  // namespace oodb::sim

#endif  // SEMCLUST_SIM_RESOURCE_H_
