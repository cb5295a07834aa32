#include "sim/resource.h"

#include <utility>

namespace oodb::sim {

Resource::Resource(Simulator& sim, std::string name, int servers)
    : sim_(sim), name_(std::move(name)), servers_(servers) {
  OODB_CHECK_GE(servers_, 1);
}

void Resource::UseAwaiter::await_suspend(std::coroutine_handle<> h) {
  res_.Enqueue(Waiter{service_time_, res_.sim_.now(), 0, h, nullptr});
}

void Resource::UseDetached(SimTime service_time,
                           Simulator::Callback on_complete) {
  OODB_CHECK_GE(service_time, 0.0);
  Enqueue(
      Waiter{service_time, sim_.now(), 0, nullptr, std::move(on_complete)});
}

void Resource::Enqueue(Waiter w) {
  TouchStats();
  waiters_.push_back(std::move(w));
  StartIfPossible();
}

void Resource::TouchStats() {
  // Record the interval that just ended at the previous values.
  busy_stats_.Update(sim_.now(),
                     static_cast<double>(busy_) / servers_);
}

void Resource::StartIfPossible() {
  while (busy_ < servers_ && !waiters_.empty()) {
    Waiter w = waiters_.pop_front();
    TouchStats();
    ++busy_;
    uint32_t slot;
    if (free_service_slots_.empty()) {
      in_service_.push_back(std::move(w));
      slot = static_cast<uint32_t>(in_service_.size() - 1);
    } else {
      slot = free_service_slots_.back();
      free_service_slots_.pop_back();
      in_service_[slot] = std::move(w);
    }
    in_service_[slot].start_time = sim_.now();
    const SimTime service_time = in_service_[slot].service_time;
    sim_.Schedule(service_time, [this, slot] { Complete(slot); });
  }
}

void Resource::Complete(uint32_t slot) {
  Waiter w = std::move(in_service_[slot]);
  free_service_slots_.push_back(slot);
  last_enqueue_ = w.enqueue_time;
  last_start_ = w.start_time;
  TouchStats();
  --busy_;
  ++completions_;
  residence_.Add(sim_.now() - w.enqueue_time);
  // Free the server before resuming: the resumed process may request
  // this resource again.
  StartIfPossible();
  if (w.handle) {
    w.handle.resume();
  }
  if (w.on_complete) {
    w.on_complete();
  }
}

double Resource::Utilization() const { return busy_stats_.Mean(); }

}  // namespace oodb::sim
