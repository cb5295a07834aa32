#include "sim/simulator.h"

#include <utility>

namespace oodb::sim {

void Simulator::Schedule(SimTime delay, Callback cb) {
  OODB_CHECK_GE(delay, 0.0);
  ScheduleAt(now_ + delay, std::move(cb));
}

void Simulator::ScheduleAt(SimTime t, Callback cb) {
  OODB_CHECK_GE(t, now_);
  calendar_.Push(t, next_seq_++, AllocSlot(std::move(cb)));
}

uint32_t Simulator::AllocSlot(Callback cb) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(cb));
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = std::move(cb);
  return slot;
}

void Simulator::DispatchNext() {
  const EventCalendar::Entry e = calendar_.PopMin();
  now_ = e.time;
  ++events_processed_;
  // Move the callback out of the slab before running it: the callback may
  // schedule new events, which can grow (reallocate) the slab.
  Callback cb = std::move(slots_[e.payload]);
  free_slots_.push_back(e.payload);
  cb();
}

void Simulator::Run() {
  while (!calendar_.empty()) DispatchNext();
}

}  // namespace oodb::sim
