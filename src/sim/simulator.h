#ifndef SEMCLUST_SIM_SIMULATOR_H_
#define SEMCLUST_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "sim/event_calendar.h"
#include "sim/small_callback.h"
#include "util/check.h"

/// \file
/// Discrete-event simulation kernel: a virtual clock and an event calendar.
/// This is the foundation of the PAWS-replacement used by the engineering
/// database model (DESIGN.md §2). Events at equal times fire in scheduling
/// order, so runs are fully deterministic.
///
/// The calendar is a Brown-style bucketed queue (EventCalendar) holding
/// (time, seq, slot) triples; callbacks live in a slot slab so calendar
/// entries stay 24 bytes and scheduling performs no heap allocation for
/// the small closures the kernel and model actually use (DESIGN.md §12).

namespace oodb::sim {

/// Simulation time, in seconds of modelled wall-clock time.
using SimTime = double;

/// The event calendar and clock. Single-threaded; not thread-safe.
class Simulator {
 public:
  using Callback = SmallCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  SimTime now() const { return now_; }

  /// Schedules `cb` to run at `now() + delay`. Requires delay >= 0.
  void Schedule(SimTime delay, Callback cb);

  /// Schedules `cb` at absolute time `t`. Requires t >= now().
  void ScheduleAt(SimTime t, Callback cb);

  /// Runs until the event calendar is empty.
  void Run();

  /// Total events processed since construction.
  uint64_t events_processed() const { return events_processed_; }

  /// Total events ever scheduled (processed + still pending). Together
  /// with events_processed() this is the engine's own observability
  /// surface; the model exports both into its metrics registry.
  uint64_t events_scheduled() const { return next_seq_; }

  /// True when no events are pending.
  bool Empty() const { return calendar_.empty(); }

 private:
  /// Pops the least (time, seq) event, advances the clock, and runs its
  /// callback (which may schedule further events).
  void DispatchNext();

  uint32_t AllocSlot(Callback cb);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  EventCalendar calendar_;
  /// Callback slab indexed by EventCalendar payload; free_slots_ recycles
  /// indices so the slab stays as small as the peak pending-event count.
  std::vector<Callback> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace oodb::sim

#endif  // SEMCLUST_SIM_SIMULATOR_H_
