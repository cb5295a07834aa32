#include <algorithm>
#include <coroutine>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "sim/event_calendar.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace oodb::sim {
namespace {

// ---------------------------------------------------------------- kernel

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, EqualTimesFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, HandlersMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] {
    ++fired;
    sim.Schedule(1.0, [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(SimulatorTest, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(1.0, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

// --------------------------------------------------------- event calendar

TEST(EventCalendarTest, PopsInTimeThenSeqOrder) {
  EventCalendar cal;
  Rng rng(7);
  std::vector<EventCalendar::Entry> expect;
  for (uint32_t i = 0; i < 500; ++i) {
    // Quantised times force collisions, exercising the seq tie-break.
    const double t = 0.5 * static_cast<double>(rng.NextBelow(100));
    cal.Push(t, i, i);
    expect.push_back(EventCalendar::Entry{t, i, i});
  }
  std::sort(expect.begin(), expect.end(),
            [](const EventCalendar::Entry& a, const EventCalendar::Entry& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.seq < b.seq;
            });
  for (const EventCalendar::Entry& want : expect) {
    ASSERT_FALSE(cal.empty());
    const EventCalendar::Entry got = cal.PopMin();
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.payload, want.payload);
  }
  EXPECT_TRUE(cal.empty());
}

TEST(EventCalendarTest, EarlierPushRewindsCursor) {
  EventCalendar cal;
  cal.Push(1000.0, 0, 0);
  cal.Push(1001.0, 2, 2);
  EXPECT_EQ(cal.PopMin().payload, 0u);  // cursor now points far ahead
  cal.Push(1.0, 1, 1);                  // lands behind the cursor: rewind
  EXPECT_EQ(cal.PopMin().payload, 1u);
  EXPECT_EQ(cal.PopMin().payload, 2u);
  EXPECT_TRUE(cal.empty());
}

TEST(EventCalendarTest, GrowsAndShrinksWithPopulation) {
  EventCalendar cal;
  const size_t cold = cal.bucket_count();
  for (uint32_t i = 0; i < 4096; ++i) {
    cal.Push(0.1 * static_cast<double>(i % 97), i, i);
  }
  EXPECT_GT(cal.bucket_count(), cold);
  double prev_time = -1.0;
  uint64_t prev_seq = 0;
  while (!cal.empty()) {
    const EventCalendar::Entry e = cal.PopMin();
    ASSERT_TRUE(e.time > prev_time ||
                (e.time == prev_time && e.seq > prev_seq));
    prev_time = e.time;
    prev_seq = e.seq;
  }
  EXPECT_EQ(cal.bucket_count(), cold);  // shrank back once drained
}

TEST(EventCalendarTest, SparseFarFutureEventsAreFound) {
  // Events many laps ahead of the cursor: exercises the direct-search
  // fallback after a fruitless full-lap scan.
  EventCalendar cal;
  cal.Push(0.5, 0, 0);
  cal.Push(1e7, 1, 1);
  cal.Push(1e9, 2, 2);
  EXPECT_EQ(cal.PopMin().payload, 0u);
  EXPECT_EQ(cal.PopMin().payload, 1u);
  EXPECT_EQ(cal.PopMin().payload, 2u);
}

// The calendar-backed Simulator must dispatch exactly like the textbook
// priority-queue-of-(time, seq) kernel it replaced: same event order, same
// clock values, same counters. Both systems run one deterministic
// pre-generated plan: event `tag` spawns children with delays
// `child_delays[tag]`, tags handed out in scheduling order.
struct RefEvent {
  double time;
  uint64_t seq;
  int tag;
  bool operator>(const RefEvent& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

TEST(EventCalendarTest, SimulatorMatchesReferencePriorityQueue) {
  constexpr int kMaxEvents = 5000;
  constexpr int kInitial = 64;
  Rng rng(20260809);
  std::vector<std::vector<double>> child_delays(kMaxEvents);
  for (auto& delays : child_delays) {
    const size_t n = rng.NextBelow(3);
    for (size_t i = 0; i < n; ++i) {
      // Quantised delays force equal-time collisions; the occasional long
      // delay forces calendar resizes and sparse-tail searches.
      double d = 0.25 * static_cast<double>(1 + rng.NextBelow(16));
      if (rng.NextBelow(20) == 0) d += 500.0;
      delays.push_back(d);
    }
  }
  std::vector<double> initial_times;
  for (int i = 0; i < kInitial; ++i) {
    initial_times.push_back(0.5 * static_cast<double>(rng.NextBelow(40)));
  }

  // System under test: the Simulator and its calendar queue.
  std::vector<std::pair<double, int>> sim_order;
  Simulator sim;
  int next_tag = 0;
  std::function<void(int)> fire = [&](int tag) {
    sim_order.emplace_back(sim.now(), tag);
    for (double d : child_delays[tag]) {
      if (next_tag >= kMaxEvents) break;
      const int child = next_tag++;
      sim.Schedule(d, [&fire, child] { fire(child); });
    }
  };
  for (double t : initial_times) {
    const int tag = next_tag++;
    sim.ScheduleAt(t, [&fire, tag] { fire(tag); });
  }
  sim.Run();

  // Reference: plain min-heap on (time, seq).
  std::vector<std::pair<double, int>> ref_order;
  std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<RefEvent>>
      pq;
  uint64_t ref_seq = 0;
  uint64_t ref_processed = 0;
  int ref_next_tag = 0;
  for (double t : initial_times) {
    pq.push(RefEvent{t, ref_seq++, ref_next_tag++});
  }
  while (!pq.empty()) {
    const RefEvent e = pq.top();
    pq.pop();
    ++ref_processed;
    ref_order.emplace_back(e.time, e.tag);
    for (double d : child_delays[e.tag]) {
      if (ref_next_tag >= kMaxEvents) break;
      pq.push(RefEvent{e.time + d, ref_seq++, ref_next_tag++});
    }
  }

  ASSERT_EQ(sim_order.size(), ref_order.size());
  for (size_t i = 0; i < ref_order.size(); ++i) {
    EXPECT_EQ(sim_order[i].first, ref_order[i].first) << "event " << i;
    EXPECT_EQ(sim_order[i].second, ref_order[i].second) << "event " << i;
  }
  EXPECT_EQ(sim.events_processed(), ref_processed);
  EXPECT_EQ(sim.events_scheduled(), ref_seq);
}

// --------------------------------------------------------- small callback

TEST(SmallCallbackTest, InlineLambdaInvokes) {
  int calls = 0;
  SmallCallback cb([&calls] { ++calls; });
  EXPECT_TRUE(static_cast<bool>(cb));
  cb();
  EXPECT_EQ(calls, 1);
}

TEST(SmallCallbackTest, MoveTransfersOwnership) {
  int calls = 0;
  SmallCallback a([&calls] { ++calls; });
  SmallCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(calls, 1);
}

TEST(SmallCallbackTest, LargeCaptureFallsBackToHeap) {
  // Capture larger than the inline buffer: must still work (heap path).
  struct Big {
    char fill[128] = {};
    int* counter = nullptr;
  };
  int calls = 0;
  Big big;
  big.counter = &calls;
  SmallCallback cb([big] { ++*big.counter; });
  SmallCallback moved = std::move(cb);
  moved();
  EXPECT_EQ(calls, 1);
}

TEST(SmallCallbackTest, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    SmallCallback cb([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // callback keeps the capture alive
    SmallCallback moved = std::move(cb);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());  // destroyed with the callback, once
}

// ---------------------------------------------------------------- process

Task RecordAfterDelay(Simulator& sim, double delay, std::vector<double>& log) {
  co_await Delay(sim, delay);
  log.push_back(sim.now());
}

TEST(ProcessTest, DelayResumesAtRightTime) {
  Simulator sim;
  std::vector<double> log;
  Spawn(RecordAfterDelay(sim, 2.5, log));
  sim.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 2.5);
}

Task TwoPhase(Simulator& sim, std::vector<double>& log) {
  co_await Delay(sim, 1.0);
  log.push_back(sim.now());
  co_await Delay(sim, 2.0);
  log.push_back(sim.now());
}

TEST(ProcessTest, SequentialAwaitsAccumulate) {
  Simulator sim;
  std::vector<double> log;
  Spawn(TwoPhase(sim, log));
  sim.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log[0], 1.0);
  EXPECT_DOUBLE_EQ(log[1], 3.0);
}

Task Inner(Simulator& sim, std::vector<int>& log) {
  log.push_back(1);
  co_await Delay(sim, 1.0);
  log.push_back(2);
}

Task Outer(Simulator& sim, std::vector<int>& log) {
  log.push_back(0);
  co_await Inner(sim, log);
  log.push_back(3);
}

TEST(ProcessTest, NestedTasksResumeParent) {
  Simulator sim;
  std::vector<int> log;
  Spawn(Outer(sim, log));
  sim.Run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ProcessTest, ZeroDelayDoesNotSuspend) {
  Simulator sim;
  std::vector<double> log;
  Spawn(RecordAfterDelay(sim, 0.0, log));
  // Spawn runs eagerly to the first real suspension; zero delay is ready.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 0.0);
}

// -------------------------------------------------------------- frame pool

using internal::FramePool;

TEST(FramePoolTest, ReusesFramesLifoWithinASizeClass) {
  // Frames of 100 and 120 bytes share the 128-byte class.
  void* a = FramePool::Allocate(100);
  void* b = FramePool::Allocate(120);
  const size_t cached = FramePool::CachedFrames();
  FramePool::Deallocate(a, 100);
  FramePool::Deallocate(b, 120);
  EXPECT_EQ(FramePool::CachedFrames(), cached + 2);
  EXPECT_EQ(FramePool::Allocate(110), b);  // last freed, first reused
  EXPECT_EQ(FramePool::Allocate(70), a);
  EXPECT_EQ(FramePool::CachedFrames(), cached);
  // Another class does not take them.
  void* small = FramePool::Allocate(40);
  EXPECT_NE(small, a);
  EXPECT_NE(small, b);
  FramePool::Deallocate(small, 40);
  FramePool::Deallocate(a, 70);
  FramePool::Deallocate(b, 110);
}

TEST(FramePoolTest, FramesAboveTheCapBypassThePool) {
  const size_t big = FramePool::kMaxPooledBytes + 1;
  const size_t cached = FramePool::CachedFrames();
  void* frame = FramePool::Allocate(big);
  FramePool::Deallocate(frame, big);
  EXPECT_EQ(FramePool::CachedFrames(), cached);
  void* at_cap = FramePool::Allocate(FramePool::kMaxPooledBytes);
  FramePool::Deallocate(at_cap, FramePool::kMaxPooledBytes);
  EXPECT_EQ(FramePool::CachedFrames(), cached + 1);
}

TEST(FramePoolTest, TaskFramesComeBackToThePool) {
  Simulator sim;
  std::vector<double> log;
  Spawn(RecordAfterDelay(sim, 1.0, log));
  sim.Run();
  const size_t cached = FramePool::CachedFrames();
  // The same call shape again reuses the frames the first run freed.
  Spawn(RecordAfterDelay(sim, 1.0, log));
  EXPECT_LT(FramePool::CachedFrames(), cached);
  sim.Run();
  EXPECT_EQ(FramePool::CachedFrames(), cached);
  EXPECT_EQ(log.size(), 2u);
}

/// Awaitable that reports the awaiting coroutine's frame address and
/// continues without suspending.
struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;
  }
  void await_resume() const noexcept {}
};

Task RecordFrame(void** out) { co_await FrameAddress{out}; }

TEST(FramePoolDeathTest, TouchingADestroyedTaskFrameIsReported) {
  void* frame = nullptr;
  Spawn(RecordFrame(&frame));  // runs to completion; the frame is pooled
  ASSERT_NE(frame, nullptr);
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_DEATH(*static_cast<volatile char*>(frame) = 1, "use-after-poison");
#else
  GTEST_SKIP() << "needs AddressSanitizer; elsewhere pooled frames are "
                  "not poisoned";
#endif
}

// ---------------------------------------------------------------- resource

Task UseResource(Resource& res, double service, std::vector<double>& done,
                 Simulator& sim) {
  co_await res.Use(service);
  done.push_back(sim.now());
}

TEST(ResourceTest, SingleServerSerialisesRequests) {
  Simulator sim;
  Resource res(sim, "cpu", 1);
  std::vector<double> done;
  Spawn(UseResource(res, 2.0, done, sim));
  Spawn(UseResource(res, 3.0, done, sim));
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 5.0);  // waited for the first
  EXPECT_EQ(res.completions(), 2u);
}

TEST(ResourceTest, TwoServersRunInParallel) {
  Simulator sim;
  Resource res(sim, "disks", 2);
  std::vector<double> done;
  Spawn(UseResource(res, 2.0, done, sim));
  Spawn(UseResource(res, 3.0, done, sim));
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 3.0);  // no queueing
}

TEST(ResourceTest, FcfsOrderAmongWaiters) {
  Simulator sim;
  Resource res(sim, "cpu", 1);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) Spawn(UseResource(res, 1.0, done, sim));
  sim.Run();
  EXPECT_EQ(done, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

Task ArriveThenUse(Simulator& sim, Resource& res, double arrival,
                   double service, int tag, std::vector<int>& done_order,
                   std::vector<double>& done_time) {
  co_await Delay(sim, arrival);
  co_await res.Use(service);
  done_order.push_back(tag);
  done_time.push_back(sim.now());
}

TEST(ResourceTest, DeepQueueStaysFcfsWithNoStarvation) {
  // 256 staggered arrivals with wildly mixed service times against one
  // server. FCFS means completion order must equal arrival order exactly
  // — a short job arriving late can never overtake a long job ahead of it,
  // and no waiter starves no matter how deep the queue grows. Arrival
  // times are quantised so many requests tie, exercising the calendar
  // queue's (time, seq) tie-break through Enqueue.
  constexpr int kJobs = 256;
  Simulator sim;
  Resource res(sim, "cpu", 1);
  std::vector<int> done_order;
  std::vector<double> done_time;
  std::vector<double> arrivals(kJobs), services(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    arrivals[static_cast<size_t>(i)] = 0.25 * (i / 8);  // 8-way arrival ties
    services[static_cast<size_t>(i)] =
        0.125 * static_cast<double>(1 + (i * 7) % 11);
    Spawn(ArriveThenUse(sim, res, arrivals[static_cast<size_t>(i)],
                        services[static_cast<size_t>(i)], i, done_order,
                        done_time));
  }
  sim.Run();

  ASSERT_EQ(done_order.size(), static_cast<size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_EQ(done_order[static_cast<size_t>(i)], i)
        << "completion order diverged from arrival order at position " << i;
  }
  // Exact FCFS replay: start_i = max(arrival_i, done_{i-1}).
  double prev_done = 0.0;
  for (int i = 0; i < kJobs; ++i) {
    const double start = std::max(arrivals[static_cast<size_t>(i)], prev_done);
    prev_done = start + services[static_cast<size_t>(i)];
    EXPECT_DOUBLE_EQ(done_time[static_cast<size_t>(i)], prev_done)
        << "job " << i;
  }
  EXPECT_EQ(res.completions(), static_cast<uint64_t>(kJobs));
}

TEST(ResourceTest, ResidenceTimeIncludesQueueing) {
  Simulator sim;
  Resource res(sim, "cpu", 1);
  std::vector<double> done;
  Spawn(UseResource(res, 2.0, done, sim));
  Spawn(UseResource(res, 2.0, done, sim));
  sim.Run();
  // First: 2s service. Second: 2s wait + 2s service.
  EXPECT_DOUBLE_EQ(res.residence_time().Mean(), 3.0);
  EXPECT_DOUBLE_EQ(res.residence_time().max(), 4.0);
}

TEST(ResourceTest, UtilizationOfAlwaysBusyServerIsOne) {
  Simulator sim;
  Resource res(sim, "cpu", 1);
  std::vector<double> done;
  for (int i = 0; i < 10; ++i) Spawn(UseResource(res, 1.0, done, sim));
  sim.Run();
  EXPECT_NEAR(res.Utilization(), 1.0, 1e-9);
}

TEST(ResourceTest, DetachedUseRunsCallback) {
  Simulator sim;
  Resource res(sim, "disk", 1);
  bool completed = false;
  double completion_time = 0;
  res.UseDetached(1.5, [&] {
    completed = true;
    completion_time = sim.now();
  });
  sim.Run();
  EXPECT_TRUE(completed);
  EXPECT_DOUBLE_EQ(completion_time, 1.5);
  EXPECT_EQ(res.completions(), 1u);
}

TEST(ResourceTest, DetachedAndAwaitedShareTheQueue) {
  Simulator sim;
  Resource res(sim, "disk", 1);
  std::vector<double> done;
  res.UseDetached(2.0);
  Spawn(UseResource(res, 1.0, done, sim));
  sim.Run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 3.0);  // waited behind the detached request
}

// Closed-network sanity: N customers cycling a single server with think
// time have response time bounded below by service and throughput bounded
// by the server rate (a coarse operational-law check).
Task ClosedLoopUser(Simulator& sim, Resource& server, int cycles,
                    int& completed) {
  for (int i = 0; i < cycles; ++i) {
    co_await Delay(sim, 1.0);        // think
    co_await server.Use(0.5);        // service
    ++completed;
  }
}

TEST(ResourceTest, ClosedNetworkThroughputBoundedByServer) {
  Simulator sim;
  Resource server(sim, "cpu", 1);
  int completed = 0;
  for (int u = 0; u < 8; ++u) {
    Spawn(ClosedLoopUser(sim, server, 10, completed));
  }
  sim.Run();
  EXPECT_EQ(completed, 80);
  // 80 jobs x 0.5s service on one server -> at least 40s of busy time.
  EXPECT_GE(sim.now(), 40.0);
}

}  // namespace
}  // namespace oodb::sim
