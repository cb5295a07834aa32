#include "gtest/gtest.h"

#include <string>
#include <vector>

#include "cc/cc_config.h"
#include "cc/lock_manager.h"
#include "core/bench_report.h"
#include "core/engineering_db.h"
#include "core/model_config.h"
#include "core/policy_registry.h"
#include "core/scenario.h"
#include "exec/experiment_runner.h"
#include "obs/span_profiler.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace oodb {
namespace {

using cc::CcConfig;
using cc::LockManager;
using cc::LockMode;

// ----------------------------------------------------------- lock manager
//
// The unit tests drive the manager with bare coroutines on a Simulator,
// the same way TxnPipeline does, and record grant/deny outcomes in
// arrival order.

CcConfig FastCc() {
  CcConfig cfg;
  cfg.enabled = true;
  cfg.lock_timeout_s = 1.0;
  return cfg;
}

struct LockProbe {
  bool done = false;
  bool granted = false;
  double at = 0;
};

sim::Task AcquireAndHold(sim::Simulator& sim, LockManager& lm, cc::TxnId txn,
                         cc::LockKey key, LockMode mode, LockProbe& probe) {
  probe.granted = co_await lm.Acquire(txn, key, mode);
  probe.done = true;
  probe.at = sim.now();
}

TEST(LockManagerTest, SharedLocksCoexistExclusiveConflicts) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe s1, s2, x1;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 42, LockMode::kShared, s1));
  sim::Spawn(AcquireAndHold(sim, lm, 2, 42, LockMode::kShared, s2));
  // Spawn runs eagerly: both shared grants are immediate.
  EXPECT_TRUE(s1.done && s1.granted);
  EXPECT_TRUE(s2.done && s2.granted);
  EXPECT_TRUE(lm.Holds(1, 42, LockMode::kShared));
  EXPECT_TRUE(lm.Holds(2, 42, LockMode::kShared));
  EXPECT_FALSE(lm.Holds(1, 42, LockMode::kExclusive));

  sim::Spawn(AcquireAndHold(sim, lm, 3, 42, LockMode::kExclusive, x1));
  EXPECT_FALSE(x1.done);  // queued behind the two shared holders
  EXPECT_EQ(lm.queue_length(42), 1u);

  lm.ReleaseAll(1);
  EXPECT_FALSE(x1.done);  // txn 2 still holds shared
  lm.ReleaseAll(2);
  EXPECT_TRUE(x1.done && x1.granted);  // granted synchronously on release
  EXPECT_TRUE(lm.Holds(3, 42, LockMode::kExclusive));

  sim.Run();  // drain the (resolved, no-op) timeout event
  EXPECT_EQ(lm.stats().lock_grants, 3u);
  EXPECT_EQ(lm.stats().lock_waits, 1u);
  EXPECT_EQ(lm.stats().lock_timeouts, 0u);
}

TEST(LockManagerTest, ReentrantAndCoveringGrants) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe x, s;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 7, LockMode::kExclusive, x));
  ASSERT_TRUE(x.done && x.granted);
  // Exclusive covers shared, and re-requests do not double-book.
  sim::Spawn(AcquireAndHold(sim, lm, 1, 7, LockMode::kShared, s));
  EXPECT_TRUE(s.done && s.granted);
  EXPECT_EQ(lm.held_count(1), 1u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.held_count(1), 0u);
  sim.Run();
}

TEST(LockManagerTest, FifoWaitersGrantInArrivalOrderNoQueueJumping) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe holder;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 9, LockMode::kExclusive, holder));
  ASSERT_TRUE(holder.granted);

  // A shared waiter queued behind an exclusive waiter must NOT jump the
  // queue even while the current holder is shared-compatible-after-X.
  std::vector<int> grant_order;
  LockProbe w[3];
  const LockMode modes[3] = {LockMode::kExclusive, LockMode::kShared,
                             LockMode::kShared};
  for (int i = 0; i < 3; ++i) {
    sim::Spawn([](LockManager& m, int idx, LockMode mode, LockProbe& p,
                  std::vector<int>& order) -> sim::Task {
      p.granted = co_await m.Acquire(static_cast<cc::TxnId>(10 + idx), 9, mode);
      p.done = true;
      order.push_back(idx);
    }(lm, i, modes[i], w[i], grant_order));
  }
  EXPECT_EQ(lm.queue_length(9), 3u);

  lm.ReleaseAll(1);
  // The exclusive waiter at the front gets the lock alone...
  EXPECT_TRUE(w[0].done && w[0].granted);
  EXPECT_FALSE(w[1].done);
  EXPECT_FALSE(w[2].done);
  lm.ReleaseAll(10);
  // ...then both shared waiters are granted together, in FIFO order.
  EXPECT_TRUE(w[1].done && w[1].granted);
  EXPECT_TRUE(w[2].done && w[2].granted);
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2}));
  sim.Run();
}

TEST(LockManagerTest, SoleSharedHolderUpgradesInPlace) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe s, up;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 5, LockMode::kShared, s));
  ASSERT_TRUE(s.granted);
  sim::Spawn(AcquireAndHold(sim, lm, 1, 5, LockMode::kExclusive, up));
  EXPECT_TRUE(up.done && up.granted);  // immediate: no other holder
  EXPECT_TRUE(lm.Holds(1, 5, LockMode::kExclusive));
  EXPECT_EQ(lm.held_count(1), 1u);
  lm.ReleaseAll(1);
  sim.Run();
  EXPECT_EQ(lm.stats().lock_timeouts, 0u);
}

sim::Task UpgradeThenRelease(sim::Simulator& sim, LockManager& lm,
                             cc::TxnId txn, cc::LockKey key, LockProbe& probe) {
  probe.granted = co_await lm.Acquire(txn, key, LockMode::kExclusive);
  probe.done = true;
  probe.at = sim.now();
  if (!probe.granted) lm.ReleaseAll(txn);  // abort: drop the shared hold
}

TEST(LockManagerTest, UpgradeDeadlockResolvedByTimeoutVictimRetreats) {
  // The classic upgrade deadlock: two shared holders both request
  // exclusive. Neither can proceed; the first-queued waiter times out,
  // aborts (releasing its shared hold), and the survivor upgrades.
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe s1, s2, u1, u2;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 3, LockMode::kShared, s1));
  sim::Spawn(AcquireAndHold(sim, lm, 2, 3, LockMode::kShared, s2));
  sim::Spawn(UpgradeThenRelease(sim, lm, 1, 3, u1));
  sim::Spawn(UpgradeThenRelease(sim, lm, 2, 3, u2));
  EXPECT_FALSE(u1.done);
  EXPECT_FALSE(u2.done);
  sim.Run();
  // Txn 1 queued first, so its timeout fires first and it is the victim.
  EXPECT_TRUE(u1.done);
  EXPECT_FALSE(u1.granted);
  EXPECT_DOUBLE_EQ(u1.at, 1.0);  // exactly lock_timeout_s on the clock
  EXPECT_TRUE(u2.done);
  EXPECT_TRUE(u2.granted);
  EXPECT_TRUE(lm.Holds(2, 3, LockMode::kExclusive));
  EXPECT_EQ(lm.stats().lock_timeouts, 1u);
  EXPECT_GT(lm.stats().lock_wait_time_s, 0.0);
}

TEST(LockManagerTest, CrossObjectDeadlockVictimIsFirstEnqueued) {
  // txn 1 holds A and wants B; txn 2 holds B and wants A. The wait-for
  // cycle cannot resolve by releases, so the first-enqueued waiter times
  // out deterministically and the other grants on its ReleaseAll.
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe a1, b2, want_b, want_a;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 100, LockMode::kExclusive, a1));
  sim::Spawn(AcquireAndHold(sim, lm, 2, 200, LockMode::kExclusive, b2));
  ASSERT_TRUE(a1.granted && b2.granted);

  sim::Spawn([](sim::Simulator& s, LockManager& m, LockProbe& p) -> sim::Task {
    p.granted = co_await m.Acquire(1, 200, LockMode::kExclusive);
    p.done = true;
    p.at = s.now();
    if (!p.granted) m.ReleaseAll(1);
  }(sim, lm, want_b));
  sim::Spawn([](sim::Simulator& s, LockManager& m, LockProbe& p) -> sim::Task {
    p.granted = co_await m.Acquire(2, 100, LockMode::kExclusive);
    p.done = true;
    p.at = s.now();
    if (!p.granted) m.ReleaseAll(2);
  }(sim, lm, want_a));

  sim.Run();
  EXPECT_TRUE(want_b.done);
  EXPECT_FALSE(want_b.granted);  // txn 1 enqueued first: the victim
  EXPECT_TRUE(want_a.done);
  EXPECT_TRUE(want_a.granted);  // granted by the victim's ReleaseAll
  EXPECT_EQ(lm.stats().lock_timeouts, 1u);
  EXPECT_TRUE(lm.Holds(2, 100, LockMode::kExclusive));
  EXPECT_TRUE(lm.Holds(2, 200, LockMode::kExclusive));
}

sim::Task LatchHold(sim::Simulator& sim, LockManager& lm, cc::LockKey key,
                    double hold_s, std::vector<double>& acquired_at) {
  co_await lm.AcquireLatch(key);
  acquired_at.push_back(sim.now());
  co_await sim::Delay(sim, hold_s);
  lm.ReleaseLatch(key);
}

TEST(LockManagerTest, PageLatchesAreExclusiveFifoWithoutTimeout) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  std::vector<double> acquired_at;
  for (int i = 0; i < 4; ++i) {
    sim::Spawn(LatchHold(sim, lm, 77, 2.0, acquired_at));
  }
  sim.Run();
  // Strictly serialised FIFO, and no waiter timed out even though every
  // wait exceeded lock_timeout_s (latches have no timeout).
  EXPECT_EQ(acquired_at, (std::vector<double>{0.0, 2.0, 4.0, 6.0}));
  EXPECT_EQ(lm.stats().latch_grants, 4u);
  EXPECT_EQ(lm.stats().latch_waits, 3u);
  EXPECT_EQ(lm.stats().lock_timeouts, 0u);
  EXPECT_DOUBLE_EQ(lm.stats().latch_wait_time_s, 2.0 + 4.0 + 6.0);
}

// -------------------------------------------------------------- recycling
//
// Released lock, latch and held-key entries are recycled for later keys;
// a recycled entry must carry nothing over from its previous key.

sim::Task HoldFor(sim::Simulator& sim, LockManager& lm, cc::TxnId txn,
                  cc::LockKey key, LockMode mode, double hold_s,
                  LockProbe& probe) {
  probe.granted = co_await lm.Acquire(txn, key, mode);
  probe.done = true;
  probe.at = sim.now();
  co_await sim::Delay(sim, hold_s);
  lm.ReleaseAll(txn);
}

TEST(LockManagerRecyclingTest, ReacquiredKeySeesNoStaleHoldersOrQueue) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe x1, x2;
  sim::Spawn(HoldFor(sim, lm, 1, 5, LockMode::kExclusive, 0.1, x1));
  sim::Spawn(HoldFor(sim, lm, 2, 5, LockMode::kExclusive, 0.1, x2));
  EXPECT_EQ(lm.queue_length(5), 1u);
  sim.Run();  // 1 releases, 2 is granted and releases: key 5 recycled
  ASSERT_TRUE(x1.granted && x2.granted);
  EXPECT_EQ(lm.held_count(1), 0u);
  EXPECT_EQ(lm.held_count(2), 0u);

  // A new key and a new transaction take the recycled entries.
  LockProbe s3, x4;
  sim::Spawn(AcquireAndHold(sim, lm, 3, 6, LockMode::kShared, s3));
  ASSERT_TRUE(s3.done && s3.granted);
  EXPECT_EQ(lm.held_count(3), 1u);
  EXPECT_EQ(lm.queue_length(6), 0u);
  EXPECT_FALSE(lm.Holds(1, 6, LockMode::kShared));
  EXPECT_FALSE(lm.Holds(2, 6, LockMode::kShared));
  EXPECT_FALSE(lm.Holds(3, 5, LockMode::kShared));
  // The only holder of key 6 is txn 3's shared lock: an exclusive request
  // queues behind it alone and is granted when it goes.
  sim::Spawn(AcquireAndHold(sim, lm, 4, 6, LockMode::kExclusive, x4));
  EXPECT_FALSE(x4.done);
  EXPECT_EQ(lm.queue_length(6), 1u);
  lm.ReleaseAll(3);
  EXPECT_TRUE(x4.done && x4.granted);
  // Key 5 again: free, so granted at once.
  LockProbe x5;
  sim::Spawn(AcquireAndHold(sim, lm, 5, 5, LockMode::kExclusive, x5));
  EXPECT_TRUE(x5.done && x5.granted);
  sim.Run();
  EXPECT_EQ(lm.stats().lock_timeouts, 0u);
}

TEST(LockManagerRecyclingTest, HandedOverLatchIsFreeOnceRecycled) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  std::vector<double> acquired_at;
  sim::Spawn(LatchHold(sim, lm, 77, 1.0, acquired_at));
  sim::Spawn(LatchHold(sim, lm, 77, 1.0, acquired_at));
  sim.Run();  // handed over at t=1, released at t=2: entry recycled
  EXPECT_EQ(acquired_at, (std::vector<double>{0.0, 1.0}));
  // Another page takes the recycled entry, which must not be held: the
  // latch is granted without queueing, and so is page 77 again.
  sim::Spawn(LatchHold(sim, lm, 88, 1.0, acquired_at));
  sim::Spawn(LatchHold(sim, lm, 77, 1.0, acquired_at));
  EXPECT_EQ(acquired_at, (std::vector<double>{0.0, 1.0, 2.0, 2.0}));
  sim.Run();
  EXPECT_EQ(lm.stats().latch_grants, 4u);
  EXPECT_EQ(lm.stats().latch_waits, 1u);
}

TEST(LockManagerRecyclingTest, StaleTimeoutLeavesReusedEntryAlone) {
  // Txn 2 waits on key 5 and is granted at t=0.2; its timeout event still
  // fires at t=1.0. By then key 5's entry has been recycled for key 6,
  // where txn 4 is queued since t=0.5. The stale event must be a no-op,
  // and txn 4 must time out at its own deadline, t=1.5.
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe x1, x2, x3, x4;
  sim::Spawn(HoldFor(sim, lm, 1, 5, LockMode::kExclusive, 0.2, x1));
  sim::Spawn(HoldFor(sim, lm, 2, 5, LockMode::kExclusive, 0.1, x2));
  // The later steps run as events at their own times.
  sim.ScheduleAt(0.4, [&] {
    EXPECT_TRUE(x2.done && x2.granted);
    EXPECT_DOUBLE_EQ(x2.at, 0.2);
    EXPECT_EQ(lm.queue_length(5), 0u);
    sim::Spawn(HoldFor(sim, lm, 3, 6, LockMode::kExclusive, 5.0, x3));
    EXPECT_TRUE(x3.granted);
  });
  sim.ScheduleAt(0.5, [&] {
    sim::Spawn(AcquireAndHold(sim, lm, 4, 6, LockMode::kExclusive, x4));
    EXPECT_EQ(lm.queue_length(6), 1u);
  });
  sim.ScheduleAt(1.2, [&] {
    EXPECT_FALSE(x4.done);  // txn 2's stale timeout did not touch it
    EXPECT_EQ(lm.queue_length(6), 1u);
    EXPECT_EQ(lm.stats().lock_timeouts, 0u);
  });
  sim.Run();
  EXPECT_TRUE(x4.done);
  EXPECT_FALSE(x4.granted);
  EXPECT_DOUBLE_EQ(x4.at, 1.5);
  EXPECT_EQ(lm.stats().lock_timeouts, 1u);
  EXPECT_EQ(lm.queue_length(6), 0u);
}

// ------------------------------------------------------------------ model
//
// End-to-end contract on the engineering-database model: the cc layer off
// is byte-invisible, on it is deterministic at any job count.

core::ModelConfig ContentionConfig() {
  core::ModelConfig cfg = core::TestConfig();
  cfg.num_users = 20;
  cfg.think_time_s = 0.1;               // hot closed loop: real overlap
  cfg.workload.read_write_ratio = 2.0;  // write-heavy: exclusive locks
  cfg.cc.enabled = true;
  cfg.cc.lock_timeout_s = 0.25;
  cfg.seed = 11;
  return cfg;
}

TEST(CcModelTest, DisabledCcKnobsAreBitInvisible) {
  // With enabled == false every other cc knob is inert: not one event,
  // RNG draw, or metric may differ from the plain config.
  core::ModelConfig a = core::TestConfig();
  core::ModelConfig b = core::TestConfig();
  b.cc.lock_timeout_s = 0.01;
  b.cc.max_retries = 0;
  b.cc.backoff_base_s = 1.0;
  b.cc.backoff_cap_s = 2.0;
  b.cc.page_latches = false;
  const core::RunResult ra = core::EngineeringDbModel(a).Run();
  const core::RunResult rb = core::EngineeringDbModel(b).Run();
  EXPECT_EQ(ra.response_time.Mean(), rb.response_time.Mean());
  EXPECT_EQ(ra.transactions, rb.transactions);
  EXPECT_EQ(ra.logical_reads, rb.logical_reads);
  EXPECT_EQ(ra.total_physical_ios(), rb.total_physical_ios());
  // No cc.* metric is registered while the subsystem is off, so the
  // snapshot layout (and the JSONL record, which carries no cc object) is
  // exactly the cc-free one.
  EXPECT_EQ(ra.metrics.ToJson(), rb.metrics.ToJson());
  EXPECT_FALSE(rb.metrics.counter("cc.lock_grants").has_value());
  EXPECT_FALSE(rb.metrics.counter("cc.txn_aborts").has_value());
  EXPECT_EQ(rb.cc_txn_aborts, 0u);
  const std::string line = core::BenchReport("t").ToJsonLine(
      core::BenchReport::FromResult("c", "p", "w", rb, 0.0));
  EXPECT_EQ(line.find("\"cc\":"), std::string::npos);
}

TEST(CcModelTest, EnabledCcRunsLocksAndCompletes) {
  const core::RunResult r = core::EngineeringDbModel(ContentionConfig()).Run();
  const auto count = [&r](const char* name) {
    return r.metrics.counter(name).value_or(0);
  };
  EXPECT_GT(r.transactions, 0u);
  EXPECT_GT(count("cc.lock_grants"), 0u);
  // 20 users on a hot write-heavy loop with per-page latches: some
  // request must have queued somewhere.
  EXPECT_GT(count("cc.lock_waits") + count("cc.latch_waits"), 0u);
  // Every abort is either retried or given up, never lost.
  EXPECT_EQ(r.cc_txn_aborts, count("cc.txn_aborts"));
  EXPECT_EQ(count("cc.txn_aborts"),
            count("cc.txn_retries") + count("cc.txn_giveups"));
  // The JSONL cc object is rendered from the snapshot, abort rate per
  // attempt (committed transactions plus aborted attempts).
  const core::BenchReport report("t");
  const std::string line = report.ToJsonLine(
      core::BenchReport::FromResult("c", "p", "w", r, 0.0));
  EXPECT_NE(line.find("\"cc\":{\"txn_aborts\":" +
                      std::to_string(count("cc.txn_aborts")) + ","),
            std::string::npos);
  EXPECT_NE(line.find("\"abort_rate\":"), std::string::npos);
}

TEST(CcModelTest, CcRunsAreIdenticalAcrossJobCounts) {
  core::ModelConfig open = ContentionConfig();
  open.arrival = core::ArrivalProcess::kOpen;
  open.arrival_rate_tps = 50.0;
  std::vector<core::ModelConfig> cells = {ContentionConfig(), open};
  const auto serial = exec::ExperimentRunner(1).Run(cells);
  const auto parallel = exec::ExperimentRunner(4).Run(cells);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    const core::RunResult& a = serial[i].result;
    const core::RunResult& b = parallel[i].result;
    EXPECT_EQ(a.response_time.Mean(), b.response_time.Mean());
    EXPECT_EQ(a.transactions, b.transactions);
    EXPECT_EQ(a.total_physical_ios(), b.total_physical_ios());
    EXPECT_EQ(a.metrics.ToJson(), b.metrics.ToJson());
  }
}

TEST(CcModelTest, OpenArrivalsCompleteAndCount) {
  core::ModelConfig cfg = core::TestConfig();
  cfg.arrival = core::ArrivalProcess::kOpen;
  cfg.arrival_rate_tps = 100.0;
  const core::RunResult r = core::EngineeringDbModel(cfg).Run();
  EXPECT_EQ(r.transactions,
            static_cast<uint64_t>(cfg.measured_transactions));
  EXPECT_GT(r.response_time.Mean(), 0.0);
}

TEST(CcModelTest, SpanAdditivityHoldsWithLockWaitPhase) {
  // DESIGN.md §14 extended by §16: with the lock_wait phase in the
  // taxonomy, per-kind phase ticks still sum exactly to response ticks.
  core::ModelConfig cfg = ContentionConfig();
  cfg.profile_spans = true;
  const core::RunResult r = core::EngineeringDbModel(cfg).Run();
  ASSERT_FALSE(r.span_breakdown.empty());
  for (const obs::SpanKindBreakdown& b : r.span_breakdown) {
    SCOPED_TRACE(b.kind);
    uint64_t sum = 0;
    for (const uint64_t t : b.phase_ticks) sum += t;
    EXPECT_EQ(sum, b.response_ticks);
  }
}

// --------------------------------------------------------------- scenario

TEST(CcScenarioTest, ConcurrencySectionRoundTripsAndGates) {
  const auto spec = core::ParseScenario(R"json({
    "name": "cc_roundtrip",
    "config": {
      "buffer_pages": 64,
      "concurrency": {"enabled": true, "cc_lock_timeout_s": 0.5,
                      "cc_max_retries": 3, "cc_backoff_base_s": 0.02,
                      "cc_backoff_cap_s": 1.0, "cc_page_latches": false},
      "arrival": "Open", "arrival_rate_tps": 40,
      "clustering": {"pool": "No_Clustering"}
    },
    "sweep": {"users": [10, 20]}
  })json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->base.cc.enabled);
  EXPECT_DOUBLE_EQ(spec->base.cc.lock_timeout_s, 0.5);
  EXPECT_EQ(spec->base.cc.max_retries, 3);
  EXPECT_FALSE(spec->base.cc.page_latches);
  EXPECT_EQ(spec->base.arrival, core::ArrivalProcess::kOpen);
  EXPECT_DOUBLE_EQ(spec->base.arrival_rate_tps, 40.0);

  const std::string json = spec->ToJson();
  const auto second = core::ParseScenario(json);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(json, second->ToJson());

  // The users axis is outermost and prefixes the policy label.
  const auto cells = spec->Expand();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].config.num_users, 10);
  EXPECT_EQ(cells[1].config.num_users, 20);
  EXPECT_EQ(cells[0].policy.rfind("10users", 0), 0u) << cells[0].policy;
}

TEST(CcScenarioTest, InertCcKnobsAreErrors) {
  const auto expect_error = [](const char* json, const std::string& needle) {
    const auto spec = core::ParseScenario(json);
    ASSERT_FALSE(spec.ok()) << json;
    EXPECT_NE(spec.status().message().find(needle), std::string::npos)
        << spec.status().ToString();
  };
  // A cc_* knob with the lock manager off is a silent no-op, so it is an
  // error — regardless of key order within the section.
  expect_error(
      R"({"name": "x", "config": {"concurrency": {"cc_max_retries": 3}}})",
      "add \"enabled\": true");
  // arrival_rate_tps only matters under open arrivals.
  expect_error(R"({"name": "x", "config": {"arrival_rate_tps": 40}})",
               "arrival");
  // Order-independent: enabled after the knob is fine.
  EXPECT_TRUE(core::ParseScenario(
                  R"({"name": "x",
                      "config": {"concurrency": {"cc_max_retries": 3,
                                                 "enabled": true}}})")
                  .ok());
}

TEST(CcScenarioTest, ArrivalAxisResolvesThroughRegistry) {
  const core::PolicyRegistry& reg = core::PolicyRegistry::Global();
  EXPECT_EQ(reg.Find(core::PolicyAxis::kArrival, "Closed"),
            static_cast<int>(core::ArrivalProcess::kClosed));
  EXPECT_EQ(reg.Find(core::PolicyAxis::kArrival, "Open"),
            static_cast<int>(core::ArrivalProcess::kOpen));
  EXPECT_EQ(reg.Find(core::PolicyAxis::kArrival, "poisson"),
            static_cast<int>(core::ArrivalProcess::kOpen));
  EXPECT_EQ(reg.Find(core::PolicyAxis::kArrival, "closed_loop"),
            static_cast<int>(core::ArrivalProcess::kClosed));
  EXPECT_FALSE(reg.Find(core::PolicyAxis::kArrival, "batch").has_value());
}

}  // namespace
}  // namespace oodb
