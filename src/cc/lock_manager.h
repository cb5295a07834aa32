#ifndef SEMCLUST_CC_LOCK_MANAGER_H_
#define SEMCLUST_CC_LOCK_MANAGER_H_

#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "cc/cc_config.h"
#include "sim/simulator.h"
#include "util/recycling_map.h"
#include "util/ring_queue.h"

/// \file
/// Object-level strict two-phase locking on the virtual clock: shared /
/// exclusive lock modes with per-object FIFO wait queues, deadlock
/// handling by deterministic wait-timeout presumed-abort, and per-page
/// exclusive latches guarding the buffer-fix path.
///
/// Determinism: the manager schedules exactly one simulator event per
/// queued waiter (its timeout) and resumes waiters synchronously from
/// the releasing transaction's frame — the same synchronous-resume
/// contract sim::Resource::Complete honours — so grant order is a pure
/// function of the (time, seq) event order and jobs1 == jobs4 exactly.
/// The manager draws no random numbers; retry-backoff jitter is the
/// caller's, keyed on the per-transaction seed.
///
/// Deadlocks resolve by timeout, not a waits-for graph: a waiter queued
/// longer than `CcConfig::lock_timeout_s` is removed and resumed with
/// `granted == false`, and its transaction aborts, rolls back through
/// the log manager, releases everything, and retries with exponential
/// backoff. Latches cannot deadlock — a transaction holds at most one at
/// a time and never waits on a lock while holding one — so they have no
/// timeout.
///
/// Allocation: nothing is allocated per request in steady state. Lock,
/// latch and held-key entries live in RecyclingMaps, so releasing a key
/// recycles its entry (holder vector and queue capacity included) for the
/// next key; wait queues are RingQueues; queued lock requests live in a
/// slab of Waiter slots, each freed by its own timeout event.

namespace oodb::cc {

using TxnId = uint64_t;
/// Lock keys are widened object ids; latch keys are (shard, page) packed
/// the way TxnPipeline::PrefetchKey packs them.
using LockKey = uint64_t;

enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

/// Cumulative manager-side counters, mirrored into the metrics registry
/// by the measurement controller (set-semantics, like the buffer/io/log
/// component counters).
struct LockStats {
  uint64_t lock_grants = 0;    ///< acquisitions granted (immediate + queued)
  uint64_t lock_waits = 0;     ///< acquisitions that had to queue
  uint64_t lock_timeouts = 0;  ///< waits resolved by deadlock timeout
  uint64_t latch_grants = 0;   ///< page-latch acquisitions granted
  uint64_t latch_waits = 0;    ///< page-latch acquisitions that queued
  double lock_wait_time_s = 0;   ///< total simulated time in lock queues
  double latch_wait_time_s = 0;  ///< total simulated time in latch queues
};

class LockManager {
  struct LockEntry;
  struct LatchEntry;
  static constexpr uint32_t kNoWaiter = UINT32_MAX;

 public:
  LockManager(sim::Simulator& sim, const CcConfig& config);
  ~LockManager();

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Awaitable lock request. `co_await` yields true when the lock was
  /// granted (strict 2PL: it is then held until ReleaseAll) and false
  /// when the wait timed out — the transaction must abort.
  class LockAwait {
   public:
    LockAwait(LockManager& lm, TxnId txn, LockKey key, LockMode mode)
        : lm_(lm), txn_(txn), key_(key), mode_(mode) {}
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    bool await_resume();

   private:
    LockManager& lm_;
    TxnId txn_;
    LockKey key_;
    LockMode mode_;
    /// The queued request's Waiter slot; kNoWaiter after an immediate
    /// grant.
    uint32_t slot_ = kNoWaiter;
  };

  /// Awaitable exclusive page latch. Always granted (FIFO, no timeout).
  class LatchAwait {
   public:
    LatchAwait(LockManager& lm, LockKey key) : lm_(lm), key_(key) {}
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}

   private:
    LockManager& lm_;
    LockKey key_;
  };

  /// Requests `key` in `mode` for `txn`. Re-entrant: a mode already
  /// covered by a held lock grants immediately; a shared holder
  /// requesting exclusive upgrades (in place when it is the only holder,
  /// through the FIFO queue otherwise — two upgraders deadlock and one
  /// times out, the classic upgrade deadlock).
  LockAwait Acquire(TxnId txn, LockKey key, LockMode mode) {
    return LockAwait(*this, txn, key, mode);
  }

  /// True when `txn` holds `key` in a mode covering `mode`.
  bool Holds(TxnId txn, LockKey key, LockMode mode) const;

  /// Releases every lock `txn` holds (commit or abort — strict 2PL
  /// releases nothing earlier), granting unblocked waiters FIFO with
  /// synchronous resume.
  void ReleaseAll(TxnId txn);

  LatchAwait AcquireLatch(LockKey key) { return LatchAwait(*this, key); }
  void ReleaseLatch(LockKey key);

  const LockStats& stats() const { return stats_; }
  /// Zeroes the counters at the warmup/measured boundary; held locks and
  /// queued waiters are untouched (in-flight transactions straddle the
  /// boundary, same semantics as the I/O counters).
  void ResetStats() { stats_ = LockStats{}; }

  /// Introspection for tests.
  size_t held_count(TxnId txn) const;
  size_t queue_length(LockKey key) const;

 private:
  bool TryImmediateGrant(TxnId txn, LockKey key, LockMode mode);
  /// True when `txn` may hold/receive `key` in `mode` given the current
  /// holders (ignoring `txn`'s own shared hold for upgrades).
  static bool CompatibleWithHolders(const LockEntry& entry, TxnId txn,
                                    LockMode mode);
  void ApplyGrant(LockEntry& entry, TxnId txn, LockKey key, LockMode mode);
  /// Grants every now-compatible waiter from the queue front (FIFO),
  /// resuming each synchronously. `key`'s entry may be recycled on
  /// return.
  void GrantWaiters(LockKey key);
  /// The timeout event of the request in Waiter slot `slot`: times the
  /// request out unless a grant resolved it first, then frees the slot.
  void OnTimeout(LockKey key, uint32_t slot);

  struct Holder {
    TxnId txn;
    LockMode mode;
  };

  struct Waiter {
    TxnId txn = 0;
    LockMode mode = LockMode::kShared;
    std::coroutine_handle<> handle;
    double enqueued_s = 0;
    bool granted = false;
    bool resolved = false;  ///< granted or timed out; the other path no-ops
  };

  struct LockEntry {
    std::vector<Holder> holders;
    RingQueue<uint32_t> queue;  ///< Waiter slots, FIFO
  };

  struct LatchEntry {
    bool held = false;
    RingQueue<std::pair<std::coroutine_handle<>, double>> queue;
  };

  uint32_t NewWaiter(TxnId txn, LockMode mode, std::coroutine_handle<> h);

  sim::Simulator& sim_;
  CcConfig config_;
  LockStats stats_;
  RecyclingMap<LockKey, LockEntry> locks_;
  RecyclingMap<LockKey, LatchEntry> latches_;
  /// Keys each transaction holds, in acquisition order — ReleaseAll walks
  /// this vector, never a hash map, so release order is deterministic.
  RecyclingMap<TxnId, std::vector<LockKey>> held_;
  /// Slab of queued lock requests. A slot stays taken until its timeout
  /// event fires, since that event always fires (the calendar cannot
  /// cancel one); it is then reused through `free_waiters_`.
  std::vector<Waiter> waiters_;
  std::vector<uint32_t> free_waiters_;
  /// Handles GrantWaiters is about to resume, used as a stack: a resumed
  /// waiter may re-enter GrantWaiters, which pushes above the caller's
  /// entries and pops back to them before it returns.
  std::vector<std::coroutine_handle<>> resumable_;
};

}  // namespace oodb::cc

#endif  // SEMCLUST_CC_LOCK_MANAGER_H_
