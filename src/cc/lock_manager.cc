#include "cc/lock_manager.h"

#include <algorithm>

#include "util/check.h"

namespace oodb::cc {

LockManager::LockManager(sim::Simulator& sim, const CcConfig& config)
    : sim_(sim), config_(config) {}

LockManager::~LockManager() = default;

bool LockManager::CompatibleWithHolders(const LockEntry& entry, TxnId txn,
                                        LockMode mode) {
  for (const Holder& h : entry.holders) {
    if (h.txn == txn) continue;  // own hold never conflicts (upgrade case)
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

bool LockManager::Holds(TxnId txn, LockKey key, LockMode mode) const {
  const LockEntry* entry = locks_.Find(key);
  if (entry == nullptr) return false;
  for (const Holder& h : entry->holders) {
    if (h.txn != txn) continue;
    return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
  }
  return false;
}

void LockManager::ApplyGrant(LockEntry& entry, TxnId txn, LockKey key,
                             LockMode mode) {
  for (Holder& h : entry.holders) {
    if (h.txn != txn) continue;
    // Re-grant or S -> X upgrade on the existing hold: the key is
    // already in held_[txn], so ReleaseAll stays single-shot.
    if (mode == LockMode::kExclusive) h.mode = LockMode::kExclusive;
    return;
  }
  entry.holders.push_back(Holder{txn, mode});
  held_.FindOrInsert(txn).push_back(key);
}

bool LockManager::TryImmediateGrant(TxnId txn, LockKey key, LockMode mode) {
  LockEntry& entry = locks_.FindOrInsert(key);
  if (Holds(txn, key, mode)) {
    ++stats_.lock_grants;
    return true;  // already covered; no queue fairness question arises
  }
  // FIFO fairness: a newcomer only bypasses the queue when there is no
  // queue — otherwise a stream of shared requests would starve a queued
  // exclusive one forever.
  if (!entry.queue.empty() || !CompatibleWithHolders(entry, txn, mode)) {
    return false;
  }
  ApplyGrant(entry, txn, key, mode);
  ++stats_.lock_grants;
  return true;
}

void LockManager::GrantWaiters(LockKey key) {
  LockEntry* entry = locks_.Find(key);
  if (entry == nullptr) return;
  // Collect the grantable prefix first, then resume: a resumed waiter
  // runs synchronously and may re-enter the manager (release this very
  // key, even recycle the entry), so no reference may live across a
  // resume.
  const size_t base = resumable_.size();
  while (!entry->queue.empty()) {
    Waiter& w = waiters_[entry->queue.front()];
    if (!CompatibleWithHolders(*entry, w.txn, w.mode)) break;
    ApplyGrant(*entry, w.txn, key, w.mode);
    w.granted = true;
    w.resolved = true;
    ++stats_.lock_grants;
    stats_.lock_wait_time_s += sim_.now() - w.enqueued_s;
    resumable_.push_back(w.handle);
    entry->queue.pop_front();
  }
  if (entry->holders.empty() && entry->queue.empty()) locks_.Erase(key);
  const size_t end = resumable_.size();
  for (size_t i = base; i < end; ++i) resumable_[i].resume();
  resumable_.resize(base);
}

uint32_t LockManager::NewWaiter(TxnId txn, LockMode mode,
                                std::coroutine_handle<> h) {
  uint32_t slot;
  if (free_waiters_.empty()) {
    slot = static_cast<uint32_t>(waiters_.size());
    waiters_.emplace_back();
  } else {
    slot = free_waiters_.back();
    free_waiters_.pop_back();
  }
  waiters_[slot] = Waiter{txn, mode, h, sim_.now(), false, false};
  return slot;
}

void LockManager::OnTimeout(LockKey key, uint32_t slot) {
  // Events cannot be cancelled in the calendar queue; a grant that beat
  // this timeout left the waiter resolved and this event is a no-op.
  if (waiters_[slot].resolved) {
    free_waiters_.push_back(slot);
    return;
  }
  LockEntry* entry = locks_.Find(key);
  OODB_CHECK(entry != nullptr);
  size_t pos = 0;
  while (pos < entry->queue.size() && entry->queue[pos] != slot) ++pos;
  entry->queue.erase(pos);
  Waiter& waiter = waiters_[slot];
  waiter.granted = false;
  waiter.resolved = true;
  ++stats_.lock_timeouts;
  stats_.lock_wait_time_s += sim_.now() - waiter.enqueued_s;
  // Removing a queued request can unblock those behind it (e.g. a
  // timed-out X request that was fencing compatible S requests). Grant
  // them before resuming the victim so the victim's rollback/retry runs
  // after the survivors are on their way — deterministic either way, but
  // this ordering keeps the queue state canonical when the victim
  // re-requests the same key during its retry.
  GrantWaiters(key);
  // The victim reads its outcome from the slot as it resumes; the slot is
  // free for reuse once it has.
  waiters_[slot].handle.resume();
  free_waiters_.push_back(slot);
}

// ---------------------------------------------------------------------------
// LockAwait
// ---------------------------------------------------------------------------

bool LockManager::LockAwait::await_ready() {
  return lm_.TryImmediateGrant(txn_, key_, mode_);
}

void LockManager::LockAwait::await_suspend(std::coroutine_handle<> h) {
  slot_ = lm_.NewWaiter(txn_, mode_, h);
  lm_.locks_.FindOrInsert(key_).queue.push_back(slot_);
  ++lm_.stats_.lock_waits;
  // One timeout event per queued waiter, scheduled up front (no
  // cancellation): whichever of grant/timeout fires second sees
  // `resolved` and no-ops.
  const LockKey key = key_;
  const uint32_t slot = slot_;
  LockManager* lm = &lm_;
  lm_.sim_.Schedule(lm_.config_.lock_timeout_s,
                    [lm, key, slot] { lm->OnTimeout(key, slot); });
}

bool LockManager::LockAwait::await_resume() {
  if (slot_ == kNoWaiter) return true;  // immediate grant via await_ready
  const Waiter& w = lm_.waiters_[slot_];
  OODB_CHECK(w.resolved);
  return w.granted;
}

// ---------------------------------------------------------------------------
// Release
// ---------------------------------------------------------------------------

void LockManager::ReleaseAll(TxnId txn) {
  // Take the key list out of the map: GrantWaiters resumes waiters
  // synchronously and a resumed transaction may mutate held_ (its own
  // acquisitions). The node is recycled once the walk is done.
  auto node = held_.Take(txn);
  if (node.empty()) return;
  std::vector<LockKey>& keys = node.mapped();
  for (const LockKey key : keys) {
    LockEntry* entry = locks_.Find(key);
    if (entry == nullptr) continue;
    entry->holders.erase(
        std::remove_if(entry->holders.begin(), entry->holders.end(),
                       [txn](const Holder& h) { return h.txn == txn; }),
        entry->holders.end());
    if (entry->holders.empty() && entry->queue.empty()) {
      locks_.Erase(key);
      continue;
    }
    GrantWaiters(key);
  }
  keys.clear();
  held_.Recycle(std::move(node));
}

// ---------------------------------------------------------------------------
// Latches
// ---------------------------------------------------------------------------

bool LockManager::LatchAwait::await_ready() {
  LatchEntry& entry = lm_.latches_.FindOrInsert(key_);
  if (entry.held) return false;
  entry.held = true;
  ++lm_.stats_.latch_grants;
  return true;
}

void LockManager::LatchAwait::await_suspend(std::coroutine_handle<> h) {
  lm_.latches_.FindOrInsert(key_).queue.push_back({h, lm_.sim_.now()});
  ++lm_.stats_.latch_waits;
}

void LockManager::ReleaseLatch(LockKey key) {
  LatchEntry* entry = latches_.Find(key);
  OODB_CHECK(entry != nullptr);
  OODB_CHECK(entry->held);
  if (entry->queue.empty()) {
    entry->held = false;  // recycled entries start free
    latches_.Erase(key);
    return;
  }
  // Hand the latch to the FIFO head; it stays held across the transfer.
  const auto [handle, enqueued_s] = entry->queue.pop_front();
  ++stats_.latch_grants;
  stats_.latch_wait_time_s += sim_.now() - enqueued_s;
  handle.resume();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

size_t LockManager::held_count(TxnId txn) const {
  const std::vector<LockKey>* keys = held_.Find(txn);
  return keys == nullptr ? 0 : keys->size();
}

size_t LockManager::queue_length(LockKey key) const {
  const LockEntry* entry = locks_.Find(key);
  return entry == nullptr ? 0 : entry->queue.size();
}

}  // namespace oodb::cc
