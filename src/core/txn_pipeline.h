#ifndef SEMCLUST_CORE_TXN_PIPELINE_H_
#define SEMCLUST_CORE_TXN_PIPELINE_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cc/lock_manager.h"
#include "core/server_context.h"
#include "core/sharding.h"
#include "sim/process.h"
#include "util/random.h"

/// \file
/// The coroutine transaction-execution layer: the read/write/recluster
/// primitives that charge CPU, disk, and log costs against a wired
/// ServerContext (paper §4.1's per-call cost model), plus the buffer-
/// semantics hooks (context-sensitive boosts and prefetching, §2.2) and
/// the prefetch-effectiveness bookkeeping. Holds the model's single
/// random stream, so the draw sequence is exactly the monolithic
/// model's. No measurement state lives here — the controller observes
/// transactions from the outside.
///
/// Sharding (DESIGN.md §15) threads through this layer as frame-local
/// ShardView references, never pipeline state: a transaction executes on
/// the *home* shard of its target (session CPU, log records, commit
/// forces), and each object access resolves its owner's view and routes
/// the page work there — through FetchPageRouted, which charges the
/// cross-shard hop cost when owner != home. With `shards = 1` every view
/// is the same alias of the single server's components, the routing
/// branch never fires, and the execution is bit-identical to the
/// pre-sharding pipeline.
///
/// Concurrency control (DESIGN.md §16) threads the same way: a
/// frame-local TxnCc pointer (`lk`, null when `ModelConfig::cc` is off)
/// carries the attempt's transaction id and abort flag through the
/// primitives, which acquire strict-2PL object locks before touching
/// data and unwind on a deadlock-timeout abort; ExecuteTransaction then
/// rolls the attempt back through the log manager and retries with
/// jittered exponential backoff. Page latches ride the buffer-fix path
/// directly off `ctx_.locks` and need no per-transaction state.

namespace oodb::core {

class TxnPipeline {
 public:
  explicit TxnPipeline(ServerContext& context);
  ~TxnPipeline();

  TxnPipeline(const TxnPipeline&) = delete;
  TxnPipeline& operator=(const TxnPipeline&) = delete;

  /// Runs one transaction end to end: begin, read or write body, commit
  /// (with the configured log-force policy), trace records included.
  sim::Task ExecuteTransaction(const workload::TransactionSpec& spec);

  // Logical-operation counters (cumulative; reset at the measurement
  // boundary by the controller).
  uint64_t logical_reads() const { return logical_reads_; }
  uint64_t logical_writes() const { return logical_writes_; }

  /// Resets the logical counters and forgets warmup-era prefetches, so
  /// the measured window keeps the invariant hits + wasted <= issued.
  void ResetMeasurementState();

 private:
  // Every primitive below takes the running transaction's span recorder
  // (`prof`, null when profiling is off) and attributes the simulated
  // time of each of its awaits to one phase of the additive taxonomy
  // (DESIGN.md §14). The recorder lives in ExecuteTransaction's coroutine
  // frame — transactions interleave at every await, so it cannot be
  // pipeline state — and is threaded down by pointer. ShardView
  // references ride the same way: `home` is the transaction's session
  // shard, `at` the shard whose components execute the page work.

  /// Frame-local concurrency state of one transaction *attempt*,
  /// threaded by pointer (`lk`) exactly like the span recorder — null
  /// when the cc subsystem is off, so the disabled pipeline takes no
  /// lock branch anywhere. Primitives that acquire locks set `aborted`
  /// on a deadlock timeout; callers check it after every awaited
  /// sub-primitive and unwind without further mutation.
  struct TxnCc {
    txlog::TxnId txn = 0;
    bool aborted = false;
  };
  static bool Aborted(const TxnCc* lk) {
    return lk != nullptr && lk->aborted;
  }

  /// Acquires `id` in `mode` for `lk->txn` through the lock manager:
  /// records any queueing delay as a `lock_wait` span leaf and in the
  /// cc wait histogram, emits grant/wait/timeout trace events, and sets
  /// `lk->aborted` when the wait timed out. Only called with a live
  /// lock manager.
  sim::Task LockObject(TxnCc* lk, obj::ObjectId id, cc::LockMode mode,
                       obs::SpanRecorder* prof);

  /// Undoes an aborted attempt's dirty work: walks the pages the log
  /// manager saw the transaction touch (sorted — deterministic), fetches
  /// each, re-dirties it, and appends an object-sized compensation log
  /// record. Physical re-organisation (splits, reclustering moves) is
  /// not undone — like real schema-modification operations, placement
  /// changes are orthogonal to logical atomicity.
  sim::Task RollbackTransaction(const ShardView& home, txlog::TxnId txn,
                                obs::SpanRecorder* prof);

  // Read-side primitives.
  sim::Task AccessObject(const ShardView& home, obj::ObjectId id,
                         obj::TypeId from_type, int nav_kind, TxnCc* lk,
                         obs::SpanRecorder* prof);
  /// Makes `page` resident in `at`'s pool, charging `at`'s I/O. With
  /// `pin`, the page is pinned before any suspension and stays pinned on
  /// return (caller unpins) — required when the caller mutates the frame
  /// after the awaits.
  sim::Task FetchPage(const ShardView& at, store::PageId page,
                      obs::SpanRecorder* prof, bool pin = false);
  /// FetchPage routed across shards: local when `at` is `home`'s shard,
  /// otherwise a request hop on home's NIC, the fetch on `at`, and a
  /// response hop back — the whole remote interval recorded as one
  /// `remote_fetch_wait` leaf (the inner fetch runs unprofiled so the
  /// span taxonomy stays additive).
  sim::Task FetchPageRouted(const ShardView& home, const ShardView& at,
                            store::PageId page, obs::SpanRecorder* prof,
                            bool pin = false);
  sim::Task ReadQuery(const ShardView& home,
                      const workload::TransactionSpec& spec, TxnCc* lk,
                      obs::SpanRecorder* prof);
  /// Stack, neighbour snapshot and visited set of one ReadQuery.
  struct QueryScratch;
  /// A QueryScratch leased from `scratch_pool_` for the life of one
  /// ReadQuery. Transactions interleave at every await, so two live
  /// queries never share one; the pool grows to the largest number of
  /// queries ever live at once, and traversals then allocate nothing.
  class ScratchLease;

  // Write-side primitives.
  sim::Task WriteQuery(const ShardView& home,
                       const workload::TransactionSpec& spec,
                       txlog::TxnId txn, TxnCc* lk,
                       obs::SpanRecorder* prof);
  sim::Task LogAndDirty(const ShardView& home, const ShardView& at,
                        txlog::TxnId txn, store::PageId page,
                        uint32_t object_size, obs::SpanRecorder* prof);
  /// Object-level write that tolerates concurrent deletion of `id`.
  sim::Task WriteObject(const ShardView& home, txlog::TxnId txn,
                        obj::ObjectId id, TxnCc* lk,
                        obs::SpanRecorder* prof);
  sim::Task ChargeExamReads(const ShardView& at,
                            const cluster::PlacementReport& report,
                            obs::SpanRecorder* prof);
  sim::Task ChargeSplit(const ShardView& home, const ShardView& at,
                        txlog::TxnId txn,
                        const cluster::PlacementReport& report,
                        obs::SpanRecorder* prof);
  sim::Task ChargePlacement(const ShardView& home, const ShardView& at,
                            txlog::TxnId txn,
                            const cluster::PlacementReport& report,
                            obj::ObjectId placed, obs::SpanRecorder* prof);
  sim::Task ReclusterAfterStructureChange(const ShardView& home,
                                          txlog::TxnId txn,
                                          obj::ObjectId id, TxnCc* lk,
                                          obs::SpanRecorder* prof);
  /// Dynamic re-clustering drain (src/dyn/), run at the end of every
  /// transaction before its commit: consolidates the access tracker when
  /// its observation period elapses, asks the DSTC/OPCF policy which
  /// clustering units may execute now, and charges every touched page and
  /// log record to this transaction on the virtual clock. Only called
  /// when a dynamic policy is enabled (which Validate rejects for
  /// shards > 1, so `home` is always the single server here).
  sim::Task MaybeReorganize(const ShardView& home, txlog::TxnId txn,
                            TxnCc* lk, obs::SpanRecorder* prof);

  sim::Task ChargeCpu(const ShardView& at, double instructions,
                      obs::SpanRecorder* prof);
  sim::Task ChargeLogFlushes(const ShardView& home, int flushes,
                             obs::SpanRecorder* prof);

  // Buffer-semantics hooks (boosts + prefetch) after an object access,
  // against the components of the shard that holds the object.
  void PostAccess(const ShardView& at, obj::ObjectId id);
  void StartPrefetch(const ShardView& at, store::PageId page);
  void OnPrefetchComplete(int shard, store::PageId page);

  /// Prefetch bookkeeping key: pages live per shard, so the maps below
  /// key on (shard, page). Shard 0 keys equal the bare page id, and the
  /// maps are never iterated, so the single-server draw/metric sequence
  /// is untouched by the wider key.
  static uint64_t PrefetchKey(int shard, store::PageId page) {
    return (static_cast<uint64_t>(shard) << 32) |
           static_cast<uint64_t>(page);
  }

  /// Awaits completion of an in-flight prefetch keyed by PrefetchKey.
  class PrefetchJoin {
   public:
    PrefetchJoin(TxnPipeline& pipeline, uint64_t key)
        : pipeline_(pipeline), key_(key) {}
    bool await_ready() const {
      return pipeline_.inflight_.find(key_) == pipeline_.inflight_.end();
    }
    void await_suspend(std::coroutine_handle<> h) {
      pipeline_.inflight_[key_].push_back(h);
    }
    void await_resume() {}

   private:
    TxnPipeline& pipeline_;
    uint64_t key_;
  };

  /// Prefetch-effectiveness bookkeeping around a Fix: if the eviction the
  /// fix caused threw out a prefetched-but-never-referenced page, that
  /// prefetch was wasted.
  void NotePrefetchEviction(int shard,
                            const buffer::BufferPool::FixResult& fix);
  /// Records a demand access to `page` on `shard`; a pending prefetch of
  /// it counts as a prefetch hit.
  void NotePrefetchDemand(int shard, store::PageId page);

  ServerContext& ctx_;
  Rng rng_;

  txlog::TxnId next_txn_ = 1;
  uint64_t logical_reads_ = 0;
  uint64_t logical_writes_ = 0;

  // In-flight prefetch reads: (shard, page) key -> waiting processes.
  std::unordered_map<uint64_t, std::vector<std::coroutine_handle<>>>
      inflight_;

  // Pages brought in (or being brought in) by prefetch that no demand
  // access has referenced yet: a later demand access scores a hit, an
  // eviction first scores a waste. Keyed like `inflight_`.
  std::unordered_set<uint64_t> prefetched_unused_;

  std::vector<std::unique_ptr<QueryScratch>> scratch_pool_;
};

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_TXN_PIPELINE_H_
