#include "core/txn_pipeline.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/epoch_set.h"

namespace oodb::core {

namespace {
/// How strongly a structural-neighbour boost lifts a page above plain
/// recency, in units of accesses, scaled by the relationship's affinity
/// weight (which is <= ~1).
constexpr double kContextBoostScale = 8.0;
/// Boost applied to prefetched / prefetch-group pages.
constexpr double kPrefetchBoost = 6.0;
/// Probability that reading an object with by-reference inherited
/// attributes dereferences its inheritance source.
constexpr double kInheritanceDerefProbability = 0.5;
}  // namespace

struct TxnPipeline::QueryScratch {
  std::vector<obj::ObjectId> ids;
  std::vector<std::pair<obj::ObjectId, int>> frontier;
  std::vector<obj::ObjectId> next;
  EpochSet visited;
};

class TxnPipeline::ScratchLease {
 public:
  explicit ScratchLease(TxnPipeline& pipeline)
      : pool_(pipeline.scratch_pool_) {
    if (pool_.empty()) {
      scratch_ = std::make_unique<QueryScratch>();
    } else {
      scratch_ = std::move(pool_.back());
      pool_.pop_back();
      scratch_->ids.clear();
      scratch_->frontier.clear();
      scratch_->next.clear();
      scratch_->visited.Clear();
    }
  }
  ~ScratchLease() { pool_.push_back(std::move(scratch_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  QueryScratch* operator->() const { return scratch_.get(); }

 private:
  std::vector<std::unique_ptr<QueryScratch>>& pool_;
  std::unique_ptr<QueryScratch> scratch_;
};

TxnPipeline::TxnPipeline(ServerContext& context)
    : ctx_(context), rng_(context.config.seed) {}

TxnPipeline::~TxnPipeline() = default;

sim::Task TxnPipeline::LockObject(TxnCc* lk, obj::ObjectId id,
                                  cc::LockMode mode,
                                  obs::SpanRecorder* prof) {
  const double t0 = ctx_.sim.now();
  const bool granted = co_await ctx_.locks->Acquire(
      lk->txn, static_cast<cc::LockKey>(id), mode);
  const double now = ctx_.sim.now();
  if (now > t0) {
    if (prof != nullptr) {
      prof->RecordSpan(obs::SpanPhase::kLockWait, t0, now);
    }
    ctx_.metrics.Observe(ctx_.cc_handles.lock_wait_s, now - t0);
    ctx_.trace.Record(obs::Subsystem::kCore,
                      obs::TraceEventType::kLockWait, lk->txn, id,
                      static_cast<uint64_t>(mode), now - t0);
  }
  if (granted) {
    ctx_.trace.Record(obs::Subsystem::kCore,
                      obs::TraceEventType::kLockGrant, lk->txn, id,
                      static_cast<uint64_t>(mode));
  } else {
    lk->aborted = true;
    ctx_.trace.Record(obs::Subsystem::kCore,
                      obs::TraceEventType::kLockTimeout, lk->txn, id,
                      static_cast<uint64_t>(mode), now - t0);
  }
}

sim::Task TxnPipeline::RollbackTransaction(const ShardView& home,
                                           txlog::TxnId txn,
                                           obs::SpanRecorder* prof) {
  // The attempt's locks are still held (strict 2PL releases only after
  // the rollback), so no concurrent transaction can race these undos.
  for (const store::PageId page : home.log->TouchedPages(txn)) {
    co_await FetchPage(home, page, prof, /*pin=*/true);
    home.buffer->MarkDirty(page);
    home.buffer->Unpin(page);
    // Object-sized compensation record: the before-image for this page
    // is already in the log, so undoing re-logs cheaply.
    co_await ChargeLogFlushes(home, home.log->LogWrite(txn, page, 64),
                              prof);
    ctx_.metrics.Add(ctx_.cc_handles.rollback_pages);
  }
}

sim::Task TxnPipeline::ChargeCpu(const ShardView& at, double instructions,
                                 obs::SpanRecorder* prof) {
  const double t0 = ctx_.sim.now();
  co_await at.cpu->Use(instructions / (ctx_.config.cpu_mips * 1e6));
  if (prof != nullptr) {
    // The CPU resource resumed us synchronously from its Complete, so its
    // last-completed timestamps are this request's: split the interval
    // into queueing wait and service at the dispatch time.
    prof->RecordQueued(obs::SpanPhase::kCpuWait,
                       obs::SpanPhase::kCpuService, t0,
                       at.cpu->last_start_time(), ctx_.sim.now());
  }
}

sim::Task TxnPipeline::ChargeLogFlushes(const ShardView& home, int flushes,
                                        obs::SpanRecorder* prof) {
  for (int i = 0; i < flushes; ++i) {
    // The log stripe round-robins over the disks inside FlushLog, so the
    // caller cannot name the disk to split wait from service; the whole
    // interval is log-force wait.
    const double t0 = ctx_.sim.now();
    co_await home.io->FlushLog();
    if (prof != nullptr) {
      prof->RecordSpan(obs::SpanPhase::kLogForceWait, t0, ctx_.sim.now());
    }
    co_await ChargeCpu(home, ctx_.config.physical_io_instructions, prof);
  }
}

void TxnPipeline::NotePrefetchEviction(
    int shard, const buffer::BufferPool::FixResult& fix) {
  if (fix.evicted_page == store::kInvalidPage) return;
  if (prefetched_unused_.erase(PrefetchKey(shard, fix.evicted_page)) == 0) {
    return;
  }
  ctx_.metrics.Add(ctx_.handles.prefetch_wasted);
  ctx_.trace.Record(obs::Subsystem::kBuffer,
                    obs::TraceEventType::kPrefetchWaste, fix.evicted_page);
}

void TxnPipeline::NotePrefetchDemand(int shard, store::PageId page) {
  if (prefetched_unused_.erase(PrefetchKey(shard, page)) == 0) return;
  ctx_.metrics.Add(ctx_.handles.prefetch_hits);
  ctx_.trace.Record(obs::Subsystem::kBuffer,
                    obs::TraceEventType::kPrefetchHit, page);
}

sim::Task TxnPipeline::FetchPage(const ShardView& at, store::PageId page,
                                 obs::SpanRecorder* prof, bool pin) {
  OODB_CHECK_NE(page, store::kInvalidPage);
  NotePrefetchDemand(at.shard, page);
  const uint64_t key = PrefetchKey(at.shard, page);
  if (inflight_.find(key) != inflight_.end()) {
    // A prefetch for this page is on the disk: join it rather than issuing
    // a duplicate read.
    const double t0 = ctx_.sim.now();
    co_await PrefetchJoin(*this, key);
    if (prof != nullptr) {
      prof->RecordSpan(obs::SpanPhase::kPrefetchOverlap, t0,
                       ctx_.sim.now());
    }
  }
  // Per-page latch (src/cc/): serialise the fix-evict-read sequence so
  // two transactions never race the same frame. Held across this fix's
  // awaits only, never across a lock wait — latches cannot deadlock.
  // The prefetch-completion callback path (OnPrefetchComplete) stays
  // unlatched: it runs synchronously inside an I/O completion event.
  const bool latched =
      ctx_.locks != nullptr && ctx_.config.cc.page_latches;
  if (latched) {
    const double t0 = ctx_.sim.now();
    co_await ctx_.locks->AcquireLatch(key);
    const double now = ctx_.sim.now();
    if (now > t0) {
      if (prof != nullptr) {
        prof->RecordSpan(obs::SpanPhase::kLockWait, t0, now);
      }
      ctx_.metrics.Observe(ctx_.cc_handles.latch_wait_s, now - t0);
      ctx_.trace.Record(obs::Subsystem::kBuffer,
                        obs::TraceEventType::kLatchWait, 0, key, 0,
                        now - t0);
    }
  }
  const auto fix = at.buffer->Fix(page);
  NotePrefetchEviction(at.shard, fix);
  // Pin before any suspension: concurrent processes may otherwise evict
  // the frame while this one waits on the disk.
  if (pin) at.buffer->Pin(page);
  if (!fix.hit) {
    co_await ChargeCpu(at, ctx_.config.physical_io_instructions, prof);
    if (fix.evicted_dirty) {
      // Worst case (paper §4.1): flush the dirty page before the read.
      // The flush is a cost of fixing a frame, not of this page's read:
      // the whole interval is buffer-fix wait.
      const double t0 = ctx_.sim.now();
      co_await at.io->Write(fix.evicted_page, io::IoCategory::kDirtyFlush);
      if (prof != nullptr) {
        prof->RecordSpan(obs::SpanPhase::kBufferFixWait, t0,
                         ctx_.sim.now());
      }
      co_await ChargeCpu(at, ctx_.config.physical_io_instructions, prof);
    }
    const double t0 = ctx_.sim.now();
    co_await at.io->Read(page, io::IoCategory::kDataRead);
    if (prof != nullptr) {
      const sim::Resource& d = at.io->disk(at.io->DiskOf(page));
      prof->RecordQueued(obs::SpanPhase::kIoWait,
                         obs::SpanPhase::kIoService, t0,
                         d.last_start_time(), ctx_.sim.now());
    }
  }
  if (latched) ctx_.locks->ReleaseLatch(key);
}

sim::Task TxnPipeline::FetchPageRouted(const ShardView& home,
                                       const ShardView& at,
                                       store::PageId page,
                                       obs::SpanRecorder* prof, bool pin) {
  if (!ctx_.shards->sharded()) {
    co_await FetchPage(at, page, prof, pin);
    co_return;
  }
  ShardedContext::Counters& counters = ctx_.shards->counters();
  if (at.shard == home.shard) {
    ++counters.local_fetches;
    co_await FetchPage(at, page, prof, pin);
    co_return;
  }
  // Cross-shard reference: request hop on the home NIC, the fix and any
  // miss I/O on the owner shard, response hop on the owner NIC. The whole
  // interval is one remote_fetch_wait leaf — the inner fetch runs with a
  // null recorder, so the taxonomy stays exactly additive.
  ++counters.remote_fetches;
  counters.hops += 2;
  const double hop = ctx_.shards->hop_latency_s();
  const double t0 = ctx_.sim.now();
  co_await home.nic->Use(hop);
  co_await FetchPage(at, page, /*prof=*/nullptr, pin);
  co_await at.nic->Use(hop);
  if (prof != nullptr) {
    prof->RecordSpan(obs::SpanPhase::kRemoteFetchWait, t0, ctx_.sim.now());
  }
  ctx_.trace.Record(obs::Subsystem::kCore,
                    obs::TraceEventType::kRemoteFetch, page,
                    static_cast<uint64_t>(home.shard),
                    static_cast<uint64_t>(at.shard),
                    ctx_.sim.now() - t0);
}

void TxnPipeline::StartPrefetch(const ShardView& at, store::PageId page) {
  const uint64_t key = PrefetchKey(at.shard, page);
  if (inflight_.find(key) != inflight_.end()) return;
  inflight_.emplace(key, std::vector<std::coroutine_handle<>>{});
  prefetched_unused_.insert(key);
  ctx_.metrics.Add(ctx_.handles.prefetch_issued);
  ctx_.trace.Record(obs::Subsystem::kBuffer,
                    obs::TraceEventType::kPrefetchIssue, page);
  at.io->ReadAsync(page, io::IoCategory::kPrefetchRead,
                   [this, shard = at.shard, page] {
                     OnPrefetchComplete(shard, page);
                   });
}

void TxnPipeline::OnPrefetchComplete(int shard, store::PageId page) {
  const ShardView& at = ctx_.shards->view(shard);
  const auto fix = at.buffer->Fix(page);
  NotePrefetchEviction(shard, fix);
  if (!fix.hit && fix.evicted_dirty) {
    at.io->WriteAsync(fix.evicted_page, io::IoCategory::kDirtyFlush);
  }
  at.buffer->Boost(page, kPrefetchBoost);
  auto it = inflight_.find(PrefetchKey(shard, page));
  OODB_CHECK(it != inflight_.end());
  std::vector<std::coroutine_handle<>> waiters = std::move(it->second);
  inflight_.erase(it);
  for (auto h : waiters) h.resume();
}

void TxnPipeline::PostAccess(const ShardView& at, obj::ObjectId id) {
  // Context-sensitive replacement: pages holding this object's structural
  // relatives gain priority (paper §2.2). Relatives owned by another
  // shard have no page in `at`'s storage and fall out naturally.
  if (ctx_.config.replacement ==
      buffer::ReplacementPolicy::kContextSensitive) {
    const obj::TypeId type = ctx_.graph->object(id).type;
    for (const obj::Edge e : ctx_.graph->edges(id)) {
      const store::PageId p = at.storage->PageOf(e.target);
      if (p == store::kInvalidPage) continue;
      const double w = ctx_.affinity->Weight(type, e.kind);
      at.buffer->Boost(p, 1.0 + kContextBoostScale * w);
    }
  }

  // Prefetching (paper §2.2): the group follows the user hint or the
  // type's dominant traversal kind.
  if (ctx_.config.prefetch == buffer::PrefetchPolicy::kNone) return;
  const buffer::AccessHint hint =
      ctx_.config.clustering.use_hints
          ? buffer::AccessHint::For(ctx_.config.clustering.hint_kind)
          : buffer::AccessHint::None();
  const auto group = buffer::ComputePrefetchGroup(
      *ctx_.graph, *at.storage, id, hint, /*config_depth=*/2,
      /*max_pages=*/8, &ctx_.trace);
  for (store::PageId p : group.pages) {
    if (at.buffer->Contains(p)) {
      at.buffer->Boost(p, kPrefetchBoost);
    } else if (ctx_.config.prefetch == buffer::PrefetchPolicy::kWithinDb) {
      StartPrefetch(at, p);
    }
  }
}

sim::Task TxnPipeline::AccessObject(const ShardView& home, obj::ObjectId id,
                                    obj::TypeId from_type, int nav_kind,
                                    TxnCc* lk, obs::SpanRecorder* prof) {
  if (Aborted(lk)) co_return;
  if (lk != nullptr) {
    co_await LockObject(lk, id, cc::LockMode::kShared, prof);
    if (lk->aborted) co_return;
  }
  ++logical_reads_;
  if (ctx_.dyn_tracker) ctx_.dyn_tracker->Observe(id);
  co_await ChargeCpu(home, ctx_.config.logical_op_instructions, prof);
  if (nav_kind >= 0) {
    ctx_.affinity->RecordTraversal(from_type,
                                   static_cast<obj::RelKind>(nav_kind));
  }
  const ShardView& at = ctx_.shards->HomeOf(id);
  const store::PageId page = at.storage->PageOf(id);
  if (page != store::kInvalidPage) {
    co_await FetchPageRouted(home, at, page, prof);
  }
  PostAccess(at, id);

  // Dereference by-reference inherited attributes with some probability:
  // the heir's data partially lives with its inheritance source.
  if (rng_.Bernoulli(kInheritanceDerefProbability)) {
    // Resolve the dereference target before any await: the edge view is
    // never touched after a suspension point (a lock wait may now
    // precede the fetch, so the id is copied out of the loop).
    obj::ObjectId source = obj::kInvalidObject;
    for (const obj::Edge e : ctx_.graph->edges(id)) {
      if (e.kind == obj::RelKind::kInstanceInheritance &&
          e.dir == obj::Direction::kUp && ctx_.graph->IsLive(e.target)) {
        source = e.target;
        break;  // one dereference is representative
      }
    }
    if (source != obj::kInvalidObject) {
      ++logical_reads_;
      ctx_.affinity->RecordTraversal(ctx_.graph->object(id).type,
                                     obj::RelKind::kInstanceInheritance);
      if (lk != nullptr) {
        co_await LockObject(lk, source, cc::LockMode::kShared, prof);
        if (lk->aborted) co_return;
      }
      const ShardView& src = ctx_.shards->HomeOf(source);
      const store::PageId sp = src.storage->PageOf(source);
      if (sp != store::kInvalidPage) {
        co_await FetchPageRouted(home, src, sp, prof);
      }
    }
  }
}

sim::Task TxnPipeline::ReadQuery(const ShardView& home,
                                 const workload::TransactionSpec& spec,
                                 TxnCc* lk, obs::SpanRecorder* prof) {
  const obj::ObjectId target = spec.target;
  if (!ctx_.graph->IsLive(target)) co_return;
  if (ctx_.dyn_tracker) ctx_.dyn_tracker->BeginTransaction(target);
  const obj::TypeId ttype = ctx_.graph->object(target).type;
  co_await AccessObject(home, target, ttype, -1, lk, prof);

  // Every traversal below snapshots neighbour lists into the scratch
  // before it awaits: a concurrent writer may mutate edges meanwhile.
  const ScratchLease scratch(*this);
  std::vector<obj::ObjectId>& ids = scratch->ids;
  const auto snapshot = [&](obj::ObjectId id, obj::RelKind kind,
                            obj::Direction dir) {
    ids.clear();
    ctx_.graph->ForEachNeighbor(id, kind, dir,
                                [&](obj::ObjectId t) { ids.push_back(t); });
  };
  switch (spec.type) {
    case workload::QueryType::kSimpleLookup:
      break;
    case workload::QueryType::kComponentRetrieval: {
      snapshot(target, obj::RelKind::kConfiguration, obj::Direction::kDown);
      for (const obj::ObjectId c : ids) {
        if (ctx_.graph->IsLive(c)) {
          co_await AccessObject(
              home, c, ttype,
              static_cast<int>(obj::RelKind::kConfiguration), lk, prof);
        }
      }
      break;
    }
    case workload::QueryType::kCompositeRetrieval: {
      // Deep retrieval: materialise the whole configuration subtree.
      // Attachments are unvalidated (as in OCT), so the configuration
      // graph may contain cycles: guard with a visited set and a bound.
      constexpr size_t kMaxRetrieval = 512;
      std::vector<obj::ObjectId>& stack = ids;
      EpochSet& visited = scratch->visited;
      snapshot(target, obj::RelKind::kConfiguration, obj::Direction::kDown);
      visited.Insert(target);
      while (!stack.empty() && visited.size() < kMaxRetrieval) {
        const obj::ObjectId o = stack.back();
        stack.pop_back();
        if (!ctx_.graph->IsLive(o) || !visited.Insert(o)) continue;
        co_await AccessObject(
            home, o, ttype,
            static_cast<int>(obj::RelKind::kConfiguration), lk, prof);
        ctx_.graph->ForEachNeighbor(
            o, obj::RelKind::kConfiguration, obj::Direction::kDown,
            [&](obj::ObjectId c) { stack.push_back(c); });
      }
      break;
    }
    case workload::QueryType::kDescendantVersions: {
      snapshot(target, obj::RelKind::kVersionHistory, obj::Direction::kDown);
      for (const obj::ObjectId d : ids) {
        if (ctx_.graph->IsLive(d)) {
          co_await AccessObject(
              home, d, ttype,
              static_cast<int>(obj::RelKind::kVersionHistory), lk, prof);
        }
      }
      break;
    }
    case workload::QueryType::kAncestorVersions: {
      snapshot(target, obj::RelKind::kVersionHistory, obj::Direction::kUp);
      for (const obj::ObjectId a : ids) {
        if (ctx_.graph->IsLive(a)) {
          co_await AccessObject(
              home, a, ttype,
              static_cast<int>(obj::RelKind::kVersionHistory), lk, prof);
        }
      }
      break;
    }
    case workload::QueryType::kCorresponding: {
      snapshot(target, obj::RelKind::kCorrespondence, obj::Direction::kDown);
      for (const obj::ObjectId c : ids) {
        if (ctx_.graph->IsLive(c)) {
          co_await AccessObject(
              home, c, ttype,
              static_cast<int>(obj::RelKind::kCorrespondence), lk, prof);
        }
      }
      break;
    }
    case workload::QueryType::kOcbSetLookup: {
      // OCB set-oriented lookup: a selection over one class extent. The
      // generator samples the qualifying instances; physically this is a
      // batch of same-class object fetches with no structural navigation.
      for (obj::ObjectId o : spec.targets) {
        if (o != target && ctx_.graph->IsLive(o)) {
          co_await AccessObject(home, o, ttype, -1, lk, prof);
        }
      }
      break;
    }
    case workload::QueryType::kOcbSimpleTraversal: {
      // OCB simple traversal: depth-first over the reference edges to a
      // configured depth. References may form cycles (the generator draws
      // targets freely), so guard with a visited set and a bound.
      constexpr size_t kMaxTraversal = 512;
      std::vector<std::pair<obj::ObjectId, int>>& stack = scratch->frontier;
      EpochSet& visited = scratch->visited;
      visited.Insert(target);
      if (spec.depth > 0) {
        ctx_.graph->ForEachNeighbor(
            target, obj::RelKind::kConfiguration, obj::Direction::kDown,
            [&](obj::ObjectId c) { stack.emplace_back(c, 1); });
      }
      while (!stack.empty() && visited.size() < kMaxTraversal) {
        const auto [o, d] = stack.back();
        stack.pop_back();
        if (!ctx_.graph->IsLive(o) || !visited.Insert(o)) continue;
        co_await AccessObject(
            home, o, ttype,
            static_cast<int>(obj::RelKind::kConfiguration), lk, prof);
        if (d < spec.depth) {
          ctx_.graph->ForEachNeighbor(
              o, obj::RelKind::kConfiguration, obj::Direction::kDown,
              [&, d = d](obj::ObjectId c) { stack.emplace_back(c, d + 1); });
        }
      }
      break;
    }
    case workload::QueryType::kOcbHierarchyTraversal: {
      // OCB hierarchy traversal: navigate the instance-inheritance edges
      // (both towards sources and towards heirs) to a configured depth —
      // the traversal that exercises exactly the semantics this paper's
      // clustering exploits.
      constexpr size_t kMaxTraversal = 512;
      std::vector<std::pair<obj::ObjectId, int>>& stack = scratch->frontier;
      EpochSet& visited = scratch->visited;
      stack.emplace_back(target, 0);
      visited.Insert(target);
      while (!stack.empty() && visited.size() < kMaxTraversal) {
        const auto [o, d] = stack.back();
        stack.pop_back();
        if (d >= spec.depth) continue;
        // Snapshot the inheritance neighbours before awaiting: the loop
        // suspends mid-iteration, and a concurrent writer mutating any
        // object's edges would invalidate a live edge view.
        std::vector<obj::ObjectId>& inheritance = scratch->next;
        inheritance.clear();
        for (const obj::Edge e : ctx_.graph->edges(o)) {
          if (e.kind == obj::RelKind::kInstanceInheritance) {
            inheritance.push_back(e.target);
          }
        }
        for (const obj::ObjectId t : inheritance) {
          if (!ctx_.graph->IsLive(t)) continue;
          if (!visited.Insert(t)) continue;
          co_await AccessObject(
              home, t, ttype,
              static_cast<int>(obj::RelKind::kInstanceInheritance), lk,
              prof);
          stack.emplace_back(t, d + 1);
        }
      }
      break;
    }
    case workload::QueryType::kOcbStochasticTraversal: {
      // OCB stochastic traversal: a random walk along references that
      // backtracks out of dead ends, accessing up to `depth` objects
      // beyond the root. Draws come from the pipeline's single stream, so
      // the walk is deterministic per run.
      std::vector<obj::ObjectId>& path = ids;
      std::vector<obj::ObjectId>& next = scratch->next;
      EpochSet& visited = scratch->visited;
      path.push_back(target);
      visited.Insert(target);
      int accessed = 0;
      while (!path.empty() && accessed < spec.depth) {
        next.clear();
        ctx_.graph->ForEachNeighbor(
            path.back(), obj::RelKind::kConfiguration, obj::Direction::kDown,
            [&](obj::ObjectId c) {
              if (ctx_.graph->IsLive(c) && !visited.Contains(c)) {
                next.push_back(c);
              }
            });
        if (next.empty()) {
          path.pop_back();  // dead end: backtrack one step
          continue;
        }
        const obj::ObjectId chosen = next[rng_.NextBelow(next.size())];
        visited.Insert(chosen);
        co_await AccessObject(
            home, chosen, ttype,
            static_cast<int>(obj::RelKind::kConfiguration), lk, prof);
        path.push_back(chosen);
        ++accessed;
      }
      break;
    }
    case workload::QueryType::kObjectWrite:
      OODB_CHECK(false);  // handled by WriteQuery
      break;
  }
}

sim::Task TxnPipeline::LogAndDirty(const ShardView& home,
                                   const ShardView& at, txlog::TxnId txn,
                                   store::PageId page, uint32_t object_size,
                                   obs::SpanRecorder* prof) {
  ++logical_writes_;
  co_await ChargeCpu(home, ctx_.config.logical_op_instructions, prof);
  // The object may have been deleted by a concurrent transaction between
  // target selection and this write; the write then degenerates to a log
  // record with no page touch. Log records always land on the home
  // shard's log: the transaction's session owns its recovery stream.
  if (page == store::kInvalidPage) {
    co_await ChargeLogFlushes(home,
                              home.log->LogWrite(txn, page, object_size),
                              prof);
    co_return;
  }
  co_await FetchPageRouted(home, at, page, prof, /*pin=*/true);
  at.buffer->MarkDirty(page);
  at.buffer->Unpin(page);
  co_await ChargeLogFlushes(home,
                            home.log->LogWrite(txn, page, object_size),
                            prof);
}

sim::Task TxnPipeline::WriteObject(const ShardView& home, txlog::TxnId txn,
                                   obj::ObjectId id, TxnCc* lk,
                                   obs::SpanRecorder* prof) {
  if (Aborted(lk)) co_return;
  if (lk != nullptr) {
    co_await LockObject(lk, id, cc::LockMode::kExclusive, prof);
    if (lk->aborted) co_return;
  }
  // Object-level write that tolerates concurrent deletion: resolves the
  // page and size only if the object is still live and placed.
  const ShardView& at = ctx_.shards->HomeOf(id);
  if (ctx_.graph->IsLive(id) && at.storage->IsPlaced(id)) {
    if (ctx_.shards->sharded() && at.shard != home.shard) {
      ++ctx_.shards->counters().remote_writes;
    }
    co_await LogAndDirty(home, at, txn, at.storage->PageOf(id),
                         at.storage->SizeOf(id), prof);
  } else {
    ++logical_writes_;
    co_await ChargeCpu(home, ctx_.config.logical_op_instructions, prof);
    co_await ChargeLogFlushes(
        home, home.log->LogWrite(txn, store::kInvalidPage, 64), prof);
  }
}

sim::Task TxnPipeline::ChargeExamReads(
    const ShardView& at, const cluster::PlacementReport& report,
    obs::SpanRecorder* prof) {
  // Candidate pages examined on disk: demand reads charged to the writer,
  // and the pages enter the examining shard's buffer pool (they were just
  // read there).
  for (store::PageId p : report.exam_reads) {
    const auto fix = at.buffer->Fix(p);
    NotePrefetchEviction(at.shard, fix);
    if (!fix.hit) {
      if (fix.evicted_dirty) {
        const double t0 = ctx_.sim.now();
        co_await at.io->Write(fix.evicted_page,
                              io::IoCategory::kDirtyFlush);
        if (prof != nullptr) {
          prof->RecordSpan(obs::SpanPhase::kBufferFixWait, t0,
                           ctx_.sim.now());
        }
      }
      const double t0 = ctx_.sim.now();
      co_await at.io->Read(p, io::IoCategory::kClusterRead);
      if (prof != nullptr) {
        const sim::Resource& d = at.io->disk(at.io->DiskOf(p));
        prof->RecordQueued(obs::SpanPhase::kIoWait,
                           obs::SpanPhase::kIoService, t0,
                           d.last_start_time(), ctx_.sim.now());
      }
      co_await ChargeCpu(at, ctx_.config.physical_io_instructions, prof);
    }
  }
}

sim::Task TxnPipeline::ChargeSplit(const ShardView& home,
                                   const ShardView& at, txlog::TxnId txn,
                                   const cluster::PlacementReport& report,
                                   obs::SpanRecorder* prof) {
  co_await ChargeCpu(
      at,
      ctx_.config.clustering.split == cluster::SplitPolicy::kExhaustive
          ? ctx_.config.split_exhaustive_instructions
          : ctx_.config.split_linear_instructions,
      prof);
  // The newly allocated page is flushed and the change logged
  // (paper §5.1.2: one extra I/O plus one extra log record).
  NotePrefetchEviction(at.shard, at.buffer->Fix(report.split_new_page));
  at.buffer->MarkDirty(report.split_new_page);
  const double t0 = ctx_.sim.now();
  co_await at.io->Write(report.split_new_page, io::IoCategory::kDataWrite);
  if (prof != nullptr) {
    const sim::Resource& d =
        at.io->disk(at.io->DiskOf(report.split_new_page));
    prof->RecordQueued(obs::SpanPhase::kIoWait, obs::SpanPhase::kIoService,
                       t0, d.last_start_time(), ctx_.sim.now());
  }
  co_await ChargeLogFlushes(
      home,
      home.log->LogWrite(txn, report.split_new_page,
                         ctx_.config.page_size_bytes / 4),
      prof);
}

sim::Task TxnPipeline::ChargePlacement(const ShardView& home,
                                       const ShardView& at, txlog::TxnId txn,
                                       const cluster::PlacementReport& report,
                                       obj::ObjectId placed,
                                       obs::SpanRecorder* prof) {
  co_await ChargeExamReads(at, report, prof);
  if (report.split) co_await ChargeSplit(home, at, txn, report, prof);
  // The write of the placed object itself.
  co_await LogAndDirty(home, at, txn, report.page,
                       at.storage->SizeOf(placed), prof);
}

sim::Task TxnPipeline::ReclusterAfterStructureChange(const ShardView& home,
                                                     txlog::TxnId txn,
                                                     obj::ObjectId id,
                                                     TxnCc* lk,
                                                     obs::SpanRecorder* prof) {
  if (Aborted(lk)) co_return;
  if (ctx_.config.clustering.pool == cluster::CandidatePool::kNoClustering) {
    co_return;
  }
  if (lk != nullptr) {
    // The structure-write path only reclusters endpoints it already
    // X-locked, so this is a free re-grant; it is a real acquisition
    // only for future callers.
    co_await LockObject(lk, id, cc::LockMode::kExclusive, prof);
    if (lk->aborted) co_return;
  }
  // Reclustering is a per-shard affair: the owner's cluster manager
  // reconsiders the placement within the owner's own pages.
  const ShardView& at = ctx_.shards->HomeOf(id);
  if (!ctx_.graph->IsLive(id) || !at.storage->IsPlaced(id)) co_return;
  co_await ChargeCpu(at, ctx_.config.cluster_decision_instructions, prof);
  const auto report = at.cluster->Recluster(id);
  co_await ChargeExamReads(at, report, prof);
  if (report.split) co_await ChargeSplit(home, at, txn, report, prof);
  if (report.relocated) {
    // Moving the object modifies both its old and its new page.
    const uint32_t size = at.storage->SizeOf(id);
    co_await LogAndDirty(home, at, txn, report.page, size, prof);
    if (report.old_page != store::kInvalidPage &&
        report.old_page != report.page) {
      co_await LogAndDirty(home, at, txn, report.old_page, size, prof);
    }
  }
}

sim::Task TxnPipeline::WriteQuery(const ShardView& home,
                                  const workload::TransactionSpec& spec,
                                  txlog::TxnId txn, TxnCc* lk,
                                  obs::SpanRecorder* prof) {
  workload::DesignDatabase::Module& module = ctx_.db.modules[spec.module];
  obj::ObjectId target = spec.target;
  if (!ctx_.graph->IsLive(target)) co_return;

  switch (spec.write_kind) {
    case workload::WriteKind::kSimpleUpdate: {
      // A "save edit": the target plus most of its immediate components
      // are rewritten in one transaction (the paper's checkin invokes
      // several updates). Co-located components then share before-imaged
      // pages — the Fig 5.5 mechanism.
      co_await WriteObject(home, txn, target, lk, prof);
      if (Aborted(lk)) co_return;
      int updated = 0;
      for (obj::ObjectId c : ctx_.graph->Components(target)) {
        if (updated >= 6) break;
        if (!rng_.Bernoulli(0.7)) continue;
        co_await WriteObject(home, txn, c, lk, prof);
        if (Aborted(lk)) co_return;
        ++updated;
      }
      break;
    }
    case workload::WriteKind::kStructureWrite: {
      obj::ObjectId other = spec.other;
      if (other == obj::kInvalidObject || !ctx_.graph->IsLive(other) ||
          other == target) {
        // Attachment end vanished: degrade to a simple update.
        co_await WriteObject(home, txn, target, lk, prof);
        break;
      }
      if (lk != nullptr) {
        // Both endpoints are X-locked *before* the graph mutation, so a
        // deadlock timeout here aborts with nothing structural to undo.
        co_await LockObject(lk, target, cc::LockMode::kExclusive, prof);
        if (lk->aborted) co_return;
        co_await LockObject(lk, other, cc::LockMode::kExclusive, prof);
        if (lk->aborted) co_return;
        // Either endpoint may have been deleted while this transaction
        // queued for its lock: degrade to a simple update (WriteObject
        // tolerates dead objects; Relate does not).
        if (!ctx_.graph->IsLive(target) || !ctx_.graph->IsLive(other)) {
          co_await WriteObject(home, txn, target, lk, prof);
          break;
        }
      }
      const obj::RelKind kind = rng_.Bernoulli(0.6)
                                    ? obj::RelKind::kConfiguration
                                    : obj::RelKind::kCorrespondence;
      ctx_.graph->Relate(target, other, kind);
      if (kind == obj::RelKind::kCorrespondence) {
        module.corresponding.push_back(target);
        module.corresponding.push_back(other);
      } else if (std::find(module.composites.begin(),
                           module.composites.end(),
                           target) == module.composites.end()) {
        module.composites.push_back(target);
      }
      co_await WriteObject(home, txn, target, lk, prof);
      co_await WriteObject(home, txn, other, lk, prof);
      // Both endpoints' structures changed: run-time reclustering.
      co_await ReclusterAfterStructureChange(home, txn, target, lk, prof);
      co_await ReclusterAfterStructureChange(home, txn, other, lk, prof);
      break;
    }
    case workload::WriteKind::kInsertObject: {
      if (lk != nullptr) {
        // Lock the parent before creating the child: an abort here
        // leaves no orphan in the graph.
        co_await LockObject(lk, target, cc::LockMode::kExclusive, prof);
        if (lk->aborted) co_return;
        if (!ctx_.graph->IsLive(target)) {
          co_await WriteObject(home, txn, target, lk, prof);
          break;
        }
      }
      const obj::DesignObject& parent = ctx_.graph->object(target);
      const uint32_t size = std::max<uint32_t>(
          32, static_cast<uint32_t>(
                  rng_.Exponential(ctx_.config.database.mean_object_bytes)));
      const obj::ObjectId child = ctx_.graph->Create(
          parent.family, parent.version, ctx_.types.leaf,
          std::min(size, ctx_.config.page_size_bytes / 4));
      ctx_.graph->Relate(target, child, obj::RelKind::kConfiguration);
      // The new object is routed by the placement policy (hash of its id,
      // or its parent's shard under Structure_Shard), then placed by the
      // owner's cluster manager.
      const ShardView& at = ctx_.shards->AssignNew(child, target);
      const auto report = at.cluster->PlaceNew(child);
      co_await ChargePlacement(home, at, txn, report, child, prof);
      module.objects.push_back(child);
      break;
    }
    case workload::WriteKind::kDeriveVersion: {
      if (lk != nullptr) {
        co_await LockObject(lk, target, cc::LockMode::kExclusive, prof);
        if (lk->aborted) co_return;
        if (!ctx_.graph->IsLive(target)) {
          co_await WriteObject(home, txn, target, lk, prof);
          break;
        }
      }
      const auto derived =
          obj::DeriveVersion(*ctx_.graph, target, ctx_.inherit_model);
      const ShardView& at = ctx_.shards->AssignNew(derived.heir, target);
      const auto report = at.cluster->PlaceNew(derived.heir);
      co_await ChargePlacement(home, at, txn, report, derived.heir, prof);
      module.objects.push_back(derived.heir);
      module.versioned.push_back(target);
      module.versioned.push_back(derived.heir);
      break;
    }
    case workload::WriteKind::kDeleteObject: {
      if (ctx_.graph->HasNeighbor(target, obj::RelKind::kConfiguration,
                                  obj::Direction::kDown) ||
          ctx_.graph->HasNeighbor(target, obj::RelKind::kVersionHistory,
                                  obj::Direction::kDown) ||
          target == module.root) {
        // Keep the catalogue navigable: only leaves are deleted.
        co_await WriteObject(home, txn, target, lk, prof);
        break;
      }
      co_await WriteObject(home, txn, target, lk, prof);
      if (Aborted(lk)) co_return;
      // Re-check after the awaits: a concurrent transaction may have
      // deleted the object first.
      const ShardView& at = ctx_.shards->HomeOf(target);
      if (ctx_.graph->IsLive(target) && at.storage->IsPlaced(target)) {
        OODB_CHECK(at.storage->Erase(target).ok());
        ctx_.graph->Remove(target);
      }
      break;
    }
    case workload::WriteKind::kChurnDelete: {
      // Structural churn (OCB): delete the target outright, interior
      // objects included — ObjectGraph::Remove detaches every mirror
      // edge, so only the module root is off limits. This is what makes
      // static placements fragment over churn epochs.
      if (target == module.root) {
        co_await WriteObject(home, txn, target, lk, prof);
        break;
      }
      co_await WriteObject(home, txn, target, lk, prof);
      if (Aborted(lk)) co_return;
      const ShardView& at = ctx_.shards->HomeOf(target);
      if (ctx_.graph->IsLive(target) && at.storage->IsPlaced(target)) {
        OODB_CHECK(at.storage->Erase(target).ok());
        ctx_.graph->Remove(target);
      }
      break;
    }
  }
}

sim::Task TxnPipeline::MaybeReorganize(const ShardView& home,
                                       txlog::TxnId txn, TxnCc* lk,
                                       obs::SpanRecorder* prof) {
  dyn::AccessTracker& tracker = *ctx_.dyn_tracker;
  dyn::ReclusterPolicy& policy = *ctx_.dyn_policy;
  const double depth = home.io->MaxQueueDepth();
  if (depth > ctx_.metrics.value(ctx_.dyn_handles.queue_depth_peak)) {
    ctx_.metrics.Set(ctx_.dyn_handles.queue_depth_peak, depth);
  }

  if (tracker.ConsolidationDue()) {
    std::vector<dyn::ClusterUnit> units = tracker.Consolidate();
    if (!units.empty()) {
      ctx_.metrics.Add(ctx_.dyn_handles.triggers);
      ctx_.metrics.Add(ctx_.dyn_handles.units,
                       static_cast<uint64_t>(units.size()));
      ctx_.trace.Record(obs::Subsystem::kCluster,
                        obs::TraceEventType::kDynTrigger, units.size(),
                        tracker.tracked_objects(), policy.pending(), depth);
      policy.Enqueue(std::move(units), ctx_.sim.now());
    }
  }

  std::vector<dyn::ClusterUnit> batch = policy.Drain(ctx_.sim.now(), depth);
  if (batch.empty()) co_return;

  int budget = ctx_.config.clustering.dynamic.max_moves_per_txn;
  for (size_t i = 0; i < batch.size(); ++i) {
    dyn::ClusterUnit& unit = batch[i];
    if (budget <= 0) {
      // Out of per-transaction budget: the remaining units stay pending
      // and drain on later transactions.
      policy.Enqueue({std::make_move_iterator(batch.begin() + i),
                      std::make_move_iterator(batch.end())},
                     ctx_.sim.now());
      break;
    }
    if (lk != nullptr) {
      // X-lock the unit's anchor before relocating it. Reorganisation is
      // maintenance, not transaction semantics: a timed-out wait drops
      // the unit (the tracker will re-surface a still-hot anchor) rather
      // than aborting the host transaction.
      const double t0 = ctx_.sim.now();
      const bool granted = co_await ctx_.locks->Acquire(
          lk->txn, static_cast<cc::LockKey>(unit.anchor),
          cc::LockMode::kExclusive);
      const double now = ctx_.sim.now();
      if (now > t0) {
        if (prof != nullptr) {
          prof->RecordSpan(obs::SpanPhase::kLockWait, t0, now);
        }
        ctx_.metrics.Observe(ctx_.cc_handles.lock_wait_s, now - t0);
      }
      if (!granted) continue;
    }
    co_await ChargeCpu(home, ctx_.config.cluster_decision_instructions,
                       prof);
    const dyn::ReorgResult result =
        ctx_.dyn_reorganizer->Reorganize(unit, budget);
    if (result.moves.empty()) continue;
    budget -= static_cast<int>(result.moves.size());
    ctx_.metrics.Add(ctx_.dyn_handles.objects_moved,
                     static_cast<uint64_t>(result.moves.size()));
    // Every touched page is made resident (charged as a clustering read on
    // a miss, mirroring exam reads) and dirtied; the relocations reach
    // disk through the ordinary dirty-flush path.
    for (const store::PageId page : result.pages_touched) {
      const auto fix = home.buffer->Fix(page);
      NotePrefetchEviction(home.shard, fix);
      home.buffer->Pin(page);
      if (!fix.hit) {
        co_await ChargeCpu(home, ctx_.config.physical_io_instructions,
                           prof);
        if (fix.evicted_dirty) {
          // Phases here are nominal: the recorder's dyn scope is set for
          // the whole drain, so every tick lands in kDynRecluster.
          const double tf = ctx_.sim.now();
          co_await home.io->Write(fix.evicted_page,
                                  io::IoCategory::kDirtyFlush);
          if (prof != nullptr) {
            prof->RecordSpan(obs::SpanPhase::kBufferFixWait, tf,
                             ctx_.sim.now());
          }
          co_await ChargeCpu(home, ctx_.config.physical_io_instructions,
                             prof);
        }
        const double t0 = ctx_.sim.now();
        co_await home.io->Read(page, io::IoCategory::kClusterRead);
        if (prof != nullptr) {
          const sim::Resource& d = home.io->disk(home.io->DiskOf(page));
          prof->RecordQueued(obs::SpanPhase::kIoWait,
                             obs::SpanPhase::kIoService, t0,
                             d.last_start_time(), ctx_.sim.now());
        }
        ctx_.metrics.Add(ctx_.dyn_handles.reorg_reads);
      }
      home.buffer->MarkDirty(page);
      home.buffer->Unpin(page);
    }
    for (const dyn::ReorgMove& mv : result.moves) {
      co_await ChargeLogFlushes(
          home, home.log->LogWrite(txn, mv.to, mv.size_bytes), prof);
    }
    ctx_.trace.Record(obs::Subsystem::kCluster,
                      obs::TraceEventType::kDynReorg, unit.anchor,
                      result.moves.size(), result.pages_touched.size(),
                      unit.heat);
  }
}

sim::Task TxnPipeline::ExecuteTransaction(
    const workload::TransactionSpec& spec) {
  txlog::TxnId txn = next_txn_++;
  const double start = ctx_.sim.now();
  // The transaction's session lives on its target's shard: CPU for
  // logical operations, log records, and the commit force all land there.
  // With shards = 1 (or an invalid target) this is the single server.
  const ShardView& home = ctx_.shards->HomeOf(spec.target);
  // The recorder lives in this coroutine's frame: transactions interleave
  // at every await, so per-transaction recording state cannot be a
  // pipeline member. Disabled (null profiler) it allocates nothing and
  // every call through `prof` is skipped. One recorder spans every
  // retry attempt, so the 10-phase additivity invariant covers the whole
  // user-visible response time, aborted work and backoff included.
  obs::SpanRecorder recorder(ctx_.spans.get(), txn,
                             static_cast<int>(spec.type), start);
  obs::SpanRecorder* prof = recorder.enabled() ? &recorder : nullptr;
  ctx_.trace.Record(obs::Subsystem::kCore, obs::TraceEventType::kTxnBegin,
                    txn, static_cast<uint64_t>(spec.type));
  cc::LockManager* locks = ctx_.locks.get();
  // Retry-backoff jitter: a splitmix64 stream keyed on the run seed and
  // the first attempt's id — per-transaction, drawn only on aborts, so
  // it is deterministic at any job count and the cc-off path never
  // touches it.
  SplitMix64 jitter(ctx_.config.seed ^ (txn * 0x9E3779B97F4A7C15ull));
  for (int attempt = 0;; ++attempt) {
    TxnCc cc_state{txn, false};
    TxnCc* lk = locks != nullptr ? &cc_state : nullptr;
    home.log->Begin(txn);
    if (prof != nullptr) {
      prof->BeginScope(obs::SpanScope::kQuery, ctx_.sim.now());
    }
    if (spec.type == workload::QueryType::kObjectWrite) {
      co_await WriteQuery(home, spec, txn, lk, prof);
    } else {
      co_await ReadQuery(home, spec, lk, prof);
    }
    if (prof != nullptr) prof->EndScope(ctx_.sim.now());
    if (!Aborted(lk)) {
      if (ctx_.dyn_policy) {
        if (prof != nullptr) {
          prof->BeginScope(obs::SpanScope::kReorg, ctx_.sim.now());
          prof->set_dyn_scope(true);
        }
        co_await MaybeReorganize(home, txn, lk, prof);
        if (prof != nullptr) {
          prof->set_dyn_scope(false);
          prof->EndScope(ctx_.sim.now());
        }
      }
      if (prof != nullptr) {
        prof->BeginScope(obs::SpanScope::kCommit, ctx_.sim.now());
      }
      co_await ChargeLogFlushes(
          home, home.log->Commit(txn, ctx_.config.force_log_at_commit),
          prof);
      if (prof != nullptr) prof->EndScope(ctx_.sim.now());
      // Strict 2PL: every lock is held through the end of commit.
      if (locks != nullptr) locks->ReleaseAll(txn);
      break;
    }
    // Deadlock-timeout abort: undo the attempt's dirty work, release
    // everything, and either re-enter with a fresh transaction id after
    // a jittered exponential backoff or give up (work stays undone).
    co_await RollbackTransaction(home, txn, prof);
    home.log->Abort(txn);
    locks->ReleaseAll(txn);
    ctx_.metrics.Add(ctx_.cc_handles.txn_aborts);
    const bool gave_up = attempt >= ctx_.config.cc.max_retries;
    ctx_.trace.Record(obs::Subsystem::kCore,
                      obs::TraceEventType::kTxnAbort, txn,
                      static_cast<uint64_t>(attempt), gave_up ? 1 : 0);
    if (gave_up) {
      ctx_.metrics.Add(ctx_.cc_handles.txn_giveups);
      break;
    }
    ctx_.metrics.Add(ctx_.cc_handles.txn_retries);
    // ldexp scales by an exact power of two; the jitter factor is
    // uniform in [0.5, 1.5), desynchronising repeat offenders.
    const double backoff =
        std::min(std::ldexp(ctx_.config.cc.backoff_base_s, attempt),
                 ctx_.config.cc.backoff_cap_s) *
        (0.5 + jitter.NextDouble());
    const double t0 = ctx_.sim.now();
    co_await sim::Delay(ctx_.sim, backoff);
    if (prof != nullptr) {
      prof->RecordSpan(obs::SpanPhase::kLockWait, t0, ctx_.sim.now());
    }
    txn = next_txn_++;
  }
  recorder.Finish(ctx_.sim.now());
  ctx_.trace.Record(obs::Subsystem::kCore, obs::TraceEventType::kTxnEnd,
                    txn, static_cast<uint64_t>(spec.type), 0,
                    ctx_.sim.now() - start);
}

void TxnPipeline::ResetMeasurementState() {
  prefetched_unused_.clear();
  logical_reads_ = 0;
  logical_writes_ = 0;
}

}  // namespace oodb::core
