#include "core/measurement.h"

#include <algorithm>
#include <string>

namespace oodb::core {

MeasurementController::MeasurementController(ServerContext& context,
                                             TxnPipeline& pipeline)
    : ctx_(context), pipeline_(pipeline) {
  response_epochs_.resize(static_cast<size_t>(
      std::max(1, ctx_.config.measurement_epochs)));
  ctx_.sampler.set_pre_sample_hook([this] { SyncComponentMetrics(); });
}

void MeasurementController::ApplyEpochSchedule(size_t epoch) {
  if (ctx_.config.rw_ratio_schedule.empty()) return;
  const size_t i =
      std::min(epoch, ctx_.config.rw_ratio_schedule.size() - 1);
  for (auto& gen : ctx_.generators) {
    gen->SetTargetRatio(ctx_.config.rw_ratio_schedule[i]);
  }
}

void MeasurementController::ResetMeasurementCounters() {
  // Every shard's components carry warmup-era counts. With shards = 1
  // the single iteration resets the server's own components — exactly
  // the pre-sharding sequence.
  for (int s = 0; s < ctx_.shards->num_shards(); ++s) {
    const ShardView& v = ctx_.shards->view(s);
    v.io->ResetCounters();
    v.buffer->ResetCounters();
    v.log->ResetCounters();
    v.cluster->ResetStats();
  }
  ctx_.shards->ResetCounters();
  ctx_.metrics.ResetValues();
  // Warmup-era span records (totals and the exemplar reservoir) are
  // forgotten with the same semantics as the I/O counters: in-flight
  // transactions straddling the boundary fold fully into the measured
  // window when they finish.
  if (ctx_.spans) ctx_.spans->Reset();
  // Lock-manager counters reset like the component counters; locks held
  // by in-flight transactions straddling the boundary are untouched (only
  // the statistics mirror clears).
  if (ctx_.locks) ctx_.locks->ResetStats();
  // Pages prefetched during warmup were counted against the warmup issue
  // counter that was just reset; forgetting them keeps the measured-window
  // invariant hits + wasted <= issued.
  pipeline_.ResetMeasurementState();
}

void MeasurementController::OnTransactionDone(double response_s,
                                              workload::QueryType type) {
  ++completed_txns_;
  if (!measuring_) {
    if (completed_txns_ >=
        static_cast<uint64_t>(ctx_.config.warmup_transactions)) {
      measuring_ = true;
      ResetMeasurementCounters();
      ApplyEpochSchedule(0);
      ctx_.sampler.StartMeasurement(ctx_.sim.now());
    }
    return;
  }
  if (done_) return;  // in-flight stragglers after the quota was reached
  const uint64_t per_epoch = std::max<uint64_t>(
      1, static_cast<uint64_t>(ctx_.config.measured_transactions) /
             response_epochs_.size());
  const size_t epoch =
      std::min(response_epochs_.size() - 1,
               static_cast<size_t>(measured_txns_ / per_epoch));
  const bool crossed = epoch != current_epoch_;
  if (crossed) {
    // The first transaction of the new epoch just completed: close every
    // epoch crossed (usually one) with a boundary sample *before*
    // recording this transaction, so the boundary delta covers exactly
    // the closed epoch's transactions.
    for (size_t closed = current_epoch_; closed < epoch; ++closed) {
      ctx_.sampler.SampleEpochBoundary(ctx_.sim.now(),
                                       static_cast<uint32_t>(closed));
    }
    current_epoch_ = epoch;
    ApplyEpochSchedule(epoch);
  }
  ctx_.metrics.Add(ctx_.handles.txns);
  ctx_.metrics.Observe(ctx_.handles.response_s, response_s);
  response_time_.Add(response_s);
  const bool was_write = type == workload::QueryType::kObjectWrite;
  (was_write ? write_response_ : read_response_).Add(response_s);
  response_by_query_[static_cast<size_t>(type)].Add(response_s);
  response_epochs_[epoch].Add(response_s);
  if (!crossed) {
    ctx_.sampler.Poll(ctx_.sim.now(), static_cast<uint32_t>(epoch));
  }
  ++measured_txns_;
  if (measured_txns_ >=
      static_cast<uint64_t>(ctx_.config.measured_transactions)) {
    done_ = true;
  }
}

sim::Task MeasurementController::RunOneArrival(int user) {
  workload::TransactionSource& gen =
      *ctx_.generators[static_cast<size_t>(user)];
  // Sessions keep their meaning under open arrivals: a stream's working
  // set persists across arrivals until its session length is spent. The
  // draws below all happen before the first await, so the generator's
  // sequence is ordered by arrival time regardless of how long earlier
  // transactions of the same stream stay in flight.
  if (open_session_left_[static_cast<size_t>(user)] <= 0) {
    open_session_left_[static_cast<size_t>(user)] = gen.BeginSession();
  }
  --open_session_left_[static_cast<size_t>(user)];
  const workload::TransactionSpec spec = gen.NextTransaction();
  const uint64_t reads_before = pipeline_.logical_reads();
  const uint64_t writes_before = pipeline_.logical_writes();
  const double start = ctx_.sim.now();
  co_await pipeline_.ExecuteTransaction(spec);
  gen.RecordOps(pipeline_.logical_reads() - reads_before,
                pipeline_.logical_writes() - writes_before);
  OnTransactionDone(ctx_.sim.now() - start, spec.type);
}

sim::Task MeasurementController::ArrivalLoop() {
  // A dedicated interarrival stream, distinct from every per-user think
  // stream (those use seed * 104729 + user with user < num_users).
  Rng arrival_rng(ctx_.config.seed * 104729 + 0xA221AA11ull);
  const double mean_interarrival = 1.0 / ctx_.config.arrival_rate_tps;
  uint64_t arrivals = 0;
  while (!done_) {
    co_await sim::Delay(ctx_.sim,
                        arrival_rng.Exponential(mean_interarrival));
    if (done_) break;
    const int user =
        static_cast<int>(arrivals++ % ctx_.generators.size());
    sim::Spawn(RunOneArrival(user));
  }
}

sim::Task MeasurementController::UserLoop(int user) {
  workload::TransactionSource& gen =
      *ctx_.generators[static_cast<size_t>(user)];
  Rng think_rng(ctx_.config.seed * 104729 + static_cast<uint64_t>(user));
  while (!done_) {
    const int session_len = gen.BeginSession();
    for (int t = 0; t < session_len && !done_; ++t) {
      co_await sim::Delay(ctx_.sim,
                          think_rng.Exponential(ctx_.config.think_time_s));
      if (done_) break;
      const workload::TransactionSpec spec = gen.NextTransaction();
      const uint64_t reads_before = pipeline_.logical_reads();
      const uint64_t writes_before = pipeline_.logical_writes();
      const double start = ctx_.sim.now();
      co_await pipeline_.ExecuteTransaction(spec);
      gen.RecordOps(pipeline_.logical_reads() - reads_before,
                    pipeline_.logical_writes() - writes_before);
      OnTransactionDone(ctx_.sim.now() - start, spec.type);
    }
  }
}

void MeasurementController::SyncComponentMetrics() {
  obs::MetricsRegistry& metrics = ctx_.metrics;
  // Registration is idempotent (re-registering returns the existing
  // handle) and the values are absolute cumulative counts written with
  // set-semantics, so syncing at every telemetry sample and again at end
  // of run is safe.
  //
  // The unprefixed names carry system-wide totals summed over every
  // shard; with shards = 1 the single iteration reads the server's own
  // components, so names, registration order, and values are exactly the
  // pre-sharding mirror's.
  const int n = ctx_.shards->num_shards();
  uint64_t buf_hits = 0, buf_misses = 0, buf_evict = 0, buf_dirty = 0;
  uint64_t io_cat[io::kNumIoCategories] = {};
  uint64_t log_records = 0, log_before = 0, log_flushes = 0;
  cluster::ClusterStats cs;
  double disk_util = 0, cpu_util = 0;
  for (int s = 0; s < n; ++s) {
    const ShardView& v = ctx_.shards->view(s);
    buf_hits += v.buffer->hits();
    buf_misses += v.buffer->misses();
    buf_evict += v.buffer->evictions();
    buf_dirty += v.buffer->dirty_evictions();
    for (int c = 0; c < io::kNumIoCategories; ++c) {
      io_cat[c] += v.io->physical_count(static_cast<io::IoCategory>(c));
    }
    log_records += v.log->records_appended();
    log_before += v.log->before_images();
    log_flushes += v.log->flush_count();
    const cluster::ClusterStats& scs = v.cluster->stats();
    cs.placements += scs.placements;
    cs.reclusterings += scs.reclusterings;
    cs.appends += scs.appends;
    cs.relocations += scs.relocations;
    cs.splits += scs.splits;
    cs.exam_reads += scs.exam_reads;
    cs.objects_moved_by_splits += scs.objects_moved_by_splits;
    cs.split_search_steps += scs.split_search_steps;
    cs.split_broken_cost += scs.split_broken_cost;
    disk_util += v.io->MeanUtilization();
    cpu_util += v.cpu->Utilization();
  }
  metrics.SetCounter(metrics.Counter("buffer.hits"), buf_hits);
  metrics.SetCounter(metrics.Counter("buffer.misses"), buf_misses);
  metrics.SetCounter(metrics.Counter("buffer.evictions"), buf_evict);
  metrics.SetCounter(metrics.Counter("buffer.dirty_evictions"), buf_dirty);
  for (int c = 0; c < io::kNumIoCategories; ++c) {
    const auto cat = static_cast<io::IoCategory>(c);
    metrics.SetCounter(
        metrics.Counter(std::string("io.") + io::IoCategoryName(cat)),
        io_cat[c]);
  }
  metrics.SetCounter(metrics.Counter("log.records"), log_records);
  metrics.SetCounter(metrics.Counter("log.before_images"), log_before);
  metrics.SetCounter(metrics.Counter("log.flushes"), log_flushes);
  metrics.SetCounter(metrics.Counter("cluster.placements"), cs.placements);
  metrics.SetCounter(metrics.Counter("cluster.reclusterings"),
                     cs.reclusterings);
  metrics.SetCounter(metrics.Counter("cluster.relocations"),
                     cs.relocations);
  metrics.SetCounter(metrics.Counter("cluster.splits"), cs.splits);
  metrics.SetCounter(metrics.Counter("cluster.exam_reads"), cs.exam_reads);
  metrics.SetCounter(metrics.Counter("cluster.objects_moved_by_splits"),
                     cs.objects_moved_by_splits);
  metrics.SetCounter(metrics.Counter("cluster.split_search_steps"),
                     cs.split_search_steps);
  metrics.Set(metrics.Gauge("cluster.split_broken_cost"),
              cs.split_broken_cost);
  metrics.SetCounter(metrics.Counter("sim.events_processed"),
                     ctx_.sim.events_processed());
  metrics.SetCounter(metrics.Counter("sim.events_scheduled"),
                     ctx_.sim.events_scheduled());
  metrics.Set(metrics.Gauge("io.mean_disk_utilization"),
              disk_util / static_cast<double>(n));
  metrics.Set(metrics.Gauge("cpu.utilization"),
              cpu_util / static_cast<double>(n));
  metrics.Set(metrics.Gauge("sim.duration_s"), ctx_.sim.now());
  if (ctx_.shards->sharded()) {
    // Per-shard mirrors plus the cross-shard traffic counters, registered
    // only when sharded so every single-server snapshot layout committed
    // before this subsystem existed is untouched.
    for (int s = 0; s < n; ++s) {
      const ShardView& v = ctx_.shards->view(s);
      const std::string p = "shard" + std::to_string(s) + ".";
      metrics.SetCounter(metrics.Counter(p + "buffer.hits"),
                         v.buffer->hits());
      metrics.SetCounter(metrics.Counter(p + "buffer.misses"),
                         v.buffer->misses());
      metrics.SetCounter(metrics.Counter(p + "io.data_read"),
                         v.io->physical_count(io::IoCategory::kDataRead));
      metrics.SetCounter(metrics.Counter(p + "log.records"),
                         v.log->records_appended());
      metrics.SetCounter(metrics.Counter(p + "cluster.placements"),
                         v.cluster->stats().placements);
      metrics.Set(metrics.Gauge(p + "io.mean_disk_utilization"),
                  v.io->MeanUtilization());
      metrics.Set(metrics.Gauge(p + "cpu.utilization"),
                  v.cpu->Utilization());
      if (v.nic != nullptr) {
        metrics.Set(metrics.Gauge(p + "nic.utilization"),
                    v.nic->Utilization());
      }
    }
    const ShardedContext::Counters& sc = ctx_.shards->counters();
    metrics.SetCounter(metrics.Counter("shard.local_fetches"),
                       sc.local_fetches);
    metrics.SetCounter(metrics.Counter("shard.remote_fetches"),
                       sc.remote_fetches);
    metrics.SetCounter(metrics.Counter("shard.remote_writes"),
                       sc.remote_writes);
    metrics.SetCounter(metrics.Counter("shard.hops"), sc.hops);
    const uint64_t fetches = sc.local_fetches + sc.remote_fetches;
    metrics.Set(metrics.Gauge("shard.remote_fetch_fraction"),
                fetches == 0 ? 0.0
                             : static_cast<double>(sc.remote_fetches) /
                                   static_cast<double>(fetches));
  }
  if (ctx_.dyn_policy) {
    // Whole-run cumulative deferral bookkeeping lives in the policy (it is
    // not reset at the measurement boundary: a deferral window straddling
    // the boundary must not lose its opening edge).
    metrics.SetCounter(ctx_.dyn_handles.deferral_events,
                       ctx_.dyn_policy->deferral_events());
    metrics.Set(ctx_.dyn_handles.deferral_time_s,
                ctx_.dyn_policy->deferral_time_s());
  }
  if (ctx_.locks) {
    // Lock-manager mirror, registered only when the cc subsystem is on so
    // every cc-off snapshot layout is untouched. `deadlock_timeouts`
    // mirrors the manager's timed-out waits — in a wait-timeout scheme
    // that count *is* the presumed-deadlock count.
    const cc::LockStats& ls = ctx_.locks->stats();
    metrics.SetCounter(metrics.Counter("cc.lock_grants"), ls.lock_grants);
    metrics.SetCounter(metrics.Counter("cc.lock_waits"), ls.lock_waits);
    metrics.SetCounter(metrics.Counter("cc.deadlock_timeouts"),
                       ls.lock_timeouts);
    metrics.SetCounter(metrics.Counter("cc.latch_grants"),
                       ls.latch_grants);
    metrics.SetCounter(metrics.Counter("cc.latch_waits"), ls.latch_waits);
    metrics.Set(metrics.Gauge("cc.lock_wait_time_s"), ls.lock_wait_time_s);
    metrics.Set(metrics.Gauge("cc.latch_wait_time_s"),
                ls.latch_wait_time_s);
  }
}

RunResult MeasurementController::Run() {
  if (ctx_.config.arrival == ArrivalProcess::kOpen) {
    open_session_left_.assign(ctx_.generators.size(), 0);
    sim::Spawn(ArrivalLoop());
  } else {
    for (int u = 0; u < ctx_.config.num_users; ++u) {
      sim::Spawn(UserLoop(u));
    }
  }
  ctx_.sim.Run();

  RunResult result;
  result.response_time = response_time_;
  result.read_response = read_response_;
  result.write_response = write_response_;
  result.response_by_query = response_by_query_;
  result.response_epochs = response_epochs_;
  result.transactions = measured_txns_;
  result.logical_reads = pipeline_.logical_reads();
  result.logical_writes = pipeline_.logical_writes();
  result.achieved_rw_ratio =
      result.logical_writes == 0
          ? static_cast<double>(result.logical_reads)
          : static_cast<double>(result.logical_reads) /
                static_cast<double>(result.logical_writes);
  for (int s = 0; s < ctx_.shards->num_shards(); ++s) {
    result.db_pages += ctx_.shards->view(s).storage->page_count();
  }
  result.db_objects = ctx_.graph->live_count();
  // Close the final epoch. If the warmup quota was never reached (tiny
  // smoke configs), start measurement now so the series still carries one
  // end-of-run sample.
  if (!measuring_) ctx_.sampler.StartMeasurement(ctx_.sim.now());
  ctx_.sampler.SampleFinal(ctx_.sim.now(),
                           static_cast<uint32_t>(current_epoch_));
  SyncComponentMetrics();
  result.metrics = ctx_.metrics.Snapshot();
  result.cc_txn_aborts = result.metrics.counter("cc.txn_aborts").value_or(0);
  result.series = ctx_.sampler.series();
  if (ctx_.spans) {
    result.span_breakdown = ctx_.spans->Breakdown();
    // Exemplar span trees ride the ordinary trace path: replayed into the
    // ring at their historical timestamps before the cell is collected.
    if (ctx_.trace.enabled()) ctx_.spans->ExportExemplars(ctx_.trace);
  }
  if (ctx_.trace.enabled()) {
    obs::TraceCollector::Global().Collect(
        ctx_.config.cell_index,
        ctx_.config.clustering.Label() + "/" + ctx_.config.WorkloadLabel(),
        ctx_.trace);
  }
  return result;
}

uint64_t RunResult::total_physical_ios() const {
  uint64_t total = 0;
  for (int c = 0; c < io::kNumIoCategories; ++c) {
    const auto cat = static_cast<io::IoCategory>(c);
    total += metrics.counter(std::string("io.") + io::IoCategoryName(cat))
                 .value_or(0);
  }
  return total;
}

}  // namespace oodb::core
