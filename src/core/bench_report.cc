#include "core/bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/json_writer.h"

namespace oodb::core {

BenchReport::BenchReport(std::string bench) : bench_(std::move(bench)) {
  if (const char* path = std::getenv("SEMCLUST_BENCH_JSON")) {
    if (path[0] != '\0') path_ = path;
  }
}

std::string BenchReport::ToJsonLine(const BenchRecord& record) const {
  JsonObjectWriter json;
  json.Add("bench", bench_)
      .Add("cell_label", record.cell_label)
      .Add("policy", record.policy)
      .Add("workload", record.workload)
      .Add("mean_response_s", record.mean_response_s)
      .Add("io_count", record.io_count)
      .Add("hit_ratio", record.hit_ratio)
      .Add("buffer_hit_ratio", record.buffer_hit_ratio)
      .Add("exam_ios_per_recluster", record.exam_ios_per_recluster)
      .Add("prefetch_accuracy", record.prefetch_accuracy)
      .Add("remote_fetch_fraction", record.remote_fetch_fraction)
      .Add("page_splits", record.page_splits)
      .Add("response_p50_s", record.response_p50_s)
      .Add("response_p95_s", record.response_p95_s)
      .Add("response_p99_s", record.response_p99_s)
      .Add("elapsed_wall_s", record.elapsed_wall_s);
  if (const std::optional<uint64_t> aborts =
          record.metrics.counter("cc.txn_aborts")) {
    const obs::MetricsSnapshot& m = record.metrics;
    // Rate per *attempt*: committed transactions plus aborted attempts.
    const std::optional<double> abort_rate = obs::MetricsSnapshot::Ratio(
        aborts, *aborts + m.counter("core.txns").value_or(0));
    JsonObjectWriter cc;
    cc.Add("txn_aborts", *aborts)
        .Add("txn_retries", m.counter("cc.txn_retries").value_or(0))
        .Add("txn_giveups", m.counter("cc.txn_giveups").value_or(0))
        .Add("abort_rate", abort_rate.value_or(0.0))
        .Add("lock_waits", m.counter("cc.lock_waits").value_or(0))
        .Add("deadlock_timeouts",
             m.counter("cc.deadlock_timeouts").value_or(0))
        .Add("latch_waits", m.counter("cc.latch_waits").value_or(0))
        .Add("rollback_pages", m.counter("cc.rollback_pages").value_or(0))
        .Add("lock_wait_time_s",
             m.gauge("cc.lock_wait_time_s").value_or(0.0));
    json.AddRaw("cc", cc.str());
  }
  if (!record.response_epochs.empty()) {
    JsonArrayWriter epochs;
    for (const auto& [count, mean_s] : record.response_epochs) {
      JsonObjectWriter epoch;
      epoch.Add("count", count).Add("mean_s", mean_s);
      epochs.AddRaw(epoch.str());
    }
    json.AddRaw("response_epochs", epochs.str());
  }
  if (!record.metrics.empty()) {
    json.AddRaw("metrics", record.metrics.ToJson());
  }
  if (!record.series.empty()) {
    json.AddRaw("series", record.series.ToJson());
  }
  if (!record.breakdown.empty()) {
    // One flat object per transaction kind: integer tick totals keyed by
    // phase name, so tools/span_report (and jq) read them without
    // positional decoding.
    JsonObjectWriter breakdown;
    for (const obs::SpanKindBreakdown& b : record.breakdown) {
      JsonObjectWriter kind;
      kind.Add("txns", b.txns).Add("response_ticks", b.response_ticks);
      for (int p = 0; p < obs::kNumSpanPhases; ++p) {
        kind.Add(std::string(obs::SpanPhaseName(
                     static_cast<obs::SpanPhase>(p))) +
                     "_ticks",
                 b.phase_ticks[static_cast<size_t>(p)]);
      }
      breakdown.AddRaw(b.kind, kind.str());
    }
    json.AddRaw("breakdown", breakdown.str());
  }
  return json.str();
}

void BenchReport::Record(const BenchRecord& record) const {
  if (!enabled()) return;
  std::ofstream out(path_, std::ios::app);
  if (out) {
    out << ToJsonLine(record) << '\n';
  } else if (!warned_unwritable_) {
    warned_unwritable_ = true;
    std::fprintf(stderr, "[bench] SEMCLUST_BENCH_JSON=%s is not writable; "
                 "records dropped\n", path_.c_str());
  }
}

BenchRecord BenchReport::FromResult(const std::string& cell_label,
                                    const std::string& policy,
                                    const std::string& workload,
                                    const RunResult& result,
                                    double elapsed_wall_s) {
  BenchRecord r;
  r.cell_label = cell_label;
  r.policy = policy;
  r.workload = workload;
  r.mean_response_s = result.response_time.Mean();
  r.io_count = result.total_physical_ios();
  r.elapsed_wall_s = elapsed_wall_s;
  r.metrics = result.metrics;
  // Every counter comes from the registry snapshot, so the JSONL record is
  // self-consistent with the embedded metrics; a zero denominator yields
  // null, not a division by zero.
  const std::optional<uint64_t> hits = r.metrics.counter("buffer.hits");
  const std::optional<uint64_t> misses = r.metrics.counter("buffer.misses");
  std::optional<uint64_t> accesses;
  if (hits.has_value() && misses.has_value()) accesses = *hits + *misses;
  r.buffer_hit_ratio = obs::MetricsSnapshot::Ratio(hits, accesses);
  r.hit_ratio = r.buffer_hit_ratio.value_or(0.0);
  r.exam_ios_per_recluster =
      obs::MetricsSnapshot::Ratio(r.metrics.counter("cluster.exam_reads"),
                                  r.metrics.counter("cluster.reclusterings"));
  r.prefetch_accuracy =
      obs::MetricsSnapshot::Ratio(r.metrics.counter("core.prefetch.hits"),
                                  r.metrics.counter("core.prefetch.issued"));
  // Null when the run was not sharded (the shard.* counters exist only
  // then) or no fetch was routed.
  const std::optional<uint64_t> local =
      r.metrics.counter("shard.local_fetches");
  const std::optional<uint64_t> remote =
      r.metrics.counter("shard.remote_fetches");
  std::optional<uint64_t> fetches;
  if (local.has_value() && remote.has_value()) fetches = *local + *remote;
  r.remote_fetch_fraction = obs::MetricsSnapshot::Ratio(remote, fetches);
  r.page_splits = r.metrics.counter("cluster.splits").value_or(0);
  if (const obs::HistogramSnapshot* rt =
          r.metrics.histogram("core.response_s");
      rt != nullptr && rt->count > 0) {
    // count-guarded: an empty histogram's Quantile is 0.0 by contract,
    // but these fields stay null so the JSONL keeps rendering "no
    // transactions" as null (committed baselines depend on it).
    r.response_p50_s = rt->Quantile(0.50);
    r.response_p95_s = rt->Quantile(0.95);
    r.response_p99_s = rt->Quantile(0.99);
  }
  r.response_epochs.reserve(result.response_epochs.size());
  for (const StreamingStats& epoch : result.response_epochs) {
    r.response_epochs.emplace_back(epoch.count(), epoch.Mean());
  }
  r.series = result.series;
  r.breakdown = result.span_breakdown;
  return r;
}

void BenchReport::Record(const std::string& cell_label,
                         const std::string& policy,
                         const std::string& workload, const RunResult& result,
                         double elapsed_wall_s) const {
  Record(FromResult(cell_label, policy, workload, result, elapsed_wall_s));
}

}  // namespace oodb::core
