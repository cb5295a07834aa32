#include "core/model_config.h"

#include <string>

namespace oodb::core {

namespace {

Status Invalid(const std::string& what) {
  return Status::InvalidArgument("invalid ModelConfig: " + what);
}

// Upper bounds far above every committed scenario (at most 2000 users) and
// the paper's full-scale 128K-page database. The buffer pool allocates all
// of its frames up front and each user owns a transaction generator, so an
// unbounded value would end in an out-of-memory abort, not an error.
constexpr int kMaxUsers = 100000;
constexpr size_t kMaxBufferPages = size_t{1} << 22;

}  // namespace

const char* ArrivalProcessName(ArrivalProcess a) {
  switch (a) {
    case ArrivalProcess::kClosed:
      return "Closed";
    case ArrivalProcess::kOpen:
      return "Open";
  }
  return "unknown";
}

std::string ModelConfig::WorkloadLabel() const {
  return ocb.enabled ? ocb.Label(workload.read_write_ratio)
                     : workload.Label();
}

Status ModelConfig::Validate() const {
  if (const Status ocb_status = ocb.Validate(); !ocb_status.ok()) {
    return ocb_status;
  }
  if (const Status dyn_status = clustering.dynamic.Validate();
      !dyn_status.ok()) {
    return Invalid(dyn_status.message());
  }
  if (database_bytes == 0) {
    return Invalid(
        "database_bytes is 0; the builder would create an empty database "
        "and the workload generator would have nothing to access");
  }
  if (page_size_bytes == 0) {
    return Invalid(
        "page_size_bytes is 0; page math (buffer scaling, striping, fill "
        "fractions) divides by the page size");
  }
  if (num_users <= 0) {
    return Invalid("num_users is " + std::to_string(num_users) +
                   "; at least one user process must submit transactions "
                   "or the simulation never terminates");
  }
  if (num_users > kMaxUsers) {
    return Invalid("num_users is " + std::to_string(num_users) +
                   "; at most " + std::to_string(kMaxUsers) +
                   " user processes are supported (each owns a "
                   "transaction generator)");
  }
  if (num_disks <= 0) {
    return Invalid("num_disks is " + std::to_string(num_disks) +
                   "; the I/O subsystem needs at least one disk to stripe "
                   "pages across");
  }
  if (buffer_pages < 8) {
    return Invalid("buffer_pages is " + std::to_string(buffer_pages) +
                   "; the pool needs at least 8 frames to hold a pinned "
                   "read-modify-write page plus an eviction victim under "
                   "concurrent transactions (ScaledBuffers clamps here)");
  }
  if (buffer_pages > kMaxBufferPages) {
    return Invalid("buffer_pages is " + std::to_string(buffer_pages) +
                   "; at most " + std::to_string(kMaxBufferPages) +
                   " frames are supported (the pool allocates every frame "
                   "up front)");
  }
  if (measured_transactions <= 0) {
    return Invalid("measured_transactions is " +
                   std::to_string(measured_transactions) +
                   "; a run must measure at least one transaction to "
                   "terminate");
  }
  if (warmup_transactions < 0) {
    return Invalid("warmup_transactions is " +
                   std::to_string(warmup_transactions) +
                   "; use 0 to measure from the first transaction");
  }
  if (measurement_epochs < 1) {
    return Invalid("measurement_epochs is " +
                   std::to_string(measurement_epochs) +
                   "; the measured phase is split into >= 1 epochs "
                   "(1 disables the per-epoch breakdown)");
  }
  if (span_exemplars < 0) {
    return Invalid("span_exemplars is " + std::to_string(span_exemplars) +
                   "; the slow-transaction reservoir size must be >= 0 "
                   "(0 disables exemplar capture)");
  }
  if (shards < 1 || shards > 64) {
    return Invalid("shards is " + std::to_string(shards) +
                   "; the model supports 1 to 64 shards (1 is the single "
                   "server, the exact pre-sharding behaviour)");
  }
  if (!(shard_hop_latency_s >= 0)) {
    return Invalid("shard_hop_latency_s is " +
                   std::to_string(shard_hop_latency_s) +
                   "; the cross-shard hop latency must be >= 0");
  }
  if (shard_group_cap < 1) {
    return Invalid("shard_group_cap is " + std::to_string(shard_group_cap) +
                   "; Structure_Shard groups must hold at least one object");
  }
  if (shards > 1 && clustering.dynamic.enabled()) {
    return Invalid(
        "shards > 1 with a dynamic re-clustering policy; the dynamic "
        "subsystem (src/dyn/) tracks the single server's components and "
        "is not shard-aware yet — run it with shards = 1");
  }
  if (const Status cc_status = cc.Validate(); !cc_status.ok()) {
    return Invalid(cc_status.message());
  }
  if (cc.enabled && shards > 1) {
    return Invalid(
        "shards > 1 with the concurrency-control subsystem enabled; the "
        "rollback path maps logged pages back through the single server's "
        "components and is not shard-aware yet — run cc with shards = 1");
  }
  if (arrival == ArrivalProcess::kOpen && !(arrival_rate_tps > 0)) {
    return Invalid("arrival_rate_tps is " + std::to_string(arrival_rate_tps) +
                   "; open Poisson arrivals need a positive mean rate");
  }
  for (size_t i = 0; i < rw_ratio_schedule.size(); ++i) {
    if (!(rw_ratio_schedule[i] > 0)) {
      return Invalid("rw_ratio_schedule[" + std::to_string(i) + "] is " +
                     std::to_string(rw_ratio_schedule[i]) +
                     "; scheduled read/write ratios are reads per write "
                     "and must be > 0");
    }
  }
  return Status::Ok();
}

ModelConfig PaperScaleConfig() {
  ModelConfig cfg;
  cfg.database_bytes = 500ull << 20;
  cfg.buffer_pages = 1000;
  cfg.database.target_bytes = cfg.database_bytes;
  return cfg;
}

ModelConfig ScaledConfig() {
  ModelConfig cfg;
  cfg.database.target_bytes = cfg.database_bytes;
  cfg.buffer_pages = cfg.BufferMedium();
  return cfg;
}

ModelConfig TestConfig() {
  ModelConfig cfg;
  cfg.database_bytes = 2ull << 20;
  cfg.database.target_bytes = cfg.database_bytes;
  cfg.buffer_pages = 64;
  cfg.warmup_transactions = 50;
  cfg.measured_transactions = 300;
  return cfg;
}

}  // namespace oodb::core
