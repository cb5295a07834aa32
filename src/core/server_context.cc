#include "core/server_context.h"

#include <cstdio>
#include <utility>

#include "cluster/static_clusterer.h"
#include "ocb/ocb_workload.h"
#include "util/check.h"
#include "workload/db_builder.h"

namespace oodb::core {

ServerContext::ServerContext(ModelConfig model_config)
    : config(std::move(model_config)),
      trace(&sim, obs::TraceCollector::PathFromEnv() != nullptr
                      ? obs::TraceCollector::RingCapacityFromEnv()
                      : 0),
      sampler(&metrics, config.telemetry_interval_s) {
  const Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "ModelConfig: %s\n", valid.ToString().c_str());
  }
  OODB_CHECK(valid.ok());

  // Under OCB the schema is the generated class hierarchy; its facade
  // types feed the execution model's insert path in place of the CAD set.
  ocb::OcbSchema ocb_schema;
  if (config.ocb.enabled) {
    ocb_schema = ocb::RegisterOcbClasses(lattice, config.ocb,
                                         config.seed ^ 0x0CB0CB);
    types = ocb_schema.cad;
  } else {
    types = workload::RegisterCadTypes(lattice);
  }
  graph = std::make_unique<obj::ObjectGraph>(&lattice);
  storage = std::make_unique<store::StorageManager>(
      config.page_size_bytes, config.append_fill_fraction);
  buffer = std::make_unique<buffer::BufferPool>(
      config.buffer_pages, config.replacement, config.seed ^ 0xB0FFEB0FF);
  affinity = std::make_unique<cluster::AffinityModel>(&lattice);
  cluster = std::make_unique<cluster::ClusterManager>(
      graph.get(), storage.get(), affinity.get(), buffer.get(),
      config.clustering);
  io = std::make_unique<io::IoSubsystem>(sim, config.num_disks,
                                         config.page_size_bytes,
                                         config.disk);
  log = std::make_unique<txlog::LogManager>(config.log_buffer_bytes,
                                            config.page_size_bytes);
  cpu = std::make_unique<sim::Resource>(sim, "cpu", 1);

  // Build the database through the policy under test. The build is the
  // accretion history of the repository (or the OCB bulk load), not part
  // of the measured run.
  if (config.ocb.enabled) {
    ocb::OcbBuilder builder(graph.get(), cluster.get(), buffer.get(),
                            config.ocb);
    ocb_catalog = std::make_unique<ocb::OcbCatalog>(
        builder.Build(ocb_schema, config.seed ^ 0xDBDBDB));
    db = std::move(ocb_catalog->db);
  } else {
    workload::DatabaseSpec spec = config.database;
    spec.target_bytes = config.database_bytes;
    spec.density = config.workload.density;
    spec.concurrent_streams = config.num_users;
    spec.seed = config.seed ^ 0xDBDBDB;
    workload::DbBuilder builder(graph.get(), cluster.get(), buffer.get(),
                                spec);
    db = builder.Build(types, static_cast<uint64_t>(
                                  config.warmup_transactions +
                                  config.measured_transactions));
  }
  OODB_CHECK(!db.modules.empty());

  if (config.static_reorganize_after_build) {
    // The DBA's offline alternative: quiesce and repack the whole
    // database by affinity (paper §2.1's static clustering).
    cluster::StaticClusterer reorganizer(graph.get(), storage.get(),
                                         affinity.get());
    reorganizer.Reorganize();
  }

  // Observability is attached only now: the build phase above is the
  // repository's accretion history, not part of the run, and its page
  // traffic would otherwise flood the trace ring before the first
  // transaction. The sink is disabled (capacity 0) unless SEMCLUST_TRACE
  // is set, so these calls cost two compares per event when tracing is off.
  buffer->set_trace(&trace);
  io->set_trace(&trace);
  log->set_trace(&trace);
  cluster->set_trace(&trace);

  // Telemetry rides the same after-the-build attachment rule: the sampler
  // starts at the warmup/measured boundary. Its pre-sample hook (which
  // re-syncs the mirrored component counters) is installed by the
  // MeasurementController, the layer that owns the mirroring.
  auditor = std::make_unique<obs::PlacementAuditor>(graph.get(),
                                                    storage.get());
  if (config.telemetry_audit_placement) {
    sampler.set_placement_auditor(auditor.get());
  }

  handles.txns = metrics.Counter("core.txns");
  handles.prefetch_issued = metrics.Counter("core.prefetch.issued");
  handles.prefetch_hits = metrics.Counter("core.prefetch.hits");
  handles.prefetch_wasted = metrics.Counter("core.prefetch.wasted");
  handles.response_s = metrics.Histogram(
      "core.response_s",
      {0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 60.0});

  // Dynamic re-clustering (src/dyn/): built — and its metrics registered —
  // only when enabled, after the core handles so the pre-existing snapshot
  // layout is untouched in every static-policy run.
  if (config.clustering.dynamic.enabled()) {
    dyn_tracker =
        std::make_unique<dyn::AccessTracker>(config.clustering.dynamic);
    dyn_policy = dyn::MakeReclusterPolicy(config.clustering.dynamic);
    dyn_reorganizer =
        std::make_unique<dyn::Reorganizer>(graph.get(), storage.get());
    dyn_handles.triggers = metrics.Counter("dyn.triggers");
    dyn_handles.units = metrics.Counter("dyn.units");
    dyn_handles.objects_moved = metrics.Counter("dyn.objects_moved");
    dyn_handles.reorg_reads = metrics.Counter("dyn.reorg_reads");
    dyn_handles.deferral_events = metrics.Counter("dyn.deferral_events");
    dyn_handles.deferral_time_s = metrics.Gauge("dyn.deferral_time_s");
    dyn_handles.queue_depth_peak = metrics.Gauge("dyn.queue_depth_peak");
  }

  // The span profiler registers its (kind, phase) metric grid after the
  // dyn handles, so every previously committed snapshot layout is
  // untouched when profiling is off.
  if (config.profile_spans) {
    std::vector<std::string> kinds;
    kinds.reserve(workload::kNumQueryTypes);
    for (int q = 0; q < workload::kNumQueryTypes; ++q) {
      kinds.emplace_back(
          workload::QueryTypeName(static_cast<workload::QueryType>(q)));
    }
    spans = std::make_unique<obs::SpanProfiler>(&metrics, std::move(kinds),
                                                config.span_exemplars);
  }

  // Concurrency control (src/cc/): built — and its metrics registered —
  // only when enabled, after the span grid so every previously committed
  // snapshot layout is untouched in cc-off runs. The manager itself draws
  // no random numbers (neutrality) — retry jitter is derived per
  // transaction in the pipeline.
  if (config.cc.enabled) {
    locks = std::make_unique<cc::LockManager>(sim, config.cc);
    cc_handles.txn_aborts = metrics.Counter("cc.txn_aborts");
    cc_handles.txn_retries = metrics.Counter("cc.txn_retries");
    cc_handles.txn_giveups = metrics.Counter("cc.txn_giveups");
    cc_handles.rollback_pages = metrics.Counter("cc.rollback_pages");
    cc_handles.lock_wait_s = metrics.Histogram(
        "cc.lock_wait_s", {0.001, 0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0});
    cc_handles.latch_wait_s = metrics.Histogram(
        "cc.latch_wait_s", {0.001, 0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0});
  }

  for (int u = 0; u < config.num_users; ++u) {
    const uint64_t user_seed =
        config.seed * 7919 + static_cast<uint64_t>(u);
    if (config.ocb.enabled) {
      generators.push_back(std::make_unique<ocb::OcbGenerator>(
          graph.get(), &db, ocb_catalog.get(), config.ocb,
          config.workload.read_write_ratio, user_seed));
    } else {
      generators.push_back(std::make_unique<workload::WorkloadGenerator>(
          graph.get(), &db, config.workload, user_seed));
    }
  }

  // The shard layer comes last: placement must see the final built (and
  // possibly statically reorganised) graph, and migration re-places
  // objects through the per-shard cluster managers. With shards == 1 this
  // allocates nothing beyond the alias views.
  shards = std::make_unique<ShardedContext>(*this);
}

ServerContext::~ServerContext() = default;

}  // namespace oodb::core
