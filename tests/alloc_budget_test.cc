// Heap-allocation budgets. This binary replaces the global operator new
// with a counting one.
//
// Measured simulation: one strict-2PL OCT cell runs at two measured lengths
// from the same seed, and the extra transactions must cost at most one heap
// allocation each. The warmup, the database build and the report are the
// same in both runs, so the difference is what the extra transactions
// allocate.
//
// Database build: a 48 MB OCT database costs at most 0.22 heap
// allocations per created object built in arrival order, and at most 0.5
// placed by run-time clustering, and no per-batch buffer of the build
// outgrows the batch bound; an OCB database of the ocb_small shape
// placed by run-time clustering, with buffer mirroring, at most 0.35 under
// each reference locality. Each build also requests a bounded number of
// heap bytes per object, and none reallocates a column it reserved: the
// graph's object and edge columns and the storage directory keep exactly
// the capacity the builder reserved, and a 40000-transaction run of a
// 500-user cell regrows none of them.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "buffer/buffer_pool.h"
#include "cluster/affinity.h"
#include "cluster/build_placer.h"
#include "cluster/cluster_manager.h"
#include "core/engineering_db.h"
#include "core/scenario.h"
#include "gtest/gtest.h"
#include "objmodel/object_graph.h"
#include "ocb/ocb_builder.h"
#include "storage/storage_manager.h"
#include "workload/db_builder.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_bytes{0};
}  // namespace

// Not inlined: GCC would otherwise see a `new` pointer reach free() and
// warn (-Wmismatched-new-delete), which -Werror turns into an error.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace oodb {
namespace {

// One cell of the oct_contention_long benchmark workload (OCT med5 at R/W
// 5, strict 2PL, medium buffer), at 500 users: locks and latches queue,
// and some lock waits time out and roll back.
core::ModelConfig Cell(const std::string& pool, int measured) {
  const auto spec = core::ParseScenario(R"json({
    "name": "alloc_budget",
    "config": {
      "buffer_level": "medium",
      "warmup_transactions": 500,
      "measured_transactions": 2000,
      "num_users": 500,
      "seed": 7,
      "concurrency": {"enabled": true, "cc_lock_timeout_s": 0.5},
      "workload": {"density": "med5", "rw_ratio": 5},
      "clustering": {"pool": ")json" + pool + R"json("}
    }
  })json");
  OODB_CHECK(spec.ok());
  core::ModelConfig cfg = spec->Expand().front().config;
  cfg.measured_transactions = measured;
  return cfg;
}

uint64_t AllocationsFor(const core::ModelConfig& cfg) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const core::RunResult r = core::EngineeringDbModel(cfg).Run();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(r.transactions,
            static_cast<uint64_t>(cfg.measured_transactions));
  EXPECT_GT(r.metrics.counter("cc.lock_waits").value_or(0), 0u);
  EXPECT_GT(r.metrics.counter("cc.latch_waits").value_or(0), 0u);
  return after - before;
}

void ExpectMarginalBudget(const std::string& pool) {
  constexpr int kShort = 2000;
  constexpr int kLong = 4000;
  // A first run fills the per-thread coroutine-frame pool, so both
  // measured runs start from the same pool state.
  AllocationsFor(Cell(pool, kShort));
  const uint64_t short_run = AllocationsFor(Cell(pool, kShort));
  const uint64_t long_run = AllocationsFor(Cell(pool, kLong));
  ASSERT_GE(long_run, short_run);
  const double per_txn =
      static_cast<double>(long_run - short_run) / (kLong - kShort);
  std::printf("%s: %llu allocations at %d txns, %llu at %d: %.3f per txn\n",
              pool.c_str(), static_cast<unsigned long long>(short_run),
              kShort, static_cast<unsigned long long>(long_run), kLong,
              per_txn);
  EXPECT_LE(per_txn, 1.0);
}

TEST(AllocBudgetTest, NoClusteringTransactionsAllocateAtMostOnceEach) {
  ExpectMarginalBudget("No_Clustering");
}

TEST(AllocBudgetTest, RunTimeClusteringTransactionsAllocateAtMostOnceEach) {
  ExpectMarginalBudget("No_limit");
}

// The build also reserves room for the cell's run (the transactions
// ServerContext passes to DbBuilder::Build): a 40000-transaction run of
// a 500-user cell (oct_contention_long's length) inserts and derives
// objects and relocates edge runs without reallocating a column.
TEST(AllocBudgetTest, MeasuredRunDoesNotRegrowTheColumns) {
  for (const char* pool : {"No_Clustering", "No_limit"}) {
    core::EngineeringDbModel model(Cell(pool, 40000));
    const obj::ObjectGraph& graph = model.graph();
    const size_t built = graph.size();
    const size_t object_capacity = graph.object_capacity();
    const size_t edge_capacity = graph.edge_slot_capacity();
    const size_t directory_capacity = model.storage().directory_capacity();
    model.Run();
    EXPECT_GT(graph.size(), built) << pool;  // the run created objects
    EXPECT_EQ(graph.object_capacity(), object_capacity) << pool;
    EXPECT_EQ(graph.edge_slot_capacity(), edge_capacity) << pool;
    EXPECT_EQ(model.storage().directory_capacity(), directory_capacity)
        << pool;
  }
}

// Heap allocations and requested bytes per created object of one build.
struct BuildCost {
  double allocations_per_object = 0;
  double bytes_per_object = 0;
};

// Counts what `build` allocates, per object of `graph`, and prints it
// under `label`.
template <typename BuildFn>
BuildCost MeasureBuild(const std::string& label, const obj::ObjectGraph& graph,
                       BuildFn&& build) {
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed);
  const uint64_t bytes = g_bytes.load(std::memory_order_relaxed);
  build();
  const auto objects = static_cast<double>(graph.size());
  const BuildCost cost{
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations) /
          objects,
      static_cast<double>(g_bytes.load(std::memory_order_relaxed) - bytes) /
          objects};
  std::printf("%s: %zu objects, %.3f allocations and %.1f bytes per object\n",
              label.c_str(), graph.size(), cost.allocations_per_object,
              cost.bytes_per_object);
  return cost;
}

// One 48 MB OCT build (the database of an oct_dyn cell) placed under
// `pool`, with no buffer mirroring. The graph's columns and the storage
// directory must end with the capacity the builder reserved.
BuildCost OctBuildCost(cluster::CandidatePool pool) {
  obj::TypeLattice lattice;
  const workload::CadTypes types = workload::RegisterCadTypes(lattice);
  obj::ObjectGraph graph(&lattice);
  store::StorageManager storage(4096);
  cluster::AffinityModel affinity(&lattice);
  cluster::ClusterConfig config;
  config.pool = pool;
  cluster::ClusterManager mgr(&graph, &storage, &affinity, nullptr, config);
  workload::DatabaseSpec spec;
  spec.target_bytes = 48 << 20;
  workload::DbBuilder builder(&graph, &mgr, nullptr, spec);
  workload::DesignDatabase db;
  const BuildCost cost =
      MeasureBuild(std::string(cluster::CandidatePoolName(pool)) + " build",
                   graph, [&] { db = builder.Build(types); });
  EXPECT_EQ(db.TotalObjects(), graph.size());
  EXPECT_LE(builder.batch_buffer_capacity(), cluster::kBuildBatchObjects);
  const workload::DbBuilder::Reservation& reserved = builder.reservation();
  EXPECT_LE(graph.size(), reserved.objects);
  EXPECT_LE(db.modules.size(), reserved.modules);
  EXPECT_EQ(graph.object_capacity(), reserved.objects);
  EXPECT_EQ(graph.edge_slot_capacity(), reserved.edge_slots);
  EXPECT_EQ(storage.directory_capacity(), reserved.objects);
  EXPECT_EQ(db.modules.capacity(), reserved.modules);
  return cost;
}

// Bytes are requested, not resident: the part of a column reserved past
// the objects built is never touched.
TEST(AllocBudgetTest, DatabaseBuildAllocatesUnderBudget) {
  const BuildCost arrival =
      OctBuildCost(cluster::CandidatePool::kNoClustering);
  EXPECT_LE(arrival.allocations_per_object, 0.22);
  EXPECT_LE(arrival.bytes_per_object, 88);
  const BuildCost clustered = OctBuildCost(cluster::CandidatePool::kWithinDb);
  EXPECT_LE(clustered.allocations_per_object, 0.5);
  EXPECT_LE(clustered.bytes_per_object, 110);
}

// With a buffer mirrored, a No_Clustering build fills whole batches of
// object sizes and page runs, and a run-time clustering build records
// each object's interleaved read; no buffer outgrows the batch bound.
TEST(AllocBudgetTest, BuildBatchBuffersStayWithinTheBatchBound) {
  for (const cluster::CandidatePool pool :
       {cluster::CandidatePool::kNoClustering,
        cluster::CandidatePool::kWithinDb}) {
    obj::TypeLattice lattice;
    const workload::CadTypes types = workload::RegisterCadTypes(lattice);
    obj::ObjectGraph graph(&lattice);
    store::StorageManager storage(4096, 0.8);
    buffer::BufferPool buffer(128, buffer::ReplacementPolicy::kLru);
    cluster::AffinityModel affinity(&lattice);
    cluster::ClusterConfig config;
    config.pool = pool;
    cluster::ClusterManager mgr(&graph, &storage, &affinity, &buffer,
                                config);
    workload::DatabaseSpec spec;
    spec.target_bytes = 4 << 20;
    workload::DbBuilder builder(&graph, &mgr, &buffer, spec);
    builder.Build(types);
    EXPECT_GT(graph.size(), 2 * cluster::kBuildBatchObjects);
    EXPECT_GT(builder.batch_buffer_capacity(), 0u);
    EXPECT_LE(builder.batch_buffer_capacity(), cluster::kBuildBatchObjects)
        << cluster::CandidatePoolName(pool);
  }
}

// One OCB build of an ocb_small cell (bench/scenarios/ocb_small.scenario.json)
// under No_limit, assembled as ServerContext assembles it, buffer mirroring
// included. The plan is exact, so the columns end exactly full.
BuildCost OcbBuildCost(const char* locality) {
  const auto spec = core::ParseScenario(std::string(R"json({
    "name": "alloc_budget_ocb",
    "config": {
      "buffer_level": "medium",
      "seed": 1,
      "clustering": {"pool": "No_limit"},
      "workload": {
        "kind": "ocb", "rw_ratio": 10, "classes": 16, "hierarchy_depth": 4,
        "instances": 6000, "refs_per_object": 3, "locality": ")json") +
                                        locality + R"json(",
        "partitions": 16, "set_lookup_size": 4, "traversal_depth": 2
      }
    }
  })json");
  OODB_CHECK(spec.ok());
  const core::ModelConfig cfg = spec->Expand().front().config;
  obj::TypeLattice lattice;
  const ocb::OcbSchema schema =
      ocb::RegisterOcbClasses(lattice, cfg.ocb, cfg.seed ^ 0x0CB0CB);
  obj::ObjectGraph graph(&lattice);
  store::StorageManager storage(cfg.page_size_bytes,
                                cfg.append_fill_fraction);
  buffer::BufferPool buffer(cfg.buffer_pages, cfg.replacement,
                            cfg.seed ^ 0xB0FFEB0FF);
  cluster::AffinityModel affinity(&lattice);
  cluster::ClusterManager mgr(&graph, &storage, &affinity, &buffer,
                              cfg.clustering);
  ocb::OcbBuilder builder(&graph, &mgr, &buffer, cfg.ocb);
  const BuildCost cost =
      MeasureBuild(std::string("OCB ") + locality + " No_limit build", graph,
                   [&] { builder.Build(schema, cfg.seed ^ 0xDBDBDB); });
  EXPECT_EQ(graph.size(), static_cast<size_t>(cfg.ocb.instances));
  EXPECT_GT(mgr.stats().exam_reads, 0u);  // candidates were scored
  size_t edges = 0;
  for (obj::ObjectId id = 0; id < graph.size(); ++id) {
    edges += graph.EdgeCount(id);
  }
  EXPECT_EQ(graph.object_capacity(), graph.size());
  EXPECT_EQ(graph.edge_slot_capacity(), edges);
  EXPECT_EQ(storage.directory_capacity(), graph.size());
  return cost;
}

TEST(AllocBudgetTest, OcbBuildAllocatesUnderBudget) {
  for (const char* locality : {"uniform", "gaussian", "zipf"}) {
    const BuildCost cost = OcbBuildCost(locality);
    EXPECT_LE(cost.allocations_per_object, 0.35) << locality;
    EXPECT_LE(cost.bytes_per_object, 270) << locality;
  }
}

}  // namespace
}  // namespace oodb
