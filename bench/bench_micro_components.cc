// Component micro-benchmarks on google-benchmark: the cost of the core
// mechanisms — buffer-pool fixes per replacement policy, page splitting at
// several graph sizes, the event kernel, coroutine tasks, lock and latch
// requests, candidate scoring, the OCT and OCB database builds, the
// placement audit, and the workload RNG. These are engineering baselines,
// not paper figures.

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "buffer/buffer_pool.h"
#include "cc/lock_manager.h"
#include "sim/event_calendar.h"
#include "cluster/affinity.h"
#include "cluster/cluster_manager.h"
#include "cluster/page_splitter.h"
#include "cluster/static_clusterer.h"
#include "core/model_config.h"
#include "obs/placement_auditor.h"
#include "ocb/ocb_builder.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "storage/storage_manager.h"
#include "util/random.h"
#include "workload/db_builder.h"

namespace oodb {
namespace {

// ------------------------------------------------------------ buffer

void BM_BufferFix(benchmark::State& state) {
  const auto policy = static_cast<buffer::ReplacementPolicy>(state.range(0));
  buffer::BufferPool pool(1024, policy, 7);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pool.Fix(static_cast<store::PageId>(rng.Zipf(8192, 0.7))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BufferFix)
    ->Arg(static_cast<int>(buffer::ReplacementPolicy::kLru))
    ->Arg(static_cast<int>(buffer::ReplacementPolicy::kContextSensitive))
    ->Arg(static_cast<int>(buffer::ReplacementPolicy::kRandom));

void BM_BufferBoost(benchmark::State& state) {
  buffer::BufferPool pool(1024, buffer::ReplacementPolicy::kContextSensitive);
  for (store::PageId p = 0; p < 1024; ++p) pool.Fix(p);
  Rng rng(13);
  for (auto _ : state) {
    pool.Boost(static_cast<store::PageId>(rng.NextBelow(1024)), 2.0);
  }
}
BENCHMARK(BM_BufferBoost);

// ------------------------------------------------------------ splitter

cluster::DependencyGraph MakeGraph(int nodes, Rng& rng) {
  cluster::DependencyGraph g;
  for (int i = 0; i < nodes; ++i) {
    g.nodes.push_back(cluster::DepNode{static_cast<obj::ObjectId>(i),
                                       80 + static_cast<uint32_t>(
                                                rng.NextBelow(120))});
  }
  for (uint32_t a = 0; a + 1 < static_cast<uint32_t>(nodes); ++a) {
    g.arcs.push_back(
        cluster::DepArc{a, a + 1, rng.UniformDouble(0.1, 1.0)});
    if (rng.Bernoulli(0.3)) {
      const auto b = static_cast<uint32_t>(rng.NextBelow(a + 1));
      g.arcs.push_back(cluster::DepArc{b, a + 1, rng.UniformDouble(0.05, 0.4)});
    }
  }
  return g;
}

void BM_GreedyLinearSplit(benchmark::State& state) {
  Rng rng(17);
  auto g = MakeGraph(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::GreedyLinearSplit(g, 4096));
  }
}
BENCHMARK(BM_GreedyLinearSplit)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ExhaustiveSplit(benchmark::State& state) {
  Rng rng(19);
  auto g = MakeGraph(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::ExhaustiveMinCutSplit(g, 4096));
  }
}
BENCHMARK(BM_ExhaustiveSplit)->Arg(8)->Arg(16)->Arg(22)->Arg(40);

// ------------------------------------------------------------ sim kernel

// Hold-model benchmark (Vaucher & Duval): keep the queue at a steady
// population N and repeatedly pop the minimum and re-push it at a random
// offset. This is the access pattern the simulator's pending-event set
// sees, and the regime where the bucketed calendar's O(1) amortised
// Push/PopMin beats the binary heap's O(log N).
void BM_EventCalendarHold(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  sim::EventCalendar cal;
  Rng rng(31);
  uint64_t seq = 0;
  // Fill with the same spread the hold increments produce: the calendar
  // tunes its bucket width from the live population at resize time (size
  // triggers only, per Brown), so a fill that mismatches the steady state
  // would leave the day width mistuned for the whole run.
  for (size_t i = 0; i < n; ++i) {
    cal.Push(rng.UniformDouble(0.0, 10.0), seq++, 0);
  }
  for (auto _ : state) {
    const sim::EventCalendar::Entry e = cal.PopMin();
    cal.Push(e.time + rng.UniformDouble(0.1, 10.0), seq++, e.payload);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventCalendarHold)->Arg(64)->Arg(1024)->Arg(16384);

// The same hold workload on the std::priority_queue the calendar replaced,
// so the speedup is visible in one report.
void BM_HeapHold(benchmark::State& state) {
  struct Ref {
    double time;
    uint64_t seq;
    bool operator>(const Ref& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  const auto n = static_cast<size_t>(state.range(0));
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> heap;
  Rng rng(31);
  uint64_t seq = 0;
  for (size_t i = 0; i < n; ++i) {
    heap.push(Ref{rng.UniformDouble(0.0, 10.0), seq++});
  }
  for (auto _ : state) {
    const Ref e = heap.top();
    heap.pop();
    heap.push(Ref{e.time + rng.UniformDouble(0.1, 10.0), seq++});
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HeapHold)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(static_cast<double>(i % 17), [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEvents);

void BM_ResourceRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Resource cpu(sim, "cpu", 1);
    for (int i = 0; i < 100; ++i) {
      sim::Spawn([](sim::Simulator&, sim::Resource& r) -> sim::Task {
        co_await r.Use(0.001);
      }(sim, cpu));
    }
    sim.Run();
    benchmark::DoNotOptimize(cpu.completions());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ResourceRoundTrip);

sim::Task AwaitChain(int depth, int& leaves) {
  if (depth == 0) {
    ++leaves;
    co_return;
  }
  co_await AwaitChain(depth - 1, leaves);
}

// One spawned process whose body awaits a chain of nested tasks four deep:
// five task frames and one driver frame are created and destroyed per
// iteration, the shape of a transaction's primitive calls.
void BM_TaskAwaitChain(benchmark::State& state) {
  int leaves = 0;
  for (auto _ : state) {
    sim::Spawn(AwaitChain(4, leaves));
  }
  benchmark::DoNotOptimize(leaves);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TaskAwaitChain);

// ---------------------------------------------------------------- cc

// One transaction's uncontended lock traffic: four exclusive locks on keys
// no earlier transaction used (each granted at once), ReleaseAll, then one
// page latch acquired and released. Items are transactions.
void BM_LockAcquireRelease(benchmark::State& state) {
  sim::Simulator sim;
  cc::CcConfig config;
  config.enabled = true;
  cc::LockManager lm(sim, config);
  cc::TxnId txn = 0;
  for (auto _ : state) {
    ++txn;
    for (cc::LockKey k = 0; k < 4; ++k) {
      auto lock = lm.Acquire(txn, txn * 4 + k, cc::LockMode::kExclusive);
      benchmark::DoNotOptimize(lock.await_ready());
    }
    lm.ReleaseAll(txn);
    auto latch = lm.AcquireLatch(txn);
    benchmark::DoNotOptimize(latch.await_ready());
    lm.ReleaseLatch(txn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

// --------------------------------------------------------- cluster score

void BM_ScoreCandidates(benchmark::State& state) {
  obj::TypeLattice lattice;
  auto types = workload::RegisterCadTypes(lattice);
  obj::ObjectGraph graph(&lattice);
  store::StorageManager storage(4096);
  cluster::AffinityModel affinity(&lattice);
  cluster::ClusterManager mgr(&graph, &storage, &affinity, nullptr,
                              {.pool = cluster::CandidatePool::kWithinDb});
  workload::DatabaseSpec spec;
  spec.target_bytes = 512 << 10;
  workload::DbBuilder builder(&graph, &mgr, nullptr, spec);
  auto db = builder.Build(types);

  Rng rng(23);
  const auto& objects = db.modules[0].objects;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mgr.ScoreCandidates(objects[rng.NextBelow(objects.size())]));
  }
}
BENCHMARK(BM_ScoreCandidates);

// ---------------------------------------------------------- OCT database

// A fixed-seed 48 MB OCT database, the size of an oct_dyn cell, built
// without buffer mirroring and placed under `pool`.
struct OctDatabase {
  obj::TypeLattice lattice;
  workload::CadTypes types = workload::RegisterCadTypes(lattice);
  obj::ObjectGraph graph{&lattice};
  store::StorageManager storage{4096};
  cluster::AffinityModel affinity{&lattice};
  cluster::ClusterManager mgr;
  explicit OctDatabase(cluster::CandidatePool pool)
      : mgr(&graph, &storage, &affinity, nullptr, {.pool = pool}) {
    workload::DatabaseSpec spec;
    spec.target_bytes = 48 << 20;
    workload::DbBuilder(&graph, &mgr, nullptr, spec).Build(types);
  }
};

// ------------------------------------------------------- placement audit

// One full PlacementAuditor::Sample over a built database. Args 0 and 3
// are OCT databases (acyclic configurations, a few objects per root): 2 MB,
// and 48 MB, the default database_bytes with the object count of an
// oct_dyn cell (about 187k objects, here on 13k pages), whose object/edge
// pass does not fit in L2. Arg 4 is the 48 MB OctDatabase after
// StaticClusterer::Reorganize, the state an oct_dyn cell audits (about 27k
// pages). Args 1 and 2 are 6000-instance OCB graphs whose random references
// form one giant configuration cycle — under zipf locality every root's
// closure stays under the walk cap, under uniform locality every root hits
// it.
void BM_PlacementAuditorSample(benchmark::State& state) {
  constexpr const char* kLabels[] = {"oct", "ocb_zipf", "ocb_uniform",
                                     "oct_48mb", "oct_48mb_reorganized"};
  const int64_t arg = state.range(0);
  state.SetLabel(kLabels[arg]);
  const auto time_samples = [&state](const obj::ObjectGraph& graph,
                                     const store::StorageManager& storage) {
    const obs::PlacementAuditor auditor(&graph, &storage);
    for (auto _ : state) {
      benchmark::DoNotOptimize(auditor.Sample());
    }
  };
  if (arg == 4) {
    OctDatabase db(cluster::CandidatePool::kNoClustering);
    cluster::StaticClusterer(&db.graph, &db.storage, &db.affinity)
        .Reorganize();
    time_samples(db.graph, db.storage);
    return;
  }
  obj::TypeLattice lattice;
  ocb::OcbConfig ocb;
  ocb.enabled = arg == 1 || arg == 2;
  ocb.instances = 6000;
  ocb.classes = 16;
  ocb.locality = arg == 1 ? ocb::RefLocality::kZipf
                          : ocb::RefLocality::kUniform;
  ocb::OcbSchema schema;
  workload::CadTypes types{};
  if (ocb.enabled) {
    schema = ocb::RegisterOcbClasses(lattice, ocb, 41);
  } else {
    types = workload::RegisterCadTypes(lattice);
  }
  obj::ObjectGraph graph(&lattice);
  store::StorageManager storage(4096);
  cluster::AffinityModel affinity(&lattice);
  cluster::ClusterManager mgr(&graph, &storage, &affinity, nullptr, {});
  if (ocb.enabled) {
    ocb::OcbBuilder(&graph, &mgr, nullptr, ocb).Build(schema, 43);
  } else {
    workload::DatabaseSpec spec;
    spec.target_bytes = arg == 3 ? 48 << 20 : 2 << 20;
    workload::DbBuilder(&graph, &mgr, nullptr, spec).Build(types);
  }
  time_samples(graph, storage);
}
BENCHMARK(BM_PlacementAuditorSample)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- database build

// One DbBuilder::Build of an OctDatabase. Arg 0 places in arrival order
// (No_Clustering), Arg 1 scores candidates over the whole database
// (No_limit). The previous iteration's database is freed with the timer
// paused.
void BM_DbBuild(benchmark::State& state) {
  const cluster::CandidatePool pool =
      state.range(0) == 0 ? cluster::CandidatePool::kNoClustering
                          : cluster::CandidatePool::kWithinDb;
  std::unique_ptr<OctDatabase> db;
  for (auto _ : state) {
    state.PauseTiming();
    db.reset();
    state.ResumeTiming();
    db = std::make_unique<OctDatabase>(pool);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(db->graph.size()));
  state.SetLabel(cluster::CandidatePoolName(pool));
}
BENCHMARK(BM_DbBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One OcbBuilder::Build of an ocb_small cell's database (6000 instances,
// 16 classes, 3 references each) placed under No_limit with buffer
// mirroring, as ServerContext assembles it. Arg 0 uniform, 1 gaussian,
// 2 zipf reference locality. The previous iteration's database is freed
// with the timer paused.
struct OcbDatabase {
  core::ModelConfig cfg;
  obj::TypeLattice lattice;
  ocb::OcbSchema schema;
  obj::ObjectGraph graph{&lattice};
  std::unique_ptr<store::StorageManager> storage;
  std::unique_ptr<buffer::BufferPool> buffer;
  std::unique_ptr<cluster::AffinityModel> affinity;
  std::unique_ptr<cluster::ClusterManager> mgr;
  explicit OcbDatabase(ocb::RefLocality locality) {
    cfg.ocb.enabled = true;
    cfg.ocb.classes = 16;
    cfg.ocb.hierarchy_depth = 4;
    cfg.ocb.instances = 6000;
    cfg.ocb.refs_per_object = 3;
    cfg.ocb.partitions = 16;
    cfg.ocb.locality = locality;
    cfg.clustering.pool = cluster::CandidatePool::kWithinDb;
    cfg.buffer_pages = cfg.BufferMedium();
    // The affinity model sizes its per-type table from the lattice, so
    // the schema comes first.
    schema = ocb::RegisterOcbClasses(lattice, cfg.ocb, cfg.seed ^ 0x0CB0CB);
    storage = std::make_unique<store::StorageManager>(
        cfg.page_size_bytes, cfg.append_fill_fraction);
    buffer = std::make_unique<buffer::BufferPool>(
        cfg.buffer_pages, cfg.replacement, cfg.seed ^ 0xB0FFEB0FF);
    affinity = std::make_unique<cluster::AffinityModel>(&lattice);
    mgr = std::make_unique<cluster::ClusterManager>(
        &graph, storage.get(), affinity.get(), buffer.get(), cfg.clustering);
  }
  void Build() {
    ocb::OcbBuilder(&graph, mgr.get(), buffer.get(), cfg.ocb)
        .Build(schema, cfg.seed ^ 0xDBDBDB);
  }
};

void BM_OcbBuild(benchmark::State& state) {
  constexpr ocb::RefLocality kLocalities[] = {ocb::RefLocality::kUniform,
                                              ocb::RefLocality::kGaussian,
                                              ocb::RefLocality::kZipf};
  const ocb::RefLocality locality = kLocalities[state.range(0)];
  std::unique_ptr<OcbDatabase> db;
  for (auto _ : state) {
    state.PauseTiming();
    db = std::make_unique<OcbDatabase>(locality);  // frees the previous one
    state.ResumeTiming();
    db->Build();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(db->graph.size()));
  state.SetLabel(ocb::RefLocalityName(locality));
}
BENCHMARK(BM_OcbBuild)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------- static clustering

// One StaticClusterer::Reorganize (visit order plus repack) of an
// OctDatabase built in arrival order, the policy of an oct_dyn cell. Each
// iteration rebuilds the database with the timer paused, so only the
// reorganisation is timed.
void BM_StaticReorganize(benchmark::State& state) {
  std::unique_ptr<OctDatabase> db;
  for (auto _ : state) {
    state.PauseTiming();
    // Frees the previous database too.
    db = std::make_unique<OctDatabase>(cluster::CandidatePool::kNoClustering);
    cluster::StaticClusterer reorg(&db->graph, &db->storage, &db->affinity);
    state.ResumeTiming();
    benchmark::DoNotOptimize(reorg.Reorganize());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(db->graph.live_count()));
}
BENCHMARK(BM_StaticReorganize)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ rng

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Zipf(100000, 0.6));
  }
}
BENCHMARK(BM_ZipfSample);

// The same draws through a ZipfTransform held across them, as the OCB
// builder and the workload generators draw.
void BM_ZipfTransformSample(benchmark::State& state) {
  Rng rng(29);
  const ZipfTransform zipf(100000, 0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfTransformSample);

}  // namespace
}  // namespace oodb

BENCHMARK_MAIN();
