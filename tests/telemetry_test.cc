#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/bench_report.h"
#include "core/engineering_db.h"
#include "core/experiment.h"
#include "core/model_config.h"
#include "dyn/dyn_config.h"
#include "exec/experiment_runner.h"
#include "ocb/ocb_config.h"
#include "obs/metrics.h"
#include "obs/placement_auditor.h"
#include "obs/time_series.h"
#include "objmodel/object_graph.h"
#include "objmodel/type_system.h"
#include "storage/storage_manager.h"
#include "util/random.h"

namespace oodb {
namespace {

// ------------------------------------------------------ sampler mechanics

TEST(TimeSeriesSamplerTest, DeltasBetweenSamplesNotCumulatives) {
  obs::MetricsRegistry reg;
  const obs::CounterHandle c = reg.Counter("c");
  obs::TimeSeriesSampler sampler(&reg, /*interval_s=*/0);

  reg.Add(c, 100);  // warmup activity lands in the baseline, not a sample
  sampler.StartMeasurement(10.0);
  reg.Add(c, 5);
  sampler.SampleEpochBoundary(20.0, 0);
  reg.Add(c, 7);
  sampler.SampleFinal(30.0, 1);

  const obs::TimeSeries& series = sampler.series();
  ASSERT_EQ(series.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(series.samples[0].sim_time_s, 20.0);
  EXPECT_EQ(series.samples[0].epoch, 0u);
  EXPECT_TRUE(series.samples[0].epoch_boundary);
  EXPECT_EQ(series.samples[0].counter_delta("c"), 5u);
  EXPECT_DOUBLE_EQ(series.samples[1].sim_time_s, 30.0);
  EXPECT_EQ(series.samples[1].epoch, 1u);
  EXPECT_TRUE(series.samples[1].epoch_boundary);
  EXPECT_EQ(series.samples[1].counter_delta("c"), 7u);
}

TEST(TimeSeriesSamplerTest, ZeroDeltasKeepTheKeySet) {
  obs::MetricsRegistry reg;
  reg.Counter("idle");
  obs::TimeSeriesSampler sampler(&reg, 0);
  sampler.StartMeasurement(0.0);
  sampler.SampleFinal(1.0, 0);
  ASSERT_EQ(sampler.series().samples.size(), 1u);
  EXPECT_EQ(sampler.series().samples[0].counter_delta("idle"), 0u);
}

TEST(TimeSeriesSamplerTest, CounterRegisteredMidSeriesDeltasFromZero) {
  obs::MetricsRegistry reg;
  obs::TimeSeriesSampler sampler(&reg, 0);
  sampler.StartMeasurement(0.0);
  const obs::CounterHandle late = reg.Counter("late");
  reg.Add(late, 3);
  sampler.SampleFinal(1.0, 0);
  EXPECT_EQ(sampler.series().samples[0].counter_delta("late"), 3u);
  EXPECT_EQ(sampler.series().samples[0].counter_delta("nonesuch"),
            std::nullopt);
}

TEST(TimeSeriesSamplerTest, PreSampleHookSyncsMirroredCounters) {
  // The model mirrors component-owned counters into the registry with
  // set-semantics right before each snapshot; deltas must still come out
  // as per-window flows.
  obs::MetricsRegistry reg;
  const obs::CounterHandle mirror = reg.Counter("mirror");
  uint64_t component_total = 0;
  obs::TimeSeriesSampler sampler(&reg, 0);
  sampler.set_pre_sample_hook(
      [&] { reg.SetCounter(mirror, component_total); });

  sampler.StartMeasurement(0.0);
  component_total = 42;
  sampler.SampleEpochBoundary(1.0, 0);
  component_total = 50;
  sampler.SampleFinal(2.0, 1);

  const auto& samples = sampler.series().samples;
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].counter_delta("mirror"), 42u);
  EXPECT_EQ(samples[1].counter_delta("mirror"), 8u);
}

TEST(TimeSeriesSamplerTest, GaugesAreLevelsNotFlows) {
  obs::MetricsRegistry reg;
  const obs::GaugeHandle g = reg.Gauge("g");
  obs::TimeSeriesSampler sampler(&reg, 0);
  sampler.StartMeasurement(0.0);
  reg.Set(g, 2.5);
  sampler.SampleEpochBoundary(1.0, 0);
  reg.Set(g, 7.5);
  sampler.SampleFinal(2.0, 1);
  const auto& samples = sampler.series().samples;
  ASSERT_EQ(samples.size(), 2u);
  ASSERT_EQ(samples[0].gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].gauges[0].second, 2.5);
  EXPECT_DOUBLE_EQ(samples[1].gauges[0].second, 7.5);
}

TEST(TimeSeriesSamplerTest, IntervalScheduleCatchesUpWithoutBackfill) {
  obs::MetricsRegistry reg;
  obs::TimeSeriesSampler sampler(&reg, /*interval_s=*/10.0);
  sampler.Poll(100.0, 0);  // before StartMeasurement: no-op
  EXPECT_TRUE(sampler.series().empty());

  sampler.StartMeasurement(0.0);
  sampler.Poll(5.0, 0);
  EXPECT_EQ(sampler.series().samples.size(), 0u);
  sampler.Poll(12.0, 0);  // crossed t=10
  ASSERT_EQ(sampler.series().samples.size(), 1u);
  EXPECT_DOUBLE_EQ(sampler.series().samples[0].sim_time_s, 12.0);
  EXPECT_FALSE(sampler.series().samples[0].epoch_boundary);
  sampler.Poll(13.0, 0);  // next boundary is 20
  EXPECT_EQ(sampler.series().samples.size(), 1u);
  sampler.Poll(47.0, 0);  // skipped 20/30/40: ONE catch-up sample
  ASSERT_EQ(sampler.series().samples.size(), 2u);
  EXPECT_DOUBLE_EQ(sampler.series().samples[1].sim_time_s, 47.0);
  sampler.Poll(50.0, 0);  // next boundary after 47 is 50
  EXPECT_EQ(sampler.series().samples.size(), 3u);
}

TEST(TimeSeriesTest, MergeFromSumsDeltasByIndex) {
  obs::MetricsRegistry reg_a;
  const obs::CounterHandle ca = reg_a.Counter("c");
  obs::TimeSeriesSampler a(&reg_a, 0);
  a.StartMeasurement(0.0);
  reg_a.Add(ca, 5);
  a.SampleFinal(10.0, 0);

  obs::MetricsRegistry reg_b;
  const obs::CounterHandle cb = reg_b.Counter("c");
  obs::TimeSeriesSampler b(&reg_b, 0);
  b.StartMeasurement(0.0);
  reg_b.Add(cb, 7);
  b.SampleFinal(20.0, 0);

  obs::TimeSeries merged = a.series();
  merged.MergeFrom(b.series());
  ASSERT_EQ(merged.samples.size(), 1u);
  EXPECT_EQ(merged.samples[0].counter_delta("c"), 12u);
  EXPECT_DOUBLE_EQ(merged.samples[0].sim_time_s, 20.0);  // max over cells
}

// ------------------------------------------------------ placement auditor

class PlacementAuditorTest : public ::testing::Test {
 protected:
  PlacementAuditorTest() : graph_(&lattice_), store_(100) {
    t_ = lattice_.DefineType("t", obj::kInvalidType, 0, {});
    u_ = lattice_.DefineType("u", obj::kInvalidType, 0, {});
    fam_ = graph_.NewFamily("f");
  }

  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager store_;
  obj::TypeId t_ = obj::kInvalidType;
  obj::TypeId u_ = obj::kInvalidType;
  obj::FamilyId fam_ = obj::kInvalidFamily;
};

TEST_F(PlacementAuditorTest, AuditsEdgesOccupancyAndConfigurations) {
  const obj::ObjectId a = graph_.Create(fam_, 0, t_, 40);
  const obj::ObjectId b = graph_.Create(fam_, 1, t_, 40);
  const obj::ObjectId c = graph_.Create(fam_, 2, u_, 40);
  const obj::ObjectId d = graph_.Create(fam_, 3, u_, 40);  // never placed

  const store::PageId p0 = store_.AllocatePage();
  const store::PageId p1 = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(a, 40, p0).ok());
  ASSERT_TRUE(store_.Place(b, 40, p0).ok());
  ASSERT_TRUE(store_.Place(c, 40, p1).ok());

  graph_.Relate(a, b, obj::RelKind::kConfiguration);   // co-located
  graph_.Relate(a, c, obj::RelKind::kConfiguration);   // cross-page
  graph_.Relate(b, c, obj::RelKind::kCorrespondence);  // symmetric: 2 edges
  graph_.Relate(a, d, obj::RelKind::kVersionHistory);  // target unplaced

  const obs::PlacementAuditor auditor(&graph_, &store_);
  const obs::PlacementSample s = auditor.Sample();

  EXPECT_EQ(s.live_objects, 4u);
  EXPECT_EQ(s.placed_objects, 3u);
  EXPECT_EQ(s.pages, 2u);
  EXPECT_EQ(s.nonempty_pages, 2u);

  const auto& config =
      s.by_kind[static_cast<size_t>(obj::RelKind::kConfiguration)];
  EXPECT_EQ(config.edges, 2u);
  EXPECT_EQ(config.colocated, 1u);
  const auto& corr =
      s.by_kind[static_cast<size_t>(obj::RelKind::kCorrespondence)];
  EXPECT_EQ(corr.edges, 2u);  // counted once per symmetric endpoint
  EXPECT_EQ(corr.colocated, 0u);
  const auto& vh =
      s.by_kind[static_cast<size_t>(obj::RelKind::kVersionHistory)];
  EXPECT_EQ(vh.edges, 0u);  // unplaced endpoint does not qualify
  EXPECT_EQ(s.edges, 4u);
  EXPECT_EQ(s.colocated, 1u);
  EXPECT_DOUBLE_EQ(*s.ColocatedFraction(), 0.25);

  // p0 is 80/100 full (decile 8), p1 is 40/100 full (decile 4).
  EXPECT_EQ(s.occupancy_histogram[8], 1u);
  EXPECT_EQ(s.occupancy_histogram[4], 1u);
  EXPECT_DOUBLE_EQ(s.mean_occupancy, 0.6);

  // Both types fit on one page and span exactly one: no fragmentation.
  EXPECT_EQ(s.types_audited, 2u);
  EXPECT_DOUBLE_EQ(s.mean_type_fragmentation, 1.0);

  // `a` is the sole configuration root; {a, b, c} spans two pages.
  EXPECT_EQ(s.configurations, 1u);
  EXPECT_DOUBLE_EQ(s.mean_pages_per_configuration, 2.0);
}

TEST_F(PlacementAuditorTest, DeletedObjectsAreExcluded) {
  const obj::ObjectId a = graph_.Create(fam_, 0, t_, 40);
  const obj::ObjectId b = graph_.Create(fam_, 1, t_, 40);
  const store::PageId p0 = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(a, 40, p0).ok());
  ASSERT_TRUE(store_.Place(b, 40, p0).ok());
  graph_.Relate(a, b, obj::RelKind::kConfiguration);
  graph_.Remove(b);

  const obs::PlacementAuditor auditor(&graph_, &store_);
  const obs::PlacementSample s = auditor.Sample();
  EXPECT_EQ(s.live_objects, 1u);
  EXPECT_EQ(s.edges, 0u);  // Remove detached the edge
  EXPECT_EQ(s.ColocatedFraction(), std::nullopt);
}

TEST_F(PlacementAuditorTest, ChurnEmptiedPagesKeepRatiosFinite) {
  // Structural churn can delete every object off a page; the page stays
  // allocated. The auditor must report it via empty_pages and keep every
  // mean finite (the NaN regression this guards: mean over zero non-empty
  // pages).
  const obj::ObjectId a = graph_.Create(fam_, 0, t_, 40);
  const obj::ObjectId b = graph_.Create(fam_, 1, t_, 40);
  const obj::ObjectId c = graph_.Create(fam_, 2, t_, 40);
  const store::PageId p0 = store_.AllocatePage();
  const store::PageId p1 = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(a, 40, p0).ok());
  ASSERT_TRUE(store_.Place(b, 40, p0).ok());
  ASSERT_TRUE(store_.Place(c, 40, p1).ok());
  graph_.Relate(a, b, obj::RelKind::kConfiguration);

  // Churn empties p1.
  graph_.Remove(c);
  ASSERT_TRUE(store_.Erase(c).ok());

  const obs::PlacementAuditor auditor(&graph_, &store_);
  obs::PlacementSample s = auditor.Sample();
  EXPECT_EQ(s.pages, 2u);
  EXPECT_EQ(s.nonempty_pages, 1u);
  EXPECT_EQ(s.empty_pages, 1u);
  EXPECT_TRUE(std::isfinite(s.mean_occupancy));
  EXPECT_DOUBLE_EQ(s.mean_occupancy, 0.8);  // p1 excluded from the mean
  EXPECT_TRUE(std::isfinite(s.mean_type_fragmentation));

  // Extreme: churn empties the whole store. Every ratio degrades to a
  // well-defined zero / nullopt, never NaN, and the JSON stays parseable.
  graph_.Remove(a);
  graph_.Remove(b);
  ASSERT_TRUE(store_.Erase(a).ok());
  ASSERT_TRUE(store_.Erase(b).ok());
  s = auditor.Sample();
  EXPECT_EQ(s.live_objects, 0u);
  EXPECT_EQ(s.nonempty_pages, 0u);
  EXPECT_EQ(s.empty_pages, 2u);
  EXPECT_DOUBLE_EQ(s.mean_occupancy, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_type_fragmentation, 0.0);
  EXPECT_EQ(s.ColocatedFraction(), std::nullopt);
  const std::string json = s.ToJson();
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_NE(json.find("\"empty_pages\":2"), std::string::npos) << json;
}

TEST(PlacementSampleTest, MergeOfEmptySamplesStaysFinite) {
  // Cross-cell folds can merge samples from cells whose placement churned
  // down to nothing; the re-weighted means must not divide by zero.
  obs::PlacementSample empty_a, empty_b;
  empty_a.pages = 2;
  empty_a.empty_pages = 2;
  empty_a.MergeFrom(empty_b);
  EXPECT_DOUBLE_EQ(empty_a.mean_occupancy, 0.0);
  EXPECT_DOUBLE_EQ(empty_a.mean_type_fragmentation, 0.0);
  EXPECT_EQ(empty_a.empty_pages, 2u);
  EXPECT_EQ(empty_a.ColocatedFraction(), std::nullopt);

  // Empty folded into populated leaves the populated means untouched.
  obs::PlacementSample full;
  full.nonempty_pages = 4;
  full.mean_occupancy = 0.75;
  full.types_audited = 2;
  full.mean_type_fragmentation = 1.5;
  full.MergeFrom(empty_a);
  EXPECT_DOUBLE_EQ(full.mean_occupancy, 0.75);
  EXPECT_DOUBLE_EQ(full.mean_type_fragmentation, 1.5);
  EXPECT_EQ(full.empty_pages, 2u);
  EXPECT_EQ(full.ToJson().find("nan"), std::string::npos);
}

TEST(PlacementSampleTest, MergeReweightsMeansByPopulation) {
  obs::PlacementSample x;
  x.nonempty_pages = 1;
  x.mean_occupancy = 0.5;
  x.edges = 4;
  x.colocated = 1;
  obs::PlacementSample y;
  y.nonempty_pages = 3;
  y.mean_occupancy = 0.9;
  y.edges = 4;
  y.colocated = 3;
  x.MergeFrom(y);
  EXPECT_EQ(x.nonempty_pages, 4u);
  EXPECT_DOUBLE_EQ(x.mean_occupancy, (0.5 * 1 + 0.9 * 3) / 4);
  EXPECT_DOUBLE_EQ(*x.ColocatedFraction(), 0.5);
}

// ------------------------------------------- placement auditor vs oracle

// PlacementAuditor::Sample as it was before configuration walks moved to a
// CSR and a strongly-connected-component condensation: one stamped DFS per
// root over graph.edges(), capped at 4096 pushed objects. The optimised
// auditor must reproduce every field of it bit for bit.
obs::PlacementSample ReferenceSample(const obj::ObjectGraph& graph,
                                     const store::StorageManager& storage) {
  constexpr size_t kMaxConfigurationWalk = 4096;
  obs::PlacementSample s;
  const size_t type_count = graph.lattice().size();
  const size_t page_count = storage.page_count();
  std::vector<uint64_t> type_bytes(type_count, 0);
  std::vector<uint64_t> type_pages(type_count, 0);
  std::vector<uint8_t> type_page_seen(type_count * page_count, 0);
  std::vector<obj::ObjectId> config_roots;

  const auto num_objects = static_cast<obj::ObjectId>(graph.size());
  for (obj::ObjectId id = 0; id < num_objects; ++id) {
    if (!graph.IsLive(id)) continue;
    ++s.live_objects;
    const obj::DesignObject& o = graph.object(id);
    const store::PageId my_page = storage.PageOf(id);
    if (my_page != store::kInvalidPage) {
      ++s.placed_objects;
      type_bytes[o.type] += storage.SizeOf(id);
      uint8_t& seen = type_page_seen[o.type * page_count + my_page];
      if (seen == 0) {
        seen = 1;
        ++type_pages[o.type];
      }
    }
    bool has_down_config = false;
    bool has_up_config = false;
    for (const obj::Edge e : graph.edges(id)) {
      if (e.kind == obj::RelKind::kConfiguration) {
        (e.dir == obj::Direction::kDown ? has_down_config : has_up_config) =
            true;
      }
      if (e.dir != obj::Direction::kDown) continue;
      if (my_page == store::kInvalidPage || !graph.IsLive(e.target)) continue;
      const store::PageId target_page = storage.PageOf(e.target);
      if (target_page == store::kInvalidPage) continue;
      obs::EdgeLocality& kind = s.by_kind[static_cast<size_t>(e.kind)];
      ++kind.edges;
      ++s.edges;
      if (target_page == my_page) {
        ++kind.colocated;
        ++s.colocated;
      }
    }
    if (has_down_config && !has_up_config) config_roots.push_back(id);
  }

  s.pages = storage.page_count();
  double fill_sum = 0;
  for (store::PageId p = 0; p < storage.page_count(); ++p) {
    const store::Page& page = storage.page(p);
    if (page.object_count() == 0) {
      ++s.empty_pages;
      continue;
    }
    ++s.nonempty_pages;
    const double fill = static_cast<double>(page.used_bytes()) /
                        static_cast<double>(page.capacity_bytes());
    fill_sum += fill;
    size_t bucket = static_cast<size_t>(fill * obs::kOccupancyBuckets);
    if (bucket >= obs::kOccupancyBuckets) bucket = obs::kOccupancyBuckets - 1;
    ++s.occupancy_histogram[bucket];
  }
  if (s.nonempty_pages > 0) {
    s.mean_occupancy = fill_sum / static_cast<double>(s.nonempty_pages);
  }

  const uint64_t capacity = storage.page_size_bytes();
  double frag_sum = 0;
  for (size_t type = 0; type < type_count; ++type) {
    if (type_bytes[type] == 0) continue;
    const uint64_t min_pages =
        std::max<uint64_t>(1, (type_bytes[type] + capacity - 1) / capacity);
    frag_sum += static_cast<double>(type_pages[type]) /
                static_cast<double>(min_pages);
    ++s.types_audited;
  }
  if (s.types_audited > 0) {
    s.mean_type_fragmentation =
        frag_sum / static_cast<double>(s.types_audited);
  }

  double config_pages_sum = 0;
  std::vector<obj::ObjectId> stack;
  std::vector<uint32_t> object_mark(graph.size(), 0);
  std::vector<uint32_t> page_mark(page_count, 0);
  uint32_t walk = 0;
  for (const obj::ObjectId root : config_roots) {
    ++walk;
    object_mark[root] = walk;
    size_t visited = 1;
    size_t distinct_pages = 0;
    stack.assign(1, root);
    while (!stack.empty() && visited < kMaxConfigurationWalk) {
      const obj::ObjectId o = stack.back();
      stack.pop_back();
      const store::PageId p = storage.PageOf(o);
      if (p != store::kInvalidPage && page_mark[p] != walk) {
        page_mark[p] = walk;
        ++distinct_pages;
      }
      graph.ForEachNeighbor(o, obj::RelKind::kConfiguration,
                            obj::Direction::kDown, [&](obj::ObjectId c) {
                              if (graph.IsLive(c) && object_mark[c] != walk) {
                                object_mark[c] = walk;
                                ++visited;
                                stack.push_back(c);
                              }
                            });
    }
    config_pages_sum += static_cast<double>(distinct_pages);
    ++s.configurations;
  }
  if (s.configurations > 0) {
    s.mean_pages_per_configuration =
        config_pages_sum / static_cast<double>(s.configurations);
  }
  return s;
}

/// A seeded random database: objects of four types, 40-80 bytes each, on
/// 400-byte pages.
class AuditWorld {
 public:
  explicit AuditWorld(uint64_t seed)
      : graph_(&lattice_), store_(400), rng_(seed) {
    for (const char* name : {"t0", "t1", "t2", "t3"}) {
      types_.push_back(lattice_.DefineType(name, obj::kInvalidType, 0, {}));
    }
    fam_ = graph_.NewFamily("f");
  }

  std::vector<obj::ObjectId> Create(size_t n) {
    std::vector<obj::ObjectId> ids;
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(graph_.Create(
          fam_, static_cast<uint16_t>(graph_.size() % 60000),
          types_[rng_.NextBelow(types_.size())],
          40 + static_cast<uint32_t>(rng_.NextBelow(41))));
    }
    return ids;
  }

  void Configure(obj::ObjectId parent, obj::ObjectId child) {
    graph_.Relate(parent, child, obj::RelKind::kConfiguration);
  }

  /// Places `ids` in shuffled order, `per_page` to a fresh page, leaving
  /// each one unplaced with probability `unplaced`.
  void Place(std::vector<obj::ObjectId> ids, size_t per_page,
             double unplaced) {
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng_.NextBelow(i)]);
    }
    store::PageId page = store::kInvalidPage;
    size_t on_page = per_page;
    for (const obj::ObjectId id : ids) {
      if (rng_.Bernoulli(unplaced)) continue;
      if (on_page == per_page) {
        page = store_.AllocatePage();
        on_page = 0;
      }
      ASSERT_TRUE(store_.Place(id, graph_.object(id).size_bytes, page).ok());
      ++on_page;
    }
  }

  /// Deletes each of `ids` with probability `p`, as churn does.
  void Delete(const std::vector<obj::ObjectId>& ids, double p) {
    for (const obj::ObjectId id : ids) {
      if (!graph_.IsLive(id) || !rng_.Bernoulli(p)) continue;
      graph_.Remove(id);
      if (store_.IsPlaced(id)) {
        ASSERT_TRUE(store_.Erase(id).ok());
      }
    }
  }

  /// The auditor's sample, after checking it against the oracle.
  obs::PlacementSample SampleMatchingOracle() const {
    const obs::PlacementSample fast =
        obs::PlacementAuditor(&graph_, &store_).Sample();
    EXPECT_EQ(fast.ToJson(), ReferenceSample(graph_, store_).ToJson());
    return fast;
  }

  obj::ObjectGraph& graph() { return graph_; }
  Rng& rng() { return rng_; }

 private:
  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager store_;
  Rng rng_;
  std::vector<obj::TypeId> types_;
  obj::FamilyId fam_ = obj::kInvalidFamily;
};

/// Gives each of `ids` three configuration children (and one other edge),
/// as OCB's reference generator does: uniformly over `ids`, or within a
/// window of +-`window` positions. Then adds `extra_roots` fresh composite
/// roots over the graph. Returns every object.
std::vector<obj::ObjectId> BuildOcbLike(AuditWorld& w, size_t n,
                                        size_t window, size_t extra_roots) {
  std::vector<obj::ObjectId> ids = w.Create(n);
  const auto pick = [&](size_t i) {
    if (window == 0) return ids[w.rng().NextBelow(n)];
    const size_t offset = w.rng().NextBelow(2 * window + 1);
    return ids[(i + n + offset - window) % n];
  };
  for (size_t i = 0; i < n; ++i) {
    for (int k = 0; k < 3; ++k) {
      const obj::ObjectId child = pick(i);
      if (child != ids[i]) w.Configure(ids[i], child);
    }
    const obj::ObjectId other = pick(i);
    if (other != ids[i]) {
      w.graph().Relate(ids[i], other,
                       w.rng().Bernoulli(0.5) ? obj::RelKind::kVersionHistory
                                              : obj::RelKind::kCorrespondence);
    }
  }
  for (const obj::ObjectId root : w.Create(extra_roots)) {
    for (int k = 0; k < 3; ++k) w.Configure(root, ids[w.rng().NextBelow(n)]);
    ids.push_back(root);
  }
  return ids;
}

TEST(PlacementAuditorOracleTest, OcbLikeCyclicGraphs) {
  struct Case {
    size_t n;
    size_t window;  // 0 = uniform references
  };
  // Closures well under the cap, a giant component over it, and a
  // windowed graph whose closures straddle it.
  for (const Case c : {Case{300, 0}, Case{2500, 0}, Case{6000, 0},
                       Case{6000, 40}, Case{6000, 3}}) {
    for (const uint64_t seed : {1u, 7u}) {
      SCOPED_TRACE(::testing::Message() << "n=" << c.n << " window="
                                        << c.window << " seed=" << seed);
      AuditWorld w(seed);
      const std::vector<obj::ObjectId> ids =
          BuildOcbLike(w, c.n, c.window, /*extra_roots=*/60);
      w.Place(ids, /*per_page=*/4, /*unplaced=*/0.05);
      EXPECT_GE(w.SampleMatchingOracle().configurations, 60u);
    }
  }
}

TEST(PlacementAuditorOracleTest, AcyclicTreesAndSharedDags) {
  for (const uint64_t seed : {2u, 3u}) {
    AuditWorld w(seed);
    const std::vector<obj::ObjectId> ids = w.Create(5000);
    // A forest: each object hangs under a recent one...
    for (size_t i = 1; i < ids.size(); ++i) {
      if (w.rng().Bernoulli(0.8)) {
        const size_t lo = i > 50 ? i - 50 : 0;
        w.Configure(ids[lo + w.rng().NextBelow(i - lo)], ids[i]);
      }
    }
    w.Place(ids, /*per_page=*/5, /*unplaced=*/0.0);
    w.SampleMatchingOracle();
    // ... then many roots share one large acyclic component, so the walks
    // push far more objects than the graph holds.
    for (const obj::ObjectId root : w.Create(400)) {
      w.Configure(root, ids[0]);
      w.Configure(root, ids[1 + w.rng().NextBelow(ids.size() - 1)]);
    }
    w.SampleMatchingOracle();
  }
}

TEST(PlacementAuditorOracleTest, ReachAtTheWalkCap) {
  // Every root reaches exactly `reach` objects: itself plus a cycle of
  // reach-1 objects with chords, one object per page. At 4095 the walk
  // pops everything; from 4096 on it stops with objects still pushed.
  for (const size_t reach : {4095u, 4096u, 4097u}) {
    SCOPED_TRACE(::testing::Message() << "reach=" << reach);
    AuditWorld w(reach);
    const std::vector<obj::ObjectId> cycle = w.Create(reach - 1);
    for (size_t i = 0; i < cycle.size(); ++i) {
      w.Configure(cycle[i], cycle[(i + 1) % cycle.size()]);
      const obj::ObjectId chord = cycle[w.rng().NextBelow(cycle.size())];
      if (chord != cycle[i]) w.Configure(cycle[i], chord);
    }
    std::vector<obj::ObjectId> all = cycle;
    for (const obj::ObjectId root : w.Create(12)) {
      w.Configure(root, cycle[w.rng().NextBelow(cycle.size())]);
      w.Configure(root, cycle[w.rng().NextBelow(cycle.size())]);
      all.push_back(root);
    }
    w.Place(all, /*per_page=*/1, /*unplaced=*/0.0);
    const obs::PlacementSample s = w.SampleMatchingOracle();
    EXPECT_EQ(s.configurations, 12u);
    if (reach < 4096) {
      EXPECT_DOUBLE_EQ(s.mean_pages_per_configuration,
                       static_cast<double>(reach));
    } else {
      EXPECT_LT(s.mean_pages_per_configuration, 4096.0);
    }
  }
}

TEST(PlacementAuditorOracleTest, DeletedAndUnplacedObjects) {
  for (const uint64_t seed : {4u, 5u}) {
    AuditWorld w(seed);
    const std::vector<obj::ObjectId> ids =
        BuildOcbLike(w, 3000, /*window=*/0, /*extra_roots=*/80);
    w.Place(ids, /*per_page=*/3, /*unplaced=*/0.25);
    w.Delete(ids, 0.1);
    w.SampleMatchingOracle();
    // Churn inserts fresh composites over the survivors, then deletes more.
    const std::vector<obj::ObjectId> fresh = w.Create(200);
    for (const obj::ObjectId f : fresh) {
      obj::ObjectId child;
      do {
        child = ids[w.rng().NextBelow(ids.size())];
      } while (!w.graph().IsLive(child));
      w.Configure(f, child);
    }
    w.Place(fresh, /*per_page=*/2, /*unplaced=*/0.3);
    w.Delete(ids, 0.1);
    w.SampleMatchingOracle();
  }
}

TEST(PlacementAuditorOracleTest, ComponentMembersSharePages) {
  AuditWorld w(6);
  // Two cycles, the first feeding the second; each is laid out five
  // members to a page, so a component's pages repeat across members.
  const std::vector<obj::ObjectId> first = w.Create(200);
  const std::vector<obj::ObjectId> second = w.Create(50);
  for (const auto* cycle : {&first, &second}) {
    for (size_t i = 0; i < cycle->size(); ++i) {
      w.Configure((*cycle)[i], (*cycle)[(i + 1) % cycle->size()]);
    }
  }
  w.Configure(first[17], second[3]);
  std::vector<obj::ObjectId> roots = w.Create(40);
  for (const obj::ObjectId root : roots) {
    w.Configure(root, w.rng().Bernoulli(0.5) ? first[w.rng().NextBelow(200)]
                                              : second[w.rng().NextBelow(50)]);
  }
  std::vector<obj::ObjectId> all = first;
  all.insert(all.end(), second.begin(), second.end());
  w.Place(all, /*per_page=*/5, /*unplaced=*/0.0);
  w.Place(roots, /*per_page=*/1, /*unplaced=*/0.5);
  const obs::PlacementSample s = w.SampleMatchingOracle();
  EXPECT_EQ(s.configurations, 40u);
}

// ------------------------------------------------- model-level sampling

core::ModelConfig SmallConfig() {
  core::ModelConfig cfg = core::TestConfig();
  cfg.warmup_transactions = 40;
  cfg.measured_transactions = 240;
  return cfg;
}

TEST(ModelTelemetryTest, EpochBoundariesAlignWithResponseEpochs) {
  core::ModelConfig cfg = SmallConfig();
  cfg.measurement_epochs = 3;
  core::EngineeringDbModel model(cfg);
  const core::RunResult r = model.Run();

  ASSERT_EQ(r.response_epochs.size(), 3u);
  ASSERT_EQ(r.series.samples.size(), 3u);  // interval sampling off
  uint64_t txns = 0;
  for (size_t i = 0; i < r.series.samples.size(); ++i) {
    const obs::TimeSeriesSample& s = r.series.samples[i];
    EXPECT_TRUE(s.epoch_boundary);
    EXPECT_EQ(s.epoch, static_cast<uint32_t>(i));
    if (i > 0) {
      EXPECT_GE(s.sim_time_s, r.series.samples[i - 1].sim_time_s);
    }
    // Each epoch window saw exactly its share of the measured phase.
    ASSERT_TRUE(s.counter_delta("core.txns").has_value());
    EXPECT_EQ(*s.counter_delta("core.txns"), r.response_epochs[i].count());
    txns += *s.counter_delta("core.txns");
    ASSERT_TRUE(s.placement.has_value());
    EXPECT_GT(s.placement->live_objects, 0u);
    EXPECT_GT(s.placement->edges, 0u);
  }
  EXPECT_EQ(txns, static_cast<uint64_t>(cfg.measured_transactions));
}

TEST(ModelTelemetryTest, IntervalSamplingAddsMidEpochSamples) {
  core::ModelConfig cfg = SmallConfig();
  cfg.telemetry_interval_s = 1.0;
  core::EngineeringDbModel model(cfg);
  const core::RunResult r = model.Run();

  ASSERT_GT(r.series.samples.size(), 1u);
  uint64_t interval_samples = 0;
  uint64_t txns = 0;
  for (const obs::TimeSeriesSample& s : r.series.samples) {
    if (!s.epoch_boundary) ++interval_samples;
    txns += s.counter_delta("core.txns").value_or(0);
  }
  EXPECT_GT(interval_samples, 0u);
  EXPECT_TRUE(r.series.samples.back().epoch_boundary);
  // Deltas partition the measured phase exactly.
  EXPECT_EQ(txns, static_cast<uint64_t>(cfg.measured_transactions));
}

TEST(ModelTelemetryTest, PlacementAuditCanBeDisabled) {
  core::ModelConfig cfg = SmallConfig();
  cfg.telemetry_audit_placement = false;
  core::EngineeringDbModel model(cfg);
  const core::RunResult r = model.Run();
  ASSERT_FALSE(r.series.empty());
  for (const obs::TimeSeriesSample& s : r.series.samples) {
    EXPECT_FALSE(s.placement.has_value());
  }
}

// ------------------------------------------------- determinism contract

TEST(ModelTelemetryTest, SeriesBitIdenticalAcrossJobCounts) {
  std::vector<core::ModelConfig> cells;
  for (int i = 0; i < 3; ++i) {
    core::ModelConfig cfg = SmallConfig();
    cfg.measurement_epochs = 2;
    cfg.telemetry_interval_s = 5.0;
    cells.push_back(cfg);
  }

  const exec::ExperimentRunner serial(1);
  const exec::ExperimentRunner threaded(4);
  const auto o1 = serial.Run(cells);
  const auto o4 = threaded.Run(cells);
  ASSERT_EQ(o1.size(), o4.size());
  for (size_t i = 0; i < o1.size(); ++i) {
    ASSERT_FALSE(o1[i].result.series.empty());
    EXPECT_EQ(o1[i].result.series.ToJson(), o4[i].result.series.ToJson());
  }
  EXPECT_EQ(exec::ExperimentRunner::MergeSeries(o1).ToJson(),
            exec::ExperimentRunner::MergeSeries(o4).ToJson());

  // The full JSONL record (wall-clock zeroed) is byte-identical too.
  const core::BenchReport report("telemetry_test");
  const core::BenchRecord r1 = core::BenchReport::FromResult(
      "cell", "p", "w", o1[0].result, /*elapsed_wall_s=*/0);
  const core::BenchRecord r4 = core::BenchReport::FromResult(
      "cell", "p", "w", o4[0].result, /*elapsed_wall_s=*/0);
  EXPECT_EQ(report.ToJsonLine(r1), report.ToJsonLine(r4));
}

// ------------------------------------------- dynamic re-clustering churn

/// A small OCB database under structural churn with DSTC reorganisation on
/// — the workload where mid-run object moves and page births/deaths stress
/// the sampler and auditor the hardest.
core::ModelConfig ChurnDynConfig() {
  core::ModelConfig cfg = core::TestConfig();
  ocb::OcbConfig ocb;
  ocb.enabled = true;
  ocb.classes = 8;
  ocb.hierarchy_depth = 3;
  ocb.instances = 600;
  ocb.refs_per_object = 3;
  ocb.partitions = 6;
  ocb.set_lookup_size = 4;
  ocb.traversal_depth = 2;
  ocb.churn_probability = 0.5;
  ocb.churn_burst_length = 6;
  cfg.ocb = ocb;
  cfg.warmup_transactions = 40;
  cfg.measured_transactions = 360;
  cfg.workload.read_write_ratio = 4.0;
  cfg.clustering.dynamic.policy = dyn::PolicyKind::kDstc;
  cfg.clustering.dynamic.observation_period = 32;
  cfg.clustering.dynamic.trigger_threshold = 2.0;
  return cfg;
}

TEST(ModelTelemetryTest, EpochDeltasPartitionTxnsExactlyAcrossReorgBurst) {
  // Reorganisation bursts interleave extra I/O and object moves with the
  // measured transactions; epoch windows must still partition the measured
  // phase exactly — no transaction double-counted or lost at a boundary
  // that lands mid-burst.
  core::ModelConfig cfg = ChurnDynConfig();
  cfg.measurement_epochs = 4;
  const core::RunResult r = core::RunCell(cfg);

  // The dyn subsystem actually fired (otherwise this test guards nothing).
  ASSERT_GT(r.metrics.counter("dyn.triggers").value_or(0), 0u);
  ASSERT_GT(r.metrics.counter("dyn.objects_moved").value_or(0), 0u);

  ASSERT_EQ(r.series.samples.size(), 4u);
  uint64_t txns = 0;
  uint64_t moved = 0;
  for (size_t i = 0; i < r.series.samples.size(); ++i) {
    const obs::TimeSeriesSample& s = r.series.samples[i];
    EXPECT_TRUE(s.epoch_boundary);
    EXPECT_EQ(s.epoch, static_cast<uint32_t>(i));
    ASSERT_TRUE(s.counter_delta("core.txns").has_value());
    EXPECT_EQ(*s.counter_delta("core.txns"), r.response_epochs[i].count());
    txns += *s.counter_delta("core.txns");
    // Move counts are per-window flows too: they sum to the run total.
    moved += s.counter_delta("dyn.objects_moved").value_or(0);
    ASSERT_TRUE(s.placement.has_value());
    EXPECT_GT(s.placement->live_objects, 0u);
  }
  EXPECT_EQ(txns, static_cast<uint64_t>(cfg.measured_transactions));
  EXPECT_EQ(moved, *r.metrics.counter("dyn.objects_moved"));
}

TEST(ModelTelemetryTest, ChurnWithDynPolicyBitIdenticalAcrossJobCounts) {
  std::vector<core::ModelConfig> cells;
  {
    core::ModelConfig cfg = ChurnDynConfig();  // DSTC
    cfg.measurement_epochs = 2;
    cells.push_back(cfg);
  }
  {
    core::ModelConfig cfg = ChurnDynConfig();
    cfg.measurement_epochs = 2;
    cfg.clustering.dynamic.policy = dyn::PolicyKind::kOpcf;
    cfg.clustering.dynamic.opcf_queue_watermark = 0.0;
    cells.push_back(cfg);
  }
  const auto o1 = exec::ExperimentRunner(1).Run(cells);
  const auto o4 = exec::ExperimentRunner(4).Run(cells);
  ASSERT_EQ(o1.size(), o4.size());
  for (size_t i = 0; i < o1.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(o1[i].result.response_time.Mean(),
              o4[i].result.response_time.Mean());
    EXPECT_EQ(o1[i].result.logical_reads, o4[i].result.logical_reads);
    EXPECT_EQ(o1[i].result.total_physical_ios(),
              o4[i].result.total_physical_ios());
    // Telemetry (including placement audits of the churned store) and the
    // dyn metric block match byte-for-byte.
    EXPECT_EQ(o1[i].result.series.ToJson(), o4[i].result.series.ToJson());
    EXPECT_EQ(o1[i].result.metrics.ToJson(), o4[i].result.metrics.ToJson());
  }
}

TEST(ModelTelemetryTest, BenchRecordEmbedsSeriesAndPercentiles) {
  core::ModelConfig cfg = SmallConfig();
  cfg.measurement_epochs = 2;
  core::EngineeringDbModel model(cfg);
  const core::RunResult result = model.Run();

  const core::BenchReport report("telemetry_test");
  const core::BenchRecord rec =
      core::BenchReport::FromResult("cell", "p", "w", result, 0.0);
  ASSERT_TRUE(rec.response_p50_s.has_value());
  ASSERT_TRUE(rec.response_p99_s.has_value());
  EXPECT_LE(*rec.response_p50_s, *rec.response_p99_s);
  ASSERT_EQ(rec.response_epochs.size(), 2u);
  EXPECT_EQ(rec.response_epochs[0].first + rec.response_epochs[1].first,
            static_cast<uint64_t>(cfg.measured_transactions));

  const std::string line = report.ToJsonLine(rec);
  EXPECT_NE(line.find("\"response_p50_s\":"), std::string::npos);
  EXPECT_NE(line.find("\"response_epochs\":["), std::string::npos);
  EXPECT_NE(line.find("\"series\":["), std::string::npos);
  EXPECT_NE(line.find("\"counter_deltas\":"), std::string::npos);
  EXPECT_NE(line.find("\"placement\":"), std::string::npos);
}

}  // namespace
}  // namespace oodb
