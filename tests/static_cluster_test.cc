#include <array>
#include <memory>
#include <queue>
#include <set>

#include "gtest/gtest.h"
#include "cluster/static_clusterer.h"
#include "workload/db_builder.h"

namespace oodb::cluster {
namespace {

class StaticClustererTest : public ::testing::Test {
 protected:
  // Types are registered before affinity_ is built: AffinityModel sizes
  // its type-state table eagerly from the lattice at construction.
  StaticClustererTest()
      : graph_(&lattice_),
        storage_(4096),
        types_(workload::RegisterCadTypes(lattice_)),
        affinity_(&lattice_) {}

  // Builds an arrival-order (scattered) database.
  workload::DesignDatabase BuildScattered(uint64_t bytes = 256 << 10) {
    ClusterConfig config;  // No_Clustering
    mgr_ = std::make_unique<ClusterManager>(&graph_, &storage_, &affinity_,
                                            nullptr, config);
    workload::DatabaseSpec spec;
    spec.target_bytes = bytes;
    workload::DbBuilder builder(&graph_, mgr_.get(), nullptr, spec);
    return builder.Build(types_);
  }

  double MeanModuleScatter(const workload::DesignDatabase& db) {
    double total = 0;
    for (const auto& m : db.modules) {
      std::set<store::PageId> pages;
      uint64_t bytes = 0;
      for (auto id : m.objects) {
        if (!storage_.IsPlaced(id)) continue;
        pages.insert(storage_.PageOf(id));
        bytes += storage_.SizeOf(id);
      }
      total += static_cast<double>(pages.size()) /
               std::max(1.0, static_cast<double>(bytes) / 4096.0);
    }
    return total / static_cast<double>(db.modules.size());
  }

  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager storage_;
  workload::CadTypes types_{};
  AffinityModel affinity_;
  std::unique_ptr<ClusterManager> mgr_;
};

TEST_F(StaticClustererTest, OrderVisitsEveryPlacedObjectOnce) {
  auto db = BuildScattered();
  StaticClusterer reorg(&graph_, &storage_, &affinity_);
  const auto order = reorg.ComputeOrder();
  EXPECT_EQ(order.size(), graph_.live_count());
  std::set<obj::ObjectId> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), order.size());
}

TEST_F(StaticClustererTest, OrderKeepsRelativesAdjacent) {
  auto db = BuildScattered();
  StaticClusterer reorg(&graph_, &storage_, &affinity_);
  const auto order = reorg.ComputeOrder();
  // Position index per object.
  std::vector<size_t> pos(graph_.size(), 0);
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  // Components should sit close to their composite in the order: measure
  // the mean |pos(parent) - pos(child)| against a random baseline (~n/3).
  double dist_sum = 0;
  size_t count = 0;
  for (const auto& m : db.modules) {
    for (obj::ObjectId id : m.composites) {
      if (!graph_.IsLive(id)) continue;
      for (obj::ObjectId c : graph_.Components(id)) {
        if (!graph_.IsLive(c)) continue;
        dist_sum += std::abs(static_cast<double>(pos[id]) -
                             static_cast<double>(pos[c]));
        ++count;
      }
    }
  }
  const double mean_dist = dist_sum / static_cast<double>(count);
  EXPECT_LT(mean_dist, static_cast<double>(order.size()) / 20.0);
}

TEST_F(StaticClustererTest, ReorganizeDensifiesModules) {
  auto db = BuildScattered();
  const double before = MeanModuleScatter(db);
  StaticClusterer reorg(&graph_, &storage_, &affinity_);
  const auto report = reorg.Reorganize();
  const double after = MeanModuleScatter(db);
  EXPECT_LT(after, before * 0.5);
  EXPECT_LE(after, 2.0);
  EXPECT_EQ(report.objects_total, graph_.live_count());
  EXPECT_GT(report.objects_moved, 0u);
}

TEST_F(StaticClustererTest, ReorganizePreservesEveryObject) {
  auto db = BuildScattered();
  StaticClusterer reorg(&graph_, &storage_, &affinity_);
  reorg.Reorganize();
  for (const auto& m : db.modules) {
    for (obj::ObjectId id : m.objects) {
      if (!graph_.IsLive(id)) continue;
      EXPECT_TRUE(storage_.IsPlaced(id));
    }
  }
  // Byte accounting unchanged by moves.
  uint64_t used = 0;
  for (store::PageId p = 0; p < storage_.page_count(); ++p) {
    used += storage_.page(p).used_bytes();
  }
  EXPECT_EQ(used, storage_.used_bytes());
}

TEST_F(StaticClustererTest, RespectsFillFraction) {
  BuildScattered();
  StaticClusterer reorg(&graph_, &storage_, &affinity_,
                        /*fill_fraction=*/0.5);
  reorg.Reorganize();
  // No destination page may exceed ~50% + one object of fill.
  for (store::PageId p = 0; p < storage_.page_count(); ++p) {
    const auto& page = storage_.page(p);
    if (page.object_count() == 0) continue;
    EXPECT_LE(page.used_bytes(), 2048u + 1024u) << "page " << p;
  }
}

TEST_F(StaticClustererTest, ReportCountsArePlausible) {
  BuildScattered();
  StaticClusterer reorg(&graph_, &storage_, &affinity_);
  const auto report = reorg.Reorganize();
  EXPECT_GT(report.pages_before, 0u);
  EXPECT_GT(report.pages_after, 0u);
  EXPECT_GE(report.page_writes, report.pages_after);
  EXPECT_LE(report.objects_moved, report.objects_total);
}

TEST_F(StaticClustererTest, IdempotentSecondRunMovesLittle) {
  auto db = BuildScattered();
  StaticClusterer reorg(&graph_, &storage_, &affinity_);
  reorg.Reorganize();
  const double first_scatter = MeanModuleScatter(db);
  const auto second = reorg.Reorganize();
  // Already clustered: most objects land on pages with the same
  // neighbours. The pass still repacks (fresh pages), so moves happen,
  // but the layout quality must not regress.
  EXPECT_EQ(second.objects_total, graph_.live_count());
  EXPECT_LE(MeanModuleScatter(db), first_scatter);
}

// ------------------------------------------------------------- oracle

// The original implementation, kept verbatim as the reference: one
// EdgeWeight call per frontier push, a std::priority_queue ordered by
// (weight, target), and per-object Relocate onto pages allocated as the
// packer goes. EdgeWeight's arithmetic is copied too, so a change to the
// library's weight cannot move both sides at once.
namespace reference {

double EdgeWeight(const AffinityModel& affinity, const obj::ObjectGraph& graph,
                  obj::ObjectId from, const obj::Edge& edge) {
  double w = affinity.Weight(graph.object(from).type, edge.kind);
  if (edge.kind == obj::RelKind::kInstanceInheritance) w *= 1.5;
  return w;
}

std::vector<obj::ObjectId> ComputeOrder(const obj::ObjectGraph& graph,
                                        const store::StorageManager& storage,
                                        const AffinityModel& affinity) {
  const size_t n = graph.size();
  std::vector<bool> visited(n, false);
  std::vector<obj::ObjectId> order;
  order.reserve(graph.live_count());

  struct FrontierEdge {
    double weight;
    obj::ObjectId target;
    bool operator<(const FrontierEdge& o) const {
      if (weight != o.weight) return weight < o.weight;
      return target > o.target;  // deterministic: lower id first on ties
    }
  };

  for (obj::ObjectId seed = 0; seed < n; ++seed) {
    if (visited[seed] || !graph.IsLive(seed) || !storage.IsPlaced(seed)) {
      continue;
    }
    std::priority_queue<FrontierEdge> frontier;
    frontier.push(FrontierEdge{0.0, seed});
    while (!frontier.empty()) {
      const obj::ObjectId o = frontier.top().target;
      frontier.pop();
      if (visited[o]) continue;
      visited[o] = true;
      order.push_back(o);
      for (const obj::Edge e : graph.edges(o)) {
        if (e.target >= n || visited[e.target]) continue;
        if (!graph.IsLive(e.target) || !storage.IsPlaced(e.target)) {
          continue;
        }
        frontier.push(
            FrontierEdge{EdgeWeight(affinity, graph, o, e), e.target});
      }
    }
  }
  return order;
}

ReorganizationReport Reorganize(const obj::ObjectGraph& graph,
                                store::StorageManager& storage,
                                const AffinityModel& affinity,
                                double fill_fraction) {
  ReorganizationReport report;
  report.pages_before = storage.page_count();

  const std::vector<obj::ObjectId> order =
      ComputeOrder(graph, storage, affinity);
  report.objects_total = order.size();

  const auto fill_limit = static_cast<uint32_t>(
      fill_fraction * static_cast<double>(storage.page_size_bytes()));

  store::PageId current = store::kInvalidPage;
  uint32_t current_used = 0;
  std::vector<char> source_touched(report.pages_before, 0);
  for (obj::ObjectId o : order) {
    const uint32_t size = storage.SizeOf(o);
    if (current == store::kInvalidPage || current_used + size > fill_limit ||
        !storage.page(current).Fits(size)) {
      current = storage.AllocatePage();
      current_used = 0;
      ++report.page_writes;  // destination page flush
    }
    const store::PageId from = storage.PageOf(o);
    if (from != current) {
      OODB_CHECK(storage.Relocate(o, current).ok());
      ++report.objects_moved;
      if (from < source_touched.size() && !source_touched[from]) {
        source_touched[from] = 1;
        ++report.page_writes;  // each vacated source rewritten once
      }
    }
    current_used += size;
  }

  size_t in_use = 0;
  for (store::PageId p = 0; p < storage.page_count(); ++p) {
    if (storage.page(p).object_count() > 0) ++in_use;
  }
  report.pages_after = in_use;
  return report;
}

}  // namespace reference

struct OracleCase {
  CandidatePool pool = CandidatePool::kNoClustering;
  /// Replace the priors with recorded traversals (learned share 1), tuned
  /// so weights tie across types and across kinds, and so the x1.5
  /// instance-inheritance factor decides which relative comes first.
  bool learned = false;
  /// Delete some objects while they stay placed, unplace some live ones,
  /// and add live objects that were never placed.
  bool holes = false;
  double fill_fraction = 0.9;
  uint64_t seed = 42;
};

/// One database, built deterministically from an OracleCase, so the
/// reference and the library each reorganise an identical copy.
class OracleWorld {
 public:
  explicit OracleWorld(const OracleCase& c)
      : types_(workload::RegisterCadTypes(lattice_)),
        graph_(&lattice_),
        storage_(4096),
        affinity_(&lattice_, c.learned ? 1.0 : 0.5) {
    if (c.learned) {
      // Per 10 traversals: configuration 4, instance inheritance 3
      // (x1.5 = 4.5, so heirs beat components; without the factor they
      // lose), version history and correspondence 1 each (a tie across
      // kinds). The two CAD cell types share one mix (ties across types).
      const std::array<int, obj::kNumRelKinds> mix = {4, 1, 1, 3};
      for (obj::TypeId type : {types_.composite, types_.leaf}) {
        for (int round = 0; round < 10; ++round) {
          for (int k = 0; k < obj::kNumRelKinds; ++k) {
            for (int i = 0; i < mix[static_cast<size_t>(k)]; ++i) {
              affinity_.RecordTraversal(type, static_cast<obj::RelKind>(k));
            }
          }
        }
      }
    }
    ClusterConfig config;
    config.pool = c.pool;
    mgr_ = std::make_unique<ClusterManager>(&graph_, &storage_, &affinity_,
                                            nullptr, config);
    workload::DatabaseSpec spec;
    spec.target_bytes = 192 << 10;
    spec.seed = c.seed;
    workload::DbBuilder(&graph_, mgr_.get(), nullptr, spec).Build(types_);
    if (c.holes) {
      const auto n = static_cast<obj::ObjectId>(graph_.size());
      for (obj::ObjectId id = 5; id < n; id += 6) graph_.Remove(id);
      for (obj::ObjectId id = 3; id < n; id += 23) {
        if (graph_.IsLive(id)) OODB_CHECK(storage_.Erase(id).ok());
      }
      const obj::FamilyId family = graph_.NewFamily("unplaced");
      for (int i = 0; i < 3; ++i) {
        const obj::ObjectId id = graph_.Create(family, 1, types_.leaf, 64);
        graph_.Relate(0, id, obj::RelKind::kConfiguration);
      }
    }
  }

  obj::ObjectGraph& graph() { return graph_; }
  store::StorageManager& storage() { return storage_; }
  const AffinityModel& affinity() const { return affinity_; }

 private:
  obj::TypeLattice lattice_;
  workload::CadTypes types_;
  obj::ObjectGraph graph_;
  store::StorageManager storage_;
  AffinityModel affinity_;
  std::unique_ptr<ClusterManager> mgr_;
};

void ExpectSameReport(const ReorganizationReport& got,
                      const ReorganizationReport& want) {
  EXPECT_EQ(got.objects_moved, want.objects_moved);
  EXPECT_EQ(got.objects_total, want.objects_total);
  EXPECT_EQ(got.pages_after, want.pages_after);
  EXPECT_EQ(got.pages_before, want.pages_before);
  EXPECT_EQ(got.page_writes, want.page_writes);
}

/// Every page's slot list (object and size, in order), byte accounting and
/// the object -> page directory.
void ExpectSameStorage(const store::StorageManager& got,
                       const store::StorageManager& want, size_t objects) {
  ASSERT_EQ(got.page_count(), want.page_count());
  EXPECT_EQ(got.used_bytes(), want.used_bytes());
  for (store::PageId p = 0; p < want.page_count(); ++p) {
    const auto& a = got.page(p).slots();
    const auto& b = want.page(p).slots();
    ASSERT_EQ(a.size(), b.size()) << "page " << p;
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(a[i].object, b[i].object) << "page " << p << " slot " << i;
      EXPECT_EQ(a[i].size_bytes, b[i].size_bytes)
          << "page " << p << " slot " << i;
    }
    EXPECT_EQ(got.page(p).used_bytes(), want.page(p).used_bytes());
  }
  for (obj::ObjectId id = 0; id < objects; ++id) {
    EXPECT_EQ(got.PageOf(id), want.PageOf(id)) << "object " << id;
  }
}

/// Builds two identical databases, reorganises one with the reference and
/// one with StaticClusterer, twice, and compares everything.
void ExpectMatchesReference(const OracleCase& c) {
  OracleWorld want(c);
  OracleWorld got(c);
  ASSERT_EQ(got.graph().size(), want.graph().size());
  StaticClusterer reorg(&got.graph(), &got.storage(), &got.affinity(),
                        c.fill_fraction);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(::testing::Message() << "pass " << pass);
    const auto want_order = reference::ComputeOrder(
        want.graph(), want.storage(), want.affinity());
    ASSERT_EQ(reorg.ComputeOrder(), want_order);
    ExpectSameReport(reorg.Reorganize(),
                     reference::Reorganize(want.graph(), want.storage(),
                                           want.affinity(), c.fill_fraction));
    ExpectSameStorage(got.storage(), want.storage(), want.graph().size());
  }
}

TEST(StaticClustererOracleTest, MatchesReferenceUnderNoClustering) {
  for (uint64_t seed : {42u, 7u}) {
    for (double fill : {0.5, 0.9, 1.0}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " fill " << fill);
      ExpectMatchesReference({.fill_fraction = fill, .seed = seed});
    }
  }
}

TEST(StaticClustererOracleTest, MatchesReferenceUnderWithinDbClustering) {
  for (double fill : {0.5, 1.0}) {
    SCOPED_TRACE(::testing::Message() << "fill " << fill);
    ExpectMatchesReference(
        {.pool = CandidatePool::kWithinDb, .fill_fraction = fill});
  }
}

TEST(StaticClustererOracleTest, MatchesReferenceWithLearnedAffinities) {
  for (CandidatePool pool :
       {CandidatePool::kNoClustering, CandidatePool::kWithinDb}) {
    SCOPED_TRACE(CandidatePoolName(pool));
    ExpectMatchesReference({.pool = pool, .learned = true});
  }
}

TEST(StaticClustererOracleTest, MatchesReferenceWithDeletedAndUnplaced) {
  for (bool learned : {false, true}) {
    for (double fill : {0.5, 1.0}) {
      SCOPED_TRACE(::testing::Message()
                   << "learned " << learned << " fill " << fill);
      ExpectMatchesReference(
          {.learned = learned, .holes = true, .fill_fraction = fill});
    }
  }
}

}  // namespace
}  // namespace oodb::cluster
