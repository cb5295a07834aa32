#include <algorithm>

#include "gtest/gtest.h"

#include "cluster/affinity.h"
#include "cluster/cluster_manager.h"
#include "cluster/dependency_graph.h"
#include "cluster/page_splitter.h"
#include "cluster/policy.h"
#include "util/random.h"

namespace oodb::cluster {
namespace {

using obj::RelKind;
using store::PageId;
using store::kInvalidPage;

// ---------------------------------------------------------------- affinity

class AffinityTest : public ::testing::Test {
 protected:
  AffinityTest() {
    // Configuration-heavy profile: 8 : 1 : 0.5 : 0.5.
    type_ = lattice_.DefineType("cell", obj::kInvalidType, 32,
                                {8.0, 1.0, 0.5, 0.5});
  }
  obj::TypeLattice lattice_;
  obj::TypeId type_ = 0;
};

TEST_F(AffinityTest, PriorIsNormalisedTypeProfile) {
  AffinityModel model(&lattice_);
  EXPECT_NEAR(model.Weight(type_, RelKind::kConfiguration), 0.8, 1e-12);
  EXPECT_NEAR(model.Weight(type_, RelKind::kVersionHistory), 0.1, 1e-12);
}

TEST_F(AffinityTest, LearningShiftsWeightTowardObservedKind) {
  AffinityModel model(&lattice_, /*learned_share=*/0.5);
  const double before = model.Weight(type_, RelKind::kVersionHistory);
  for (int i = 0; i < 1000; ++i) {
    model.RecordTraversal(type_, RelKind::kVersionHistory);
  }
  const double after = model.Weight(type_, RelKind::kVersionHistory);
  EXPECT_GT(after, before);
  // Fully ramped: 0.5 * prior(0.1) + 0.5 * learned(1.0).
  EXPECT_NEAR(after, 0.55, 1e-9);
  // Unobserved kinds lose weight correspondingly.
  EXPECT_LT(model.Weight(type_, RelKind::kConfiguration), 0.8);
}

TEST_F(AffinityTest, FewObservationsBarelyMovePlacement) {
  AffinityModel model(&lattice_, 0.5);
  model.RecordTraversal(type_, RelKind::kVersionHistory);
  // One observation: ramp is 1/64, so weight moves by < 2%.
  EXPECT_NEAR(model.Weight(type_, RelKind::kConfiguration), 0.8, 0.02);
}

// ----------------------------------------------------------- dep graph

class DepGraphTest : public ::testing::Test {
 protected:
  DepGraphTest() : graph_(&lattice_), storage_(1000) {
    type_ = lattice_.DefineType("cell", obj::kInvalidType, 32,
                                {8.0, 1.0, 0.5, 0.5});
    fam_ = graph_.NewFamily("F");
    page_ = storage_.AllocatePage();
  }

  obj::ObjectId Place(uint32_t size) {
    obj::ObjectId id = graph_.Create(fam_, 1, type_, size);
    OODB_CHECK(storage_.Place(id, size, page_).ok());
    return id;
  }

  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager storage_;
  obj::TypeId type_ = 0;
  obj::FamilyId fam_ = 0;
  PageId page_ = 0;
};

TEST_F(DepGraphTest, NodesMirrorPageContents) {
  Place(100);
  Place(200);
  AffinityModel model(&lattice_);
  auto dep = DependencyGraph::Build(graph_, model, storage_, page_);
  EXPECT_EQ(dep.nodes.size(), 2u);
  EXPECT_EQ(dep.nodes[0].size_bytes + dep.nodes[1].size_bytes, 300u);
  EXPECT_TRUE(dep.arcs.empty());  // unrelated objects: no arcs
}

TEST_F(DepGraphTest, RelatedResidentsGetOneArcPerPair) {
  obj::ObjectId a = Place(100);
  obj::ObjectId b = Place(100);
  graph_.Relate(a, b, RelKind::kConfiguration);
  AffinityModel model(&lattice_);
  auto dep = DependencyGraph::Build(graph_, model, storage_, page_);
  ASSERT_EQ(dep.arcs.size(), 1u);
  // Each endpoint contributes half its edge weight; config weight is 0.8.
  EXPECT_NEAR(dep.arcs[0].weight, 0.8, 1e-9);
}

TEST_F(DepGraphTest, OffPageNeighboursExcluded) {
  obj::ObjectId a = Place(100);
  obj::ObjectId off = graph_.Create(fam_, 2, type_, 100);
  PageId other = storage_.AllocatePage();
  OODB_CHECK(storage_.Place(off, 100, other).ok());
  graph_.Relate(a, off, RelKind::kConfiguration);
  AffinityModel model(&lattice_);
  auto dep = DependencyGraph::Build(graph_, model, storage_, page_);
  EXPECT_TRUE(dep.arcs.empty());
}

TEST_F(DepGraphTest, IncomingObjectJoinsTheGraph) {
  obj::ObjectId a = Place(100);
  obj::ObjectId incoming = graph_.Create(fam_, 3, type_, 150);
  graph_.Relate(a, incoming, RelKind::kConfiguration);
  AffinityModel model(&lattice_);
  auto dep = DependencyGraph::Build(graph_, model, storage_, page_,
                                    DepNode{incoming, 150});
  EXPECT_EQ(dep.nodes.size(), 2u);
  EXPECT_EQ(dep.arcs.size(), 1u);
  EXPECT_EQ(dep.nodes[0].size_bytes + dep.nodes[1].size_bytes, 250u);
}

// ----------------------------------------------------------- splitters

DependencyGraph MakeGraph(std::vector<uint32_t> sizes,
                          std::vector<DepArc> arcs) {
  DependencyGraph g;
  for (size_t i = 0; i < sizes.size(); ++i) {
    g.nodes.push_back(DepNode{static_cast<obj::ObjectId>(i), sizes[i]});
  }
  g.arcs = std::move(arcs);
  return g;
}

TEST(SplitterTest, CutCostCountsCrossingArcs) {
  auto g = MakeGraph({10, 10, 10}, {{0, 1, 5.0}, {1, 2, 3.0}});
  EXPECT_DOUBLE_EQ(CutCost(g, {0, 0, 1}), 3.0);
  EXPECT_DOUBLE_EQ(CutCost(g, {0, 1, 0}), 8.0);
  EXPECT_DOUBLE_EQ(CutCost(g, {0, 0, 0}), 0.0);
}

TEST(SplitterTest, GreedyKeepsHeavyPairTogether) {
  // Two tight pairs joined by a light arc; capacity fits one pair per side
  // but not both pairs together.
  auto g = MakeGraph({40, 40, 40, 40},
                     {{0, 1, 10.0}, {2, 3, 10.0}, {1, 2, 0.1}});
  auto r = GreedyLinearSplit(g, /*capacity=*/150);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.broken_cost, 0.1);
}

TEST(SplitterTest, WholeGraphFittingOnePageStillSplitsNonTrivially) {
  // Total size <= capacity: the splitter must still return two non-empty
  // sides (a split is being forced by the caller).
  auto g = MakeGraph({40, 40, 40}, {{0, 1, 1.0}, {1, 2, 1.0}});
  auto r = GreedyLinearSplit(g, /*capacity=*/400);
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.left.empty());
  EXPECT_FALSE(r.right.empty());
}

TEST(SplitterTest, ExactFindsOptimumOnKnownGraph) {
  // A triangle plus a pendant: best cut isolates the pendant side.
  auto g = MakeGraph({30, 30, 30, 30},
                     {{0, 1, 4.0}, {1, 2, 4.0}, {0, 2, 4.0}, {2, 3, 1.0}});
  auto r = ExhaustiveMinCutSplit(g, /*capacity=*/100);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.broken_cost, 1.0);
  // One side must be exactly the pendant node 3.
  const auto& small = r.left.size() == 1 ? r.left : r.right;
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(small[0], 3u);
}

TEST(SplitterTest, InfeasibleWhenANodeExceedsCapacity) {
  auto g = MakeGraph({300, 10}, {});
  auto r = GreedyLinearSplit(g, 100);
  EXPECT_FALSE(r.feasible);
}

TEST(SplitterTest, BothSidesNonEmpty) {
  auto g = MakeGraph({10, 10, 10, 10}, {{0, 1, 1.0}});
  auto r = ExhaustiveMinCutSplit(g, 1000);  // everything could fit one side
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.left.empty());
  EXPECT_FALSE(r.right.empty());
}

TEST(SplitterTest, CoarsenedPathHandlesManyNodes) {
  // 60 nodes in 30 heavy pairs, weak chain between pairs.
  std::vector<uint32_t> sizes(60, 30);
  std::vector<DepArc> arcs;
  for (uint32_t i = 0; i < 60; i += 2) arcs.push_back({i, i + 1, 10.0});
  for (uint32_t i = 1; i + 1 < 60; i += 2) arcs.push_back({i, i + 1, 0.1});
  auto g = MakeGraph(sizes, arcs);
  auto r = ExhaustiveMinCutSplit(g, /*capacity=*/1000);
  ASSERT_TRUE(r.feasible);
  // No heavy pair should be broken: cost must stay well under one pair.
  EXPECT_LT(r.broken_cost, 10.0);
}

// Property: the exact split never does worse than the greedy split, and
// both respect capacity (the Fig 5.10 relationship).
class SplitComparisonTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitComparisonTest, ExactNeverWorseThanGreedy) {
  Rng rng(1000 + static_cast<uint64_t>(GetParam()));
  const int n = 6 + GetParam() % 11;  // 6..16 nodes
  std::vector<uint32_t> sizes;
  uint64_t total = 0;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(static_cast<uint32_t>(20 + rng.NextBelow(60)));
    total += sizes.back();
  }
  std::vector<DepArc> arcs;
  for (uint32_t a = 0; a < static_cast<uint32_t>(n); ++a) {
    for (uint32_t b = a + 1; b < static_cast<uint32_t>(n); ++b) {
      if (rng.Bernoulli(0.3)) {
        arcs.push_back({a, b, rng.UniformDouble(0.1, 5.0)});
      }
    }
  }
  auto g = MakeGraph(sizes, arcs);
  const uint32_t capacity = static_cast<uint32_t>(total * 3 / 4);

  auto greedy = GreedyLinearSplit(g, capacity);
  auto exact = ExhaustiveMinCutSplit(g, capacity);
  if (greedy.feasible) {
    ASSERT_TRUE(exact.feasible);
    EXPECT_LE(exact.broken_cost, greedy.broken_cost + 1e-9);
  }
  for (const auto& r : {greedy, exact}) {
    if (!r.feasible) continue;
    uint64_t left = 0, right = 0;
    for (uint32_t i : r.left) left += g.nodes[i].size_bytes;
    for (uint32_t i : r.right) right += g.nodes[i].size_bytes;
    EXPECT_LE(left, capacity);
    EXPECT_LE(right, capacity);
    EXPECT_EQ(r.left.size() + r.right.size(), g.nodes.size());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SplitComparisonTest,
                         ::testing::Range(0, 25));

// ------------------------------------------------------- cluster manager

class ClusterManagerTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kPageSize = 400;

  // Types are registered before affinity_ is built: AffinityModel sizes
  // its type-state table eagerly from the lattice at construction.
  ClusterManagerTest()
      : graph_(&lattice_),
        storage_(kPageSize),
        type_(lattice_.DefineType("cell", obj::kInvalidType, 32,
                                  {8.0, 1.0, 0.5, 0.5})),
        fam_(graph_.NewFamily("F")),
        affinity_(&lattice_) {}

  obj::ObjectId NewObject(uint32_t size = 100) {
    return graph_.Create(fam_, 1, type_, size);
  }

  ClusterManager MakeManager(ClusterConfig config,
                             const buffer::BufferPool* pool = nullptr) {
    return ClusterManager(&graph_, &storage_, &affinity_, pool, config);
  }

  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager storage_;
  obj::TypeId type_ = 0;
  obj::FamilyId fam_ = 0;
  AffinityModel affinity_;
};

TEST_F(ClusterManagerTest, NoClusteringAppends) {
  auto mgr = MakeManager({.pool = CandidatePool::kNoClustering});
  obj::ObjectId a = NewObject();
  obj::ObjectId b = NewObject();
  graph_.Relate(a, b, RelKind::kConfiguration);
  auto r1 = mgr.PlaceNew(a);
  auto r2 = mgr.PlaceNew(b);
  EXPECT_TRUE(r1.appended);
  EXPECT_TRUE(r2.appended);
  EXPECT_TRUE(r1.exam_reads.empty());
}

TEST_F(ClusterManagerTest, PlacesNextToRelativeWhenAllowed) {
  auto mgr = MakeManager({.pool = CandidatePool::kWithinDb});
  obj::ObjectId a = NewObject(200);
  auto ra = mgr.PlaceNew(a);
  // Large unrelated objects push the append page past a's page while
  // leaving room on it.
  for (int i = 0; i < 3; ++i) mgr.PlaceNew(NewObject(300));

  obj::ObjectId b = NewObject();
  graph_.Relate(a, b, RelKind::kConfiguration);
  auto rb = mgr.PlaceNew(b);
  EXPECT_EQ(rb.page, ra.page);
  EXPECT_FALSE(rb.appended);
}

TEST_F(ClusterManagerTest, ScoresRankPagesByAffinity) {
  auto mgr = MakeManager({.pool = CandidatePool::kWithinDb});
  // Two relatives on page A, one on page B.
  obj::ObjectId a1 = NewObject();
  obj::ObjectId a2 = NewObject();
  obj::ObjectId b1 = NewObject();
  PageId pa = storage_.AllocatePage();
  PageId pb = storage_.AllocatePage();
  OODB_CHECK(storage_.Place(a1, 100, pa).ok());
  OODB_CHECK(storage_.Place(a2, 100, pa).ok());
  OODB_CHECK(storage_.Place(b1, 100, pb).ok());

  obj::ObjectId x = NewObject();
  graph_.Relate(a1, x, RelKind::kConfiguration);
  graph_.Relate(a2, x, RelKind::kConfiguration);
  graph_.Relate(b1, x, RelKind::kConfiguration);

  auto cands = mgr.ScoreCandidates(x);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].page, pa);
  EXPECT_GT(cands[0].score, cands[1].score);
}

// ScoreCandidates reads edge targets and siblings without a liveness
// probe, relying on Remove detaching every mirror edge. The removed
// objects' records stay on their pages here, so only the detached edges
// keep those pages out of the candidate list.
TEST_F(ClusterManagerTest, RemovedNeighbourLeavesCandidatesAndOtherScores) {
  auto mgr = MakeManager({.pool = CandidatePool::kWithinDb});
  const auto on_new_page = [this](obj::ObjectId id) {
    const PageId p = storage_.AllocatePage();
    OODB_CHECK(storage_.Place(id, 100, p).ok());
    return p;
  };
  // x has direct relatives a and b, and through its composite c the
  // configuration siblings s1 and s2; b and s2 are alone on their pages.
  const obj::ObjectId a = NewObject();
  const obj::ObjectId b = NewObject();
  const obj::ObjectId c = NewObject();
  const obj::ObjectId s1 = NewObject();
  const obj::ObjectId s2 = NewObject();
  const obj::ObjectId x = NewObject();
  const PageId pa = on_new_page(a);
  const PageId pb = on_new_page(b);
  const PageId pc = on_new_page(c);
  const PageId ps1 = on_new_page(s1);
  const PageId ps2 = on_new_page(s2);
  graph_.Relate(a, x, RelKind::kVersionHistory);
  graph_.Relate(x, b, RelKind::kVersionHistory);
  graph_.Relate(c, s1, RelKind::kConfiguration);
  graph_.Relate(c, x, RelKind::kConfiguration);
  graph_.Relate(c, s2, RelKind::kConfiguration);

  const auto score_of = [](const std::vector<ClusterManager::Candidate>& cs,
                           PageId page) {
    for (const ClusterManager::Candidate& cand : cs) {
      if (cand.page == page) return cand.score;
    }
    return -1.0;
  };
  const std::vector<ClusterManager::Candidate> before =
      mgr.ScoreCandidates(x);
  ASSERT_EQ(before.size(), 5u);
  for (const PageId p : {pa, pb, pc, ps1, ps2}) {
    EXPECT_GT(score_of(before, p), 0.0) << p;
  }

  graph_.Remove(b);
  graph_.Remove(s2);
  const std::vector<ClusterManager::Candidate> after = mgr.ScoreCandidates(x);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(score_of(after, pb), -1.0);
  EXPECT_EQ(score_of(after, ps2), -1.0);
  for (const PageId p : {pa, pc, ps1}) {
    EXPECT_EQ(score_of(after, p), score_of(before, p)) << p;
  }
}

TEST_F(ClusterManagerTest, WithinBufferNeedsResidency) {
  buffer::BufferPool pool(4, buffer::ReplacementPolicy::kLru);
  auto mgr = MakeManager({.pool = CandidatePool::kWithinBuffer}, &pool);

  obj::ObjectId a = NewObject();
  auto ra = mgr.PlaceNew(a);  // appended (no relatives)
  obj::ObjectId b = NewObject();
  graph_.Relate(a, b, RelKind::kConfiguration);

  // Page not resident: placement cannot use it.
  auto rb = mgr.PlaceNew(b);
  EXPECT_TRUE(rb.appended);

  // Make it resident and try a third relative.
  pool.Fix(ra.page);
  obj::ObjectId c = NewObject();
  graph_.Relate(a, c, RelKind::kConfiguration);
  auto rc = mgr.PlaceNew(c);
  EXPECT_EQ(rc.page, ra.page);
  EXPECT_TRUE(rc.exam_reads.empty());  // resident exam is free
}

TEST_F(ClusterManagerTest, IoLimitBoundsExamReads) {
  buffer::BufferPool pool(4, buffer::ReplacementPolicy::kLru);
  auto mgr = MakeManager(
      {.pool = CandidatePool::kIoLimit, .io_limit = 2}, &pool);

  // Relatives on three distinct full pages -> three candidates, none
  // resident, each full so examination moves on.
  obj::ObjectId x = NewObject(100);
  std::vector<PageId> pages;
  for (int i = 0; i < 3; ++i) {
    obj::ObjectId rel = NewObject(100);
    PageId p = storage_.AllocatePage();
    OODB_CHECK(storage_.Place(rel, 100, p).ok());
    // Fill the page so x cannot land there.
    obj::ObjectId filler = NewObject(300);
    OODB_CHECK(storage_.Place(filler, 300, p).ok());
    graph_.Relate(rel, x, RelKind::kConfiguration);
    pages.push_back(p);
  }
  auto r = mgr.PlaceNew(x);
  // All examined candidates were full and no split policy applies: the
  // object seeds a fresh page (not any of the full candidates).
  EXPECT_FALSE(r.appended);
  for (PageId p : pages) EXPECT_NE(r.page, p);
  EXPECT_EQ(r.exam_reads.size(), 2u);  // examined only io_limit pages
}

TEST_F(ClusterManagerTest, WithinDbExaminesEverything) {
  auto mgr = MakeManager({.pool = CandidatePool::kWithinDb});
  obj::ObjectId x = NewObject(100);
  for (int i = 0; i < 3; ++i) {
    obj::ObjectId rel = NewObject(100);
    PageId p = storage_.AllocatePage();
    OODB_CHECK(storage_.Place(rel, 100, p).ok());
    obj::ObjectId filler = NewObject(300);
    OODB_CHECK(storage_.Place(filler, 300, p).ok());
    graph_.Relate(rel, x, RelKind::kConfiguration);
  }
  auto r = mgr.PlaceNew(x);
  EXPECT_FALSE(r.appended);  // fresh-page fallback after examining all
  EXPECT_EQ(r.exam_reads.size(), 3u);
}

TEST_F(ClusterManagerTest, ChosenPageNotCountedAsExamRead) {
  auto mgr = MakeManager({.pool = CandidatePool::kWithinDb});
  obj::ObjectId a = NewObject();
  auto ra = mgr.PlaceNew(a);
  obj::ObjectId b = NewObject();
  graph_.Relate(a, b, RelKind::kConfiguration);
  auto rb = mgr.PlaceNew(b);
  EXPECT_EQ(rb.page, ra.page);
  // The chosen page's demand read is charged by the caller's Fix.
  EXPECT_TRUE(rb.exam_reads.empty());
}

TEST_F(ClusterManagerTest, SplitRescuesFullPreferredPage) {
  auto mgr = MakeManager({.pool = CandidatePool::kWithinDb,
                          .split = SplitPolicy::kLinearGreedy});
  // Page with two unrelated clumps, nearly full.
  PageId p = storage_.AllocatePage();
  obj::ObjectId a1 = NewObject(150);
  obj::ObjectId a2 = NewObject(100);
  obj::ObjectId b1 = NewObject(150);
  OODB_CHECK(storage_.Place(a1, 150, p).ok());
  OODB_CHECK(storage_.Place(a2, 100, p).ok());
  OODB_CHECK(storage_.Place(b1, 150, p).ok());
  graph_.Relate(a1, a2, RelKind::kConfiguration);

  // Incoming strongly tied to the a-clump; doesn't fit (free = 0).
  obj::ObjectId x = NewObject(120);
  graph_.Relate(a1, x, RelKind::kConfiguration);
  graph_.Relate(a2, x, RelKind::kConfiguration);

  auto r = mgr.PlaceNew(x);
  EXPECT_TRUE(r.split);
  EXPECT_FALSE(r.appended);
  EXPECT_NE(r.split_new_page, kInvalidPage);
  // x must end up co-located with a1 and a2.
  EXPECT_EQ(storage_.PageOf(x), storage_.PageOf(a1));
  EXPECT_EQ(storage_.PageOf(a1), storage_.PageOf(a2));
  EXPECT_EQ(mgr.stats().splits, 1u);
}

TEST_F(ClusterManagerTest, NoSplitPolicyFallsToNextCandidate) {
  auto mgr = MakeManager({.pool = CandidatePool::kWithinDb,
                          .split = SplitPolicy::kNoSplit});
  // Best page full; second-best has room.
  PageId full = storage_.AllocatePage();
  obj::ObjectId f1 = NewObject(200);
  obj::ObjectId f2 = NewObject(200);
  OODB_CHECK(storage_.Place(f1, 200, full).ok());
  OODB_CHECK(storage_.Place(f2, 200, full).ok());
  PageId roomy = storage_.AllocatePage();
  obj::ObjectId r1 = NewObject(100);
  OODB_CHECK(storage_.Place(r1, 100, roomy).ok());

  obj::ObjectId x = NewObject(100);
  graph_.Relate(f1, x, RelKind::kConfiguration);
  graph_.Relate(f2, x, RelKind::kConfiguration);
  graph_.Relate(r1, x, RelKind::kConfiguration);

  auto r = mgr.PlaceNew(x);
  EXPECT_EQ(r.page, roomy);
  EXPECT_FALSE(r.split);
}

TEST_F(ClusterManagerTest, ReclusterMovesObjectAfterStructureChange) {
  auto mgr = MakeManager({.pool = CandidatePool::kWithinDb,
                          .recluster_gain_threshold = 0.1});
  // x placed alone; then gains two relatives on another page.
  obj::ObjectId x = NewObject(50);
  auto rx = mgr.PlaceNew(x);
  PageId p = storage_.AllocatePage();
  obj::ObjectId a = NewObject(100);
  obj::ObjectId b = NewObject(100);
  OODB_CHECK(storage_.Place(a, 100, p).ok());
  OODB_CHECK(storage_.Place(b, 100, p).ok());
  graph_.Relate(a, x, RelKind::kConfiguration);
  graph_.Relate(b, x, RelKind::kConfiguration);

  auto r = mgr.Recluster(x);
  EXPECT_TRUE(r.relocated);
  EXPECT_EQ(r.page, p);
  EXPECT_EQ(r.old_page, rx.page);
  EXPECT_EQ(storage_.PageOf(x), p);
  EXPECT_EQ(mgr.stats().relocations, 1u);
}

TEST_F(ClusterManagerTest, ReclusterStaysPutBelowGainThreshold) {
  auto mgr = MakeManager({.pool = CandidatePool::kWithinDb,
                          .recluster_gain_threshold = 100.0});
  obj::ObjectId x = NewObject(50);
  mgr.PlaceNew(x);
  PageId p = storage_.AllocatePage();
  obj::ObjectId a = NewObject(100);
  OODB_CHECK(storage_.Place(a, 100, p).ok());
  graph_.Relate(a, x, RelKind::kConfiguration);

  auto r = mgr.Recluster(x);
  EXPECT_FALSE(r.relocated);
  EXPECT_EQ(storage_.PageOf(x), r.old_page);
}

TEST_F(ClusterManagerTest, ReclusterIsNoopUnderNoClustering) {
  auto mgr = MakeManager({.pool = CandidatePool::kNoClustering});
  obj::ObjectId x = NewObject(50);
  mgr.PlaceNew(x);
  PageId before = storage_.PageOf(x);
  auto r = mgr.Recluster(x);
  EXPECT_FALSE(r.relocated);
  EXPECT_EQ(storage_.PageOf(x), before);
}

TEST_F(ClusterManagerTest, UserHintSteersPlacement) {
  // x has a configuration relative on page A and a version relative on
  // page B. The type profile prefers configuration 8:1, but a version
  // hint with a big boost must override it.
  ClusterConfig config{.pool = CandidatePool::kWithinDb,
                       .use_hints = true,
                       .hint_kind = RelKind::kVersionHistory,
                       .hint_boost = 20.0};
  auto mgr = MakeManager(config);
  PageId pa = storage_.AllocatePage();
  PageId pb = storage_.AllocatePage();
  obj::ObjectId conf_rel = NewObject(100);
  obj::ObjectId ver_rel = NewObject(100);
  OODB_CHECK(storage_.Place(conf_rel, 100, pa).ok());
  OODB_CHECK(storage_.Place(ver_rel, 100, pb).ok());

  obj::ObjectId x = NewObject(100);
  graph_.Relate(conf_rel, x, RelKind::kConfiguration);
  graph_.Relate(ver_rel, x, RelKind::kVersionHistory);

  auto r = mgr.PlaceNew(x);
  EXPECT_EQ(r.page, pb);

  // Without hints the configuration page wins.
  obj::ObjectId y = NewObject(100);
  graph_.Relate(conf_rel, y, RelKind::kConfiguration);
  graph_.Relate(ver_rel, y, RelKind::kVersionHistory);
  auto mgr2 = MakeManager({.pool = CandidatePool::kWithinDb});
  auto ry = mgr2.PlaceNew(y);
  EXPECT_EQ(ry.page, pa);
}

TEST_F(ClusterManagerTest, ClusteringImprovesCoLocationOfComposites) {
  // End-to-end property mirroring how a multi-user CAD database accretes:
  // several concurrent checkin streams, each creating one design module
  // (composite followed by its components), interleaved one object at a
  // time. Arrival-order placement scatters each module across the shared
  // append pages; the clustering policy must keep modules together.
  constexpr int kStreams = 8;
  constexpr int kChildrenPerModule = 6;

  auto run = [&](CandidatePool pool, SplitPolicy split) {
    obj::ObjectGraph graph(&lattice_);
    store::StorageManager storage(kPageSize);
    AffinityModel affinity(&lattice_);
    ClusterManager mgr(&graph, &storage, &affinity, nullptr,
                       ClusterConfig{.pool = pool, .split = split});
    obj::FamilyId fam = graph.NewFamily("G");
    std::vector<obj::ObjectId> composites(kStreams, obj::kInvalidObject);
    std::vector<std::vector<obj::ObjectId>> children(kStreams);
    // Each stream creates: composite, then its components, one object per
    // round-robin turn.
    for (int step = 0; step < 1 + kChildrenPerModule; ++step) {
      for (int s = 0; s < kStreams; ++s) {
        obj::ObjectId o = graph.Create(fam, 1, type_, 50);
        if (step == 0) {
          composites[static_cast<size_t>(s)] = o;
        } else {
          graph.Relate(composites[static_cast<size_t>(s)], o,
                       RelKind::kConfiguration);
          children[static_cast<size_t>(s)].push_back(o);
        }
        mgr.PlaceNew(o);
      }
    }
    // Mean distinct pages touched to read composite + components.
    double total_pages = 0;
    for (int s = 0; s < kStreams; ++s) {
      std::vector<PageId> pages{storage.PageOf(composites[s])};
      for (obj::ObjectId k : children[s]) pages.push_back(storage.PageOf(k));
      std::sort(pages.begin(), pages.end());
      pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
      total_pages += static_cast<double>(pages.size());
    }
    return total_pages / kStreams;
  };

  const double unclustered =
      run(CandidatePool::kNoClustering, SplitPolicy::kNoSplit);
  const double clustered =
      run(CandidatePool::kWithinDb, SplitPolicy::kLinearGreedy);
  // 7 objects x 50 B fit one 400 B page: clustering (with splits freeing
  // room next to relatives) should land each module on ~1-2 pages while
  // arrival order scatters it across ~7.
  EXPECT_LE(clustered, 2.5);
  EXPECT_LT(clustered, unclustered * 0.6);
}

}  // namespace
}  // namespace oodb::cluster
