#include <string>

#include "gtest/gtest.h"

#include "buffer/buffer_pool.h"
#include "buffer/prefetcher.h"

namespace oodb::buffer {
namespace {

using store::PageId;
using store::kInvalidPage;

// ---------------------------------------------------------------- basics

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(4, ReplacementPolicy::kLru);
  auto r1 = pool.Fix(10);
  EXPECT_FALSE(r1.hit);
  EXPECT_EQ(r1.evicted_page, kInvalidPage);
  auto r2 = pool.Fix(10);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_DOUBLE_EQ(pool.HitRatio(), 0.5);
}

TEST(BufferPoolTest, NoEvictionUntilFull) {
  BufferPool pool(3, ReplacementPolicy::kLru);
  for (PageId p = 0; p < 3; ++p) {
    EXPECT_EQ(pool.Fix(p).evicted_page, kInvalidPage);
  }
  EXPECT_EQ(pool.resident_count(), 3u);
  auto r = pool.Fix(99);
  EXPECT_NE(r.evicted_page, kInvalidPage);
  EXPECT_EQ(pool.resident_count(), 3u);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  BufferPool pool(3, ReplacementPolicy::kLru);
  pool.Fix(1);
  pool.Fix(2);
  pool.Fix(3);
  pool.Fix(1);           // 2 is now least recent
  auto r = pool.Fix(4);  // evicts 2
  EXPECT_EQ(r.evicted_page, 2u);
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(3));
  EXPECT_FALSE(pool.Contains(2));
}

TEST(BufferPoolTest, DirtyEvictionReported) {
  BufferPool pool(2, ReplacementPolicy::kLru);
  pool.Fix(1);
  pool.MarkDirty(1);
  pool.Fix(2);
  auto r = pool.Fix(3);  // evicts 1, which is dirty
  EXPECT_EQ(r.evicted_page, 1u);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(pool.dirty_evictions(), 1u);
}

TEST(BufferPoolTest, PinPreventsEviction) {
  BufferPool pool(2, ReplacementPolicy::kLru);
  pool.Fix(1);
  pool.Pin(1);
  pool.Fix(2);
  auto r = pool.Fix(3);  // must evict 2, not pinned 1
  EXPECT_EQ(r.evicted_page, 2u);
  EXPECT_TRUE(pool.Contains(1));
  pool.Unpin(1);
  auto r2 = pool.Fix(4);  // 1 is LRU and now evictable
  EXPECT_EQ(r2.evicted_page, 1u);
}

TEST(BufferPoolTest, ResidentPagesListsEverything) {
  BufferPool pool(4, ReplacementPolicy::kLru);
  pool.Fix(5);
  pool.Fix(9);
  auto pages = pool.ResidentPages();
  std::sort(pages.begin(), pages.end());
  EXPECT_EQ(pages, (std::vector<PageId>{5, 9}));
}

// ---------------------------------------------------------------- random

TEST(BufferPoolTest, RandomPolicyEvictsSomethingUnpinned) {
  BufferPool pool(4, ReplacementPolicy::kRandom, /*seed=*/7);
  for (PageId p = 0; p < 4; ++p) pool.Fix(p);
  pool.Pin(0);
  pool.Pin(1);
  for (PageId p = 10; p < 30; ++p) {
    auto r = pool.Fix(p);
    EXPECT_NE(r.evicted_page, 0u);
    EXPECT_NE(r.evicted_page, 1u);
    // Keep the pool saturated with the pinned pages intact.
  }
  EXPECT_TRUE(pool.Contains(0));
  EXPECT_TRUE(pool.Contains(1));
}

TEST(BufferPoolTest, RandomPolicyIsSeedDeterministic) {
  BufferPool a(8, ReplacementPolicy::kRandom, 42);
  BufferPool b(8, ReplacementPolicy::kRandom, 42);
  for (PageId p = 0; p < 100; ++p) {
    EXPECT_EQ(a.Fix(p).evicted_page, b.Fix(p).evicted_page);
  }
}

// ---------------------------------------------------------------- context

TEST(BufferPoolTest, ContextPolicyActsLikeRecencyWithoutBoosts) {
  BufferPool pool(3, ReplacementPolicy::kContextSensitive);
  pool.Fix(1);
  pool.Fix(2);
  pool.Fix(3);
  pool.Fix(1);           // 2 has the lowest access stamp
  auto r = pool.Fix(4);
  EXPECT_EQ(r.evicted_page, 2u);
}

TEST(BufferPoolTest, BoostProtectsRelatedPage) {
  BufferPool pool(3, ReplacementPolicy::kContextSensitive);
  pool.Fix(1);
  pool.Fix(2);
  pool.Fix(3);
  // Page 1 is oldest, but a structurally related object was just touched:
  pool.Boost(1, /*weight=*/10.0);
  auto r = pool.Fix(4);  // should evict 2 (oldest unboosted), not 1
  EXPECT_EQ(r.evicted_page, 2u);
  EXPECT_TRUE(pool.Contains(1));
}

TEST(BufferPoolTest, BoostAgesOutUnderNewAccesses) {
  BufferPool pool(3, ReplacementPolicy::kContextSensitive);
  pool.Fix(1);
  pool.Boost(1, 2.0);
  pool.Fix(2);
  pool.Fix(3);
  // Many accesses age the clock past the boost on page 1.
  for (int i = 0; i < 10; ++i) {
    pool.Fix(2);
    pool.Fix(3);
  }
  auto r = pool.Fix(4);
  EXPECT_EQ(r.evicted_page, 1u);
}

TEST(BufferPoolTest, BoostOnNonResidentPageIsNoop) {
  BufferPool pool(2, ReplacementPolicy::kContextSensitive);
  pool.Fix(1);
  pool.Boost(77, 5.0);  // not resident; nothing should break
  EXPECT_FALSE(pool.Contains(77));
}

TEST(BufferPoolTest, ContextPinnedFramesSurviveSaturation) {
  BufferPool pool(3, ReplacementPolicy::kContextSensitive);
  pool.Fix(1);
  pool.Pin(1);
  pool.Fix(2);
  pool.Fix(3);
  for (PageId p = 10; p < 20; ++p) pool.Fix(p);
  EXPECT_TRUE(pool.Contains(1));
}

// Replacement-policy behaviour that must hold for every policy.
class AllPoliciesTest
    : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(AllPoliciesTest, CapacityNeverExceeded) {
  BufferPool pool(16, GetParam(), 3);
  for (PageId p = 0; p < 500; ++p) {
    pool.Fix(p % 37);
    EXPECT_LE(pool.resident_count(), 16u);
  }
}

TEST_P(AllPoliciesTest, WorkingSetSmallerThanPoolAlwaysHitsAfterWarmup) {
  BufferPool pool(16, GetParam(), 3);
  for (PageId p = 0; p < 8; ++p) pool.Fix(p);
  pool.ResetCounters();
  for (int round = 0; round < 10; ++round) {
    for (PageId p = 0; p < 8; ++p) pool.Fix(p);
  }
  EXPECT_DOUBLE_EQ(pool.HitRatio(), 1.0);
}

TEST_P(AllPoliciesTest, EvictedPageIsReallyGone) {
  BufferPool pool(4, GetParam(), 11);
  for (PageId p = 0; p < 100; ++p) {
    auto r = pool.Fix(p);
    if (r.evicted_page != kInvalidPage) {
      EXPECT_FALSE(pool.Contains(r.evicted_page));
    }
  }
}

TEST_P(AllPoliciesTest, CountersAddUp) {
  BufferPool pool(8, GetParam(), 5);
  for (PageId p = 0; p < 300; ++p) pool.Fix(p % 21);
  EXPECT_EQ(pool.hits() + pool.misses(), 300u);
  EXPECT_GE(pool.misses(), 21u);  // each distinct page missed at least once
}

INSTANTIATE_TEST_SUITE_P(Policies, AllPoliciesTest,
                         ::testing::Values(ReplacementPolicy::kLru,
                                           ReplacementPolicy::kRandom,
                                           ReplacementPolicy::kContextSensitive),
                         [](const auto& param_info) {
                           std::string name =
                               ReplacementPolicyName(param_info.param);
                           std::erase_if(name, [](char c) {
                             return !std::isalnum(static_cast<unsigned char>(c));
                           });
                           return name;
                         });

// ------------------------------------------------------------- prefetcher

class PrefetcherTest : public ::testing::Test {
 protected:
  PrefetcherTest() : graph_(&lattice_), storage_(256) {
    // Configuration-dominant type and a version-dominant type.
    config_type_ = lattice_.DefineType("cell", obj::kInvalidType, 32,
                                       {8.0, 1.0, 0.5, 0.2});
    version_type_ = lattice_.DefineType("draft", obj::kInvalidType, 32,
                                        {0.5, 8.0, 0.5, 0.2});
    fam_ = graph_.NewFamily("X");
  }

  obj::ObjectId MakePlaced(obj::TypeId type, store::PageId page) {
    obj::ObjectId id = graph_.Create(fam_, 1, type, 32);
    if (page != kInvalidPage) {
      if (page >= storage_.page_count()) {
        while (storage_.page_count() <= page) storage_.AllocatePage();
      }
      OODB_CHECK(storage_.Place(id, 32, page).ok());
    }
    return id;
  }

  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager storage_;
  obj::TypeId config_type_ = 0, version_type_ = 0;
  obj::FamilyId fam_ = 0;
};

TEST_F(PrefetcherTest, DominantKindComesFromTypeProfile) {
  obj::ObjectId c = MakePlaced(config_type_, 0);
  obj::ObjectId v = MakePlaced(version_type_, 0);
  EXPECT_EQ(DominantKind(graph_, c), obj::RelKind::kConfiguration);
  EXPECT_EQ(DominantKind(graph_, v), obj::RelKind::kVersionHistory);
}

TEST_F(PrefetcherTest, ConfigurationGroupIsComponentPages) {
  obj::ObjectId parent = MakePlaced(config_type_, 0);
  obj::ObjectId c1 = MakePlaced(config_type_, 1);
  obj::ObjectId c2 = MakePlaced(config_type_, 2);
  obj::ObjectId c3 = MakePlaced(config_type_, 1);  // same page as c1
  graph_.Relate(parent, c1, obj::RelKind::kConfiguration);
  graph_.Relate(parent, c2, obj::RelKind::kConfiguration);
  graph_.Relate(parent, c3, obj::RelKind::kConfiguration);

  auto group = ComputePrefetchGroup(graph_, storage_, parent,
                                    AccessHint::None());
  EXPECT_EQ(group.kind, obj::RelKind::kConfiguration);
  std::sort(group.pages.begin(), group.pages.end());
  EXPECT_EQ(group.pages, (std::vector<PageId>{1, 2}));  // deduplicated
}

TEST_F(PrefetcherTest, OwnPageExcluded) {
  obj::ObjectId parent = MakePlaced(config_type_, 0);
  obj::ObjectId c1 = MakePlaced(config_type_, 0);  // co-located
  graph_.Relate(parent, c1, obj::RelKind::kConfiguration);
  auto group = ComputePrefetchGroup(graph_, storage_, parent,
                                    AccessHint::None());
  EXPECT_TRUE(group.pages.empty());
}

TEST_F(PrefetcherTest, HintOverridesTypeProfile) {
  obj::ObjectId o = MakePlaced(config_type_, 0);
  obj::ObjectId anc = MakePlaced(config_type_, 3);
  graph_.Relate(anc, o, obj::RelKind::kVersionHistory);
  auto group = ComputePrefetchGroup(
      graph_, storage_, o, AccessHint::For(obj::RelKind::kVersionHistory));
  EXPECT_EQ(group.kind, obj::RelKind::kVersionHistory);
  EXPECT_EQ(group.pages, (std::vector<PageId>{3}));  // immediate ancestor
}

TEST_F(PrefetcherTest, VersionGroupHasAncestorAndDescendants) {
  obj::ObjectId v2 = MakePlaced(version_type_, 0);
  obj::ObjectId v1 = MakePlaced(version_type_, 1);
  obj::ObjectId v3 = MakePlaced(version_type_, 2);
  graph_.Relate(v1, v2, obj::RelKind::kVersionHistory);
  graph_.Relate(v2, v3, obj::RelKind::kVersionHistory);
  auto group = ComputePrefetchGroup(graph_, storage_, v2,
                                    AccessHint::None());
  std::sort(group.pages.begin(), group.pages.end());
  EXPECT_EQ(group.pages, (std::vector<PageId>{1, 2}));
}

TEST_F(PrefetcherTest, CorrespondenceGroupSeesAllRepresentations) {
  obj::ObjectId lay = MakePlaced(config_type_, 0);
  obj::ObjectId net = MakePlaced(config_type_, 4);
  obj::ObjectId tr = MakePlaced(config_type_, 5);
  graph_.Relate(lay, net, obj::RelKind::kCorrespondence);
  graph_.Relate(lay, tr, obj::RelKind::kCorrespondence);
  auto group = ComputePrefetchGroup(
      graph_, storage_, lay, AccessHint::For(obj::RelKind::kCorrespondence));
  std::sort(group.pages.begin(), group.pages.end());
  EXPECT_EQ(group.pages, (std::vector<PageId>{4, 5}));
}

TEST_F(PrefetcherTest, UnplacedNeighboursIgnored) {
  obj::ObjectId parent = MakePlaced(config_type_, 0);
  obj::ObjectId ghost = MakePlaced(config_type_, kInvalidPage);  // unplaced
  graph_.Relate(parent, ghost, obj::RelKind::kConfiguration);
  auto group = ComputePrefetchGroup(graph_, storage_, parent,
                                    AccessHint::None());
  EXPECT_TRUE(group.pages.empty());
}

// ------------------------------------------------------- repeated access

// FixRepeated(page, k) must leave the state of k Fix(page) calls: the same
// counters, residency and dirty bits, and the same victims afterwards.
void ExpectRepeatEqualsFixes(ReplacementPolicy policy, PageId page,
                             uint64_t k) {
  BufferPool repeated(4, policy, 7), fixed(4, policy, 7);
  for (BufferPool* pool : {&repeated, &fixed}) {
    for (PageId p : {1u, 2u, 3u, 4u, 2u, 5u}) pool->Fix(p);
    pool->MarkDirty(2);
    pool->Boost(5, 2.0);
  }
  const auto first = repeated.FixRepeated(page, k);
  BufferPool::FixResult expected = fixed.Fix(page);
  for (uint64_t i = 1; i < k; ++i) fixed.Fix(page);
  EXPECT_EQ(first.hit, expected.hit);
  EXPECT_EQ(first.evicted_page, expected.evicted_page);
  EXPECT_EQ(first.evicted_dirty, expected.evicted_dirty);
  EXPECT_EQ(repeated.hits(), fixed.hits());
  EXPECT_EQ(repeated.misses(), fixed.misses());
  EXPECT_EQ(repeated.evictions(), fixed.evictions());
  for (PageId p = 0; p < 8; ++p) {
    EXPECT_EQ(repeated.Contains(p), fixed.Contains(p)) << p;
    EXPECT_EQ(repeated.IsDirty(p), fixed.IsDirty(p)) << p;
  }
  // The eviction order that follows, with a boost and a re-access mixed in.
  for (PageId p = 10; p < 20; ++p) {
    if (p == 13) {
      repeated.Boost(page, 0.5);
      fixed.Boost(page, 0.5);
    }
    if (p == 15) {
      repeated.Fix(page);
      fixed.Fix(page);
    }
    const auto a = repeated.Fix(p);
    const auto b = fixed.Fix(p);
    EXPECT_EQ(a.evicted_page, b.evicted_page) << p;
    EXPECT_EQ(a.evicted_dirty, b.evicted_dirty) << p;
  }
}

TEST(BufferPoolTest, FixRepeatedEqualsRepeatedFixes) {
  for (const ReplacementPolicy policy : kAllReplacementPolicies) {
    for (const PageId page : {3u, 5u, 9u}) {  // resident, boosted, missing
      for (const uint64_t k : {1u, 2u, 7u}) {
        SCOPED_TRACE(std::string(ReplacementPolicyName(policy)) + " page " +
                     std::to_string(page) + " k " + std::to_string(k));
        ExpectRepeatEqualsFixes(policy, page, k);
      }
    }
  }
}

}  // namespace
}  // namespace oodb::buffer
