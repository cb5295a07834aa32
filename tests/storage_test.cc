#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "storage/page.h"
#include "storage/storage_manager.h"

namespace oodb::store {
namespace {

// ---------------------------------------------------------------- page

/// True if `id` has a slot on `page`.
bool Holds(const Page& page, obj::ObjectId id) {
  return std::any_of(page.slots().begin(), page.slots().end(),
                     [id](const Slot& s) { return s.object == id; });
}

TEST(PageTest, InsertTracksSpace) {
  Page p(100);
  EXPECT_TRUE(p.Insert(1, 40));
  EXPECT_TRUE(p.Insert(2, 30));
  EXPECT_EQ(p.used_bytes(), 70u);
  EXPECT_EQ(p.free_bytes(), 30u);
  EXPECT_EQ(p.object_count(), 2u);
}

TEST(PageTest, RejectsOverflowWithoutModification) {
  Page p(100);
  EXPECT_TRUE(p.Insert(1, 80));
  EXPECT_FALSE(p.Insert(2, 30));
  EXPECT_EQ(p.used_bytes(), 80u);
  EXPECT_FALSE(Holds(p, 2));
}

TEST(PageTest, ExactFitAccepted) {
  Page p(100);
  EXPECT_TRUE(p.Insert(1, 100));
  EXPECT_EQ(p.free_bytes(), 0u);
}

TEST(PageTest, RemoveReclaimsSpace) {
  Page p(100);
  p.Insert(1, 40);
  p.Insert(2, 30);
  EXPECT_TRUE(p.Remove(1));
  EXPECT_EQ(p.used_bytes(), 30u);
  EXPECT_FALSE(Holds(p, 1));
  EXPECT_TRUE(Holds(p, 2));
  EXPECT_FALSE(p.Remove(1));  // already gone
}

// --------------------------------------------------------- storage manager

class StorageManagerTest : public ::testing::Test {
 protected:
  StorageManager store_{1000};
};

TEST_F(StorageManagerTest, PlaceAndLookup) {
  PageId p = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(7, 100, p).ok());
  EXPECT_EQ(store_.PageOf(7), p);
  EXPECT_TRUE(store_.IsPlaced(7));
  EXPECT_EQ(store_.SizeOf(7), 100u);
  EXPECT_EQ(store_.used_bytes(), 100u);
}

TEST_F(StorageManagerTest, DoublePlacementRejected) {
  PageId p = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(7, 100, p).ok());
  Status s = store_.Place(7, 100, p);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST_F(StorageManagerTest, FullPageRejectsPlacement) {
  PageId p = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(1, 900, p).ok());
  EXPECT_EQ(store_.Place(2, 200, p).code(), StatusCode::kResourceExhausted);
}

TEST_F(StorageManagerTest, OversizeObjectInvalid) {
  PageId p = store_.AllocatePage();
  EXPECT_EQ(store_.Place(1, 1001, p).code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageManagerTest, AppendPlacementFillsThenAllocates) {
  auto p1 = store_.PlaceAppend(1, 600);
  ASSERT_TRUE(p1.ok());
  auto p2 = store_.PlaceAppend(2, 600);  // doesn't fit on p1
  ASSERT_TRUE(p2.ok());
  EXPECT_NE(*p1, *p2);
  auto p3 = store_.PlaceAppend(3, 300);  // fits on p2
  ASSERT_TRUE(p3.ok());
  EXPECT_EQ(*p3, *p2);
  EXPECT_EQ(store_.page_count(), 2u);
}

TEST_F(StorageManagerTest, RelocateMovesBetweenPages) {
  PageId a = store_.AllocatePage();
  PageId b = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(1, 100, a).ok());
  ASSERT_TRUE(store_.Relocate(1, b).ok());
  EXPECT_EQ(store_.PageOf(1), b);
  EXPECT_FALSE(Holds(store_.page(a), 1));
  EXPECT_TRUE(Holds(store_.page(b), 1));
  EXPECT_EQ(store_.used_bytes(), 100u);  // unchanged by a move
}

TEST_F(StorageManagerTest, RelocateToFullPageFailsCleanly) {
  PageId a = store_.AllocatePage();
  PageId b = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(1, 100, a).ok());
  ASSERT_TRUE(store_.Place(2, 950, b).ok());
  EXPECT_EQ(store_.Relocate(1, b).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store_.PageOf(1), a);  // still where it was
}

TEST_F(StorageManagerTest, RelocateToSamePageIsNoop) {
  PageId a = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(1, 100, a).ok());
  EXPECT_TRUE(store_.Relocate(1, a).ok());
  EXPECT_EQ(store_.PageOf(1), a);
}

TEST_F(StorageManagerTest, EraseFreesSpaceAndDirectory) {
  PageId a = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(1, 100, a).ok());
  ASSERT_TRUE(store_.Erase(1).ok());
  EXPECT_FALSE(store_.IsPlaced(1));
  EXPECT_EQ(store_.used_bytes(), 0u);
  EXPECT_EQ(store_.Erase(1).code(), StatusCode::kNotFound);
}

TEST_F(StorageManagerTest, UnknownObjectUnplaced) {
  EXPECT_EQ(store_.PageOf(424242), kInvalidPage);
  EXPECT_FALSE(store_.IsPlaced(424242));
}

// Property: after any sequence of placements and relocations, every page's
// used_bytes equals the sum of its slot sizes and the directory agrees with
// slot residency.
TEST_F(StorageManagerTest, InvariantsHoldUnderChurn) {
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) pages.push_back(store_.AllocatePage());
  uint64_t seed = 99;
  auto next = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 33;
  };
  for (obj::ObjectId id = 0; id < 200; ++id) {
    store_.PlaceAppend(id, 50 + next() % 150).status();
  }
  for (int step = 0; step < 500; ++step) {
    const obj::ObjectId id = next() % 200;
    const PageId to = pages[next() % pages.size()];
    store_.Relocate(id, to);  // may fail; that's fine
  }
  for (PageId p = 0; p < store_.page_count(); ++p) {
    uint32_t sum = 0;
    for (const Slot& s : store_.page(p).slots()) {
      sum += s.size_bytes;
      EXPECT_EQ(store_.PageOf(s.object), p);
    }
    EXPECT_EQ(store_.page(p).used_bytes(), sum);
    EXPECT_LE(sum, store_.page(p).capacity_bytes());
  }
}

// ------------------------------------------------------------ run append

// Places `sizes` as objects first, first + 1, ... both ways -- one
// PlaceAppendRun on `run`, one PlaceAppend per object on `single` -- and
// expects the same pages, slots and directory, and runs that name each
// page the objects landed on with its object count.
void ExpectRunEqualsAppends(StorageManager& run, StorageManager& single,
                            obj::ObjectId first,
                            const std::vector<uint32_t>& sizes) {
  std::vector<PageRun> runs;
  run.PlaceAppendRun(first, sizes, runs);
  std::vector<PageRun> expected;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const auto page =
        single.PlaceAppend(static_cast<obj::ObjectId>(first + i), sizes[i]);
    ASSERT_TRUE(page.ok());
    if (expected.empty() || expected.back().page != *page) {
      expected.push_back(PageRun{*page, 0});
    }
    ++expected.back().count;
  }
  EXPECT_EQ(runs, expected);
  ASSERT_EQ(run.page_count(), single.page_count());
  EXPECT_EQ(run.append_page(), single.append_page());
  EXPECT_EQ(run.used_bytes(), single.used_bytes());
  for (PageId p = 0; p < run.page_count(); ++p) {
    const auto& a = run.page(p).slots();
    const auto& b = single.page(p).slots();
    ASSERT_EQ(a.size(), b.size()) << p;
    EXPECT_EQ(run.page(p).used_bytes(), single.page(p).used_bytes()) << p;
    for (size_t s = 0; s < a.size(); ++s) {
      EXPECT_EQ(a[s].object, b[s].object) << p;
      EXPECT_EQ(a[s].size_bytes, b[s].size_bytes) << p;
    }
  }
  for (size_t i = 0; i < sizes.size(); ++i) {
    const auto id = static_cast<obj::ObjectId>(first + i);
    EXPECT_EQ(run.PageOf(id), single.PageOf(id)) << id;
    EXPECT_EQ(run.SizeOf(id), single.SizeOf(id)) << id;
  }
  // Clustered placement sizes a fresh page's slots from the placed
  // objects' mean, so the placed count must agree too.
  const PageId a = run.AllocatePage();
  const PageId b = single.AllocatePage();
  EXPECT_EQ(run.page(a).slots().capacity(), single.page(b).slots().capacity());
}

TEST(PlaceAppendRunTest, FillLimitEdge) {
  // Fill limit 750 of 1000: 700 + 50 ends exactly at the limit, one more
  // byte opens a page.
  StorageManager run(1000, 0.75), single(1000, 0.75);
  ExpectRunEqualsAppends(run, single, 0, {700, 50, 1, 749, 1, 1});
}

TEST(PlaceAppendRunTest, ObjectLargerThanTheFillLimitBypassesTheReserve) {
  StorageManager run(1000, 0.75), single(1000, 0.75);
  ExpectRunEqualsAppends(run, single, 0, {100, 800, 100, 900, 1000, 60});
}

TEST(PlaceAppendRunTest, ExactlyFullPage) {
  StorageManager run(1000), single(1000);
  ExpectRunEqualsAppends(run, single, 0, {400, 600, 1000, 1, 999, 1});
}

TEST(PlaceAppendRunTest, ContinuesAPartlyFilledAppendPage) {
  StorageManager run(1000, 0.8), single(1000, 0.8);
  for (obj::ObjectId id = 0; id < 3; ++id) {
    ASSERT_TRUE(run.PlaceAppend(id, 120).ok());
    ASSERT_TRUE(single.PlaceAppend(id, 120).ok());
  }
  ExpectRunEqualsAppends(run, single, 3, {100, 200, 300, 50});
  // And a second run continues where the first left off.
  ExpectRunEqualsAppends(run, single, 7, {500, 10});
}

TEST(PlaceAppendRunTest, EmptyRunChangesNothing) {
  StorageManager run(1000), single(1000);
  ExpectRunEqualsAppends(run, single, 0, {});
  EXPECT_EQ(run.page_count(), 1u);  // the probe page alone
  ExpectRunEqualsAppends(run, single, 0, {300});
  std::vector<PageRun> runs;
  run.PlaceAppendRun(1, {}, runs);
  EXPECT_TRUE(runs.empty());
}

TEST(PlaceAppendRunTest, RandomSizesAcrossManyPages) {
  StorageManager run(4096, 0.8), single(4096, 0.8);
  std::vector<uint32_t> sizes;
  uint64_t seed = 5;
  for (int i = 0; i < 2000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    sizes.push_back(24 + static_cast<uint32_t>((seed >> 33) % 1100));
  }
  ExpectRunEqualsAppends(run, single, 0, sizes);
}

// ------------------------------------------------------ relocate to new

// Two managers with pages 0 [0 1 2], 1 [3 4 5 6 8] and 2 [7], 100 bytes
// per object.
class RelocateToNewPagesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (StorageManager* s : {&bulk_, &reference_}) {
      for (const auto& page : kPages) {
        const PageId p = s->AllocatePage();
        for (const obj::ObjectId id : page) {
          ASSERT_TRUE(s->Place(id, 100, p).ok());
        }
      }
    }
  }

  // The reference: AllocatePage for each new page, then Relocate of each
  // object in sequence.
  void RelocateOneByOne(const std::vector<obj::ObjectId>& objects,
                        const std::vector<size_t>& page_start) {
    std::vector<PageId> to;
    for (size_t k = 0; k + 1 < page_start.size(); ++k) {
      to.push_back(reference_.AllocatePage());
    }
    for (size_t k = 0; k + 1 < page_start.size(); ++k) {
      for (size_t i = page_start[k]; i < page_start[k + 1]; ++i) {
        ASSERT_TRUE(reference_.Relocate(objects[i], to[k]).ok());
      }
    }
  }

  const std::vector<std::vector<obj::ObjectId>> kPages = {
      {0, 1, 2}, {3, 4, 5, 6, 8}, {7}};
  StorageManager bulk_{1000};
  StorageManager reference_{1000};
};

TEST_F(RelocateToNewPagesTest, VacatedPagesKeepNoSlotsAndKeptRecordsReplay) {
  // Page 0 is vacated; page 1 keeps 3, 6 and 8, and the order of its two
  // removals shows: removing 4 then 5 leaves [3 8 6], the other order
  // [3 6 8].
  const std::vector<obj::ObjectId> objects = {0, 4, 1, 2, 5};
  const std::vector<size_t> page_start = {0, 3, 5};
  const uint64_t used = bulk_.used_bytes();
  EXPECT_EQ(bulk_.RelocateToNewPages(objects, page_start), 2u);
  RelocateOneByOne(objects, page_start);

  EXPECT_EQ(bulk_.page(0).object_count(), 0u);
  EXPECT_EQ(bulk_.page(0).used_bytes(), 0u);
  EXPECT_EQ(bulk_.page(0).slot_capacity(), 0u);
  EXPECT_GT(reference_.page(0).slot_capacity(), 0u);  // what it used to keep

  std::vector<obj::ObjectId> kept;
  for (const Slot& slot : bulk_.page(1).slots()) kept.push_back(slot.object);
  EXPECT_EQ(kept, (std::vector<obj::ObjectId>{3, 8, 6}));

  EXPECT_EQ(bulk_.used_bytes(), used);
  ASSERT_EQ(bulk_.page_count(), reference_.page_count());
  for (PageId p = 0; p < bulk_.page_count(); ++p) {
    ASSERT_EQ(bulk_.page(p).slots().size(), reference_.page(p).slots().size())
        << "page " << p;
    for (size_t i = 0; i < bulk_.page(p).slots().size(); ++i) {
      EXPECT_EQ(bulk_.page(p).slots()[i].object,
                reference_.page(p).slots()[i].object)
          << "page " << p << " slot " << i;
    }
    EXPECT_EQ(bulk_.page(p).used_bytes(), reference_.page(p).used_bytes());
  }
  for (obj::ObjectId id = 0; id <= 8; ++id) {
    EXPECT_EQ(bulk_.PageOf(id), reference_.PageOf(id)) << id;
    EXPECT_EQ(bulk_.SizeOf(id), 100u) << id;
  }
  EXPECT_EQ(bulk_.PageOf(0), 3u);
  EXPECT_EQ(bulk_.PageOf(5), 4u);
  EXPECT_EQ(bulk_.PageOf(7), 2u);
}

TEST_F(RelocateToNewPagesTest, EveryPageVacated) {
  const std::vector<obj::ObjectId> objects = {7, 8, 6, 5, 4, 3, 2, 1, 0};
  const std::vector<size_t> page_start = {0, 5, 9};
  const uint64_t used = bulk_.used_bytes();
  EXPECT_EQ(bulk_.RelocateToNewPages(objects, page_start), 3u);
  for (PageId p = 0; p < 3; ++p) {
    EXPECT_EQ(bulk_.page(p).object_count(), 0u) << p;
    EXPECT_EQ(bulk_.page(p).slot_capacity(), 0u) << p;
  }
  EXPECT_EQ(bulk_.page(3).object_count(), 5u);
  EXPECT_EQ(bulk_.page(4).object_count(), 4u);
  EXPECT_EQ(bulk_.used_bytes(), used);
  for (size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(bulk_.PageOf(objects[i]), i < 5 ? 3u : 4u);
    EXPECT_EQ(bulk_.SizeOf(objects[i]), 100u);
  }
}

TEST_F(StorageManagerTest, ReservedDirectoryNeverReallocates) {
  store_.ReserveObjects(64);
  EXPECT_EQ(store_.directory_capacity(), 64u);
  for (obj::ObjectId id = 0; id < 64; ++id) {
    ASSERT_TRUE(store_.PlaceAppend(id, 100).ok());
  }
  EXPECT_EQ(store_.directory_capacity(), 64u);
  EXPECT_EQ(store_.PageOf(64), kInvalidPage);
  ASSERT_TRUE(store_.PlaceAppend(64, 100).ok());  // past it, it grows
  EXPECT_GT(store_.directory_capacity(), 64u);
}

}  // namespace
}  // namespace oodb::store
