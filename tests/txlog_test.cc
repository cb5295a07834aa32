#include <vector>

#include "gtest/gtest.h"
#include "txlog/log_manager.h"

namespace oodb::txlog {
namespace {

constexpr uint32_t kPage = 4096;
constexpr uint32_t kHeader = 32;

TEST(LogManagerTest, FirstWriteToPageLogsBeforeImage) {
  LogManager log(64 * 1024, kPage, kHeader);
  log.Begin(1);
  log.LogWrite(1, /*page=*/10, /*object_size=*/100);
  EXPECT_EQ(log.before_images(), 1u);
  EXPECT_EQ(log.records_appended(), 2u);  // before-image + redo
  EXPECT_EQ(log.bytes_appended(), (kHeader + kPage) + (kHeader + 100));
}

TEST(LogManagerTest, RepeatWritesToSamePageSkipBeforeImage) {
  LogManager log(64 * 1024, kPage, kHeader);
  log.Begin(1);
  log.LogWrite(1, 10, 100);
  log.LogWrite(1, 10, 200);
  log.LogWrite(1, 10, 50);
  EXPECT_EQ(log.before_images(), 1u);
  EXPECT_EQ(log.records_appended(), 4u);  // 1 before-image + 3 redo
}

TEST(LogManagerTest, DistinctPagesEachBeforeImaged) {
  LogManager log(64 * 1024, kPage, kHeader);
  log.Begin(1);
  log.LogWrite(1, 10, 100);
  log.LogWrite(1, 11, 100);
  log.LogWrite(1, 12, 100);
  EXPECT_EQ(log.before_images(), 3u);
}

TEST(LogManagerTest, PageSetResetsPerTransaction) {
  LogManager log(64 * 1024, kPage, kHeader);
  log.Begin(1);
  log.LogWrite(1, 10, 100);
  log.Commit(1);
  log.Begin(2);
  log.LogWrite(2, 10, 100);  // new transaction: before-image again
  EXPECT_EQ(log.before_images(), 2u);
}

TEST(LogManagerTest, ConcurrentTransactionsTrackSeparatePageSets) {
  LogManager log(64 * 1024, kPage, kHeader);
  log.Begin(1);
  log.Begin(2);
  log.LogWrite(1, 10, 100);
  log.LogWrite(2, 10, 100);  // different txn: its own before-image
  EXPECT_EQ(log.before_images(), 2u);
  log.Commit(1);
  log.Commit(2);
}

TEST(LogManagerTest, BufferFullTriggersFlush) {
  // Tiny buffer: fits exactly one before-image record plus a little.
  LogManager log(kPage + kHeader + 200, kPage, kHeader);
  log.Begin(1);
  EXPECT_EQ(log.flush_count(), 0u);
  log.LogWrite(1, 10, 300);  // before-image + redo; the redo overflows
  EXPECT_GE(log.flush_count(), 1u);
}

TEST(LogManagerTest, FlushCountGrowsWithDistinctPagesTouched) {
  // The Fig 5.5 mechanism: clustered updates (one page) flush less than
  // scattered updates (many pages).
  LogManager clustered(32 * 1024, kPage, kHeader);
  clustered.Begin(1);
  for (int i = 0; i < 50; ++i) clustered.LogWrite(1, 10, 100);
  clustered.Commit(1);

  LogManager scattered(32 * 1024, kPage, kHeader);
  scattered.Begin(1);
  for (int i = 0; i < 50; ++i) {
    scattered.LogWrite(1, static_cast<store::PageId>(i), 100);
  }
  scattered.Commit(1);

  EXPECT_LT(clustered.flush_count(), scattered.flush_count());
  EXPECT_EQ(clustered.before_images(), 1u);
  EXPECT_EQ(scattered.before_images(), 50u);
}

TEST(LogManagerTest, ForcedCommitFlushesResidue) {
  LogManager log(64 * 1024, kPage, kHeader);
  log.Begin(1);
  log.LogWrite(1, 10, 100);
  const int flushes = log.Commit(1, /*force=*/true);
  EXPECT_GE(flushes, 1);
  EXPECT_EQ(log.buffered_bytes(), 0u);
}

TEST(LogManagerTest, UnforcedCommitLeavesResidueBuffered) {
  LogManager log(64 * 1024, kPage, kHeader);
  log.Begin(1);
  log.LogWrite(1, 10, 100);
  log.Commit(1, /*force=*/false);
  EXPECT_GT(log.buffered_bytes(), 0u);
  EXPECT_EQ(log.flush_count(), 0u);
}

TEST(LogManagerTest, AbortForgetsTransaction) {
  LogManager log(64 * 1024, kPage, kHeader);
  log.Begin(1);
  log.LogWrite(1, 10, 100);
  log.Abort(1);
  log.Begin(1);  // id reusable after abort
  log.LogWrite(1, 10, 100);
  EXPECT_EQ(log.before_images(), 2u);
  log.Commit(1);
}

TEST(LogManagerTest, ResetCountersPreservesActiveTransactions) {
  LogManager log(64 * 1024, kPage, kHeader);
  log.Begin(1);
  log.LogWrite(1, 10, 100);
  log.ResetCounters();
  EXPECT_EQ(log.records_appended(), 0u);
  log.LogWrite(1, 10, 100);  // same txn, same page: still no before-image
  EXPECT_EQ(log.before_images(), 0u);
  log.Commit(1);
}

TEST(LogManagerTest, TouchedPagesStaySortedAndUniqueBeyondSixteen) {
  LogManager log(1024 * 1024, kPage, kHeader);
  log.Begin(1);
  std::vector<store::PageId> want;
  // 40 distinct pages in a scrambled order, each written three times.
  for (int round = 0; round < 3; ++round) {
    for (uint32_t i = 0; i < 40; ++i) {
      log.LogWrite(1, (i * 17) % 40 + 100, 64);
    }
  }
  for (store::PageId p = 100; p < 140; ++p) want.push_back(p);
  EXPECT_EQ(log.TouchedPages(1), want);
  EXPECT_EQ(log.before_images(), 40u);
  log.Commit(1);
}

TEST(LogManagerTest, RecycledPageSetStartsEmpty) {
  LogManager log(1024 * 1024, kPage, kHeader);
  log.Begin(1);
  for (store::PageId p = 0; p < 20; ++p) log.LogWrite(1, p, 64);
  log.Abort(1);
  log.Begin(2);  // takes txn 1's recycled entry
  EXPECT_TRUE(log.TouchedPages(2).empty());
  log.LogWrite(2, 5, 64);  // page 5 was txn 1's: a new before-image
  EXPECT_EQ(log.before_images(), 21u);
  EXPECT_EQ(log.TouchedPages(2), (std::vector<store::PageId>{5}));
  log.Commit(2);
}

// Property sweep: for any update pattern, flush count is monotone in the
// number of distinct pages touched per transaction.
class LogFlushMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(LogFlushMonotoneTest, MoreDistinctPagesNeverFlushLess) {
  const int spread = GetParam();
  LogManager narrow(16 * 1024, kPage, kHeader);
  LogManager wide(16 * 1024, kPage, kHeader);
  narrow.Begin(1);
  wide.Begin(1);
  for (int i = 0; i < 200; ++i) {
    narrow.LogWrite(1, static_cast<store::PageId>(i % 2), 64);
    wide.LogWrite(1, static_cast<store::PageId>(i % (2 + spread)), 64);
  }
  EXPECT_LE(narrow.flush_count(), wide.flush_count());
}

INSTANTIATE_TEST_SUITE_P(Spreads, LogFlushMonotoneTest,
                         ::testing::Values(1, 3, 10, 50, 150));

}  // namespace
}  // namespace oodb::txlog
