#ifndef SEMCLUST_TXLOG_LOG_MANAGER_H_
#define SEMCLUST_TXLOG_LOG_MANAGER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/trace_sink.h"
#include "storage/page.h"
#include "util/check.h"
#include "util/recycling_map.h"

/// \file
/// Transaction logging (paper §4.1): a circular in-memory log buffer whose
/// records are sized by the created/modified object, flushed to disk when
/// full. Before-images are physiological — the *first* update a transaction
/// makes to a page logs a page-sized before-image; later updates to the
/// same page within that transaction log only object-sized redo records.
/// This is the mechanism behind Fig 5.5: clustering co-locates a
/// transaction's updates, so fewer pages are before-imaged and fewer log
/// flushes occur.

namespace oodb::txlog {

/// Transaction identity as seen by the log.
using TxnId = uint64_t;

/// Log sequence number: a record's index in the journal.
using Lsn = uint64_t;

/// Record types appended by the LogManager.
enum class LogRecordType : uint8_t {
  kBeforeImage = 0,  ///< page-sized physiological before-image
  kRedo = 1,         ///< object-sized redo record
  kCommit = 2,       ///< transaction commit
};

/// One journaled record (see LogManager::EnableJournal).
struct LogRecord {
  Lsn lsn = 0;
  LogRecordType type = LogRecordType::kRedo;
  TxnId txn = 0;
  store::PageId page = store::kInvalidPage;  // invalid for commit records
  uint32_t payload_bytes = 0;
};

/// The log manager. Append operations return how many physical log-flush
/// I/Os the caller owes (the caller charges them to the I/O subsystem).
class LogManager {
 public:
  /// `buffer_bytes` is the circular log-buffer capacity; `page_size_bytes`
  /// sizes before-image records; `record_header_bytes` is the fixed
  /// overhead per record.
  LogManager(uint32_t buffer_bytes, uint32_t page_size_bytes,
             uint32_t record_header_bytes = 32);

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Starts tracking a transaction. Ids must not be reused while active.
  void Begin(TxnId txn);

  /// Logs a create/update of an object of `object_size` living on `page`.
  /// Returns the number of log-flush I/Os triggered (0 or 1).
  int LogWrite(TxnId txn, store::PageId page, uint32_t object_size);

  /// Logs a commit record and forgets the transaction's page set.
  /// Returns log-flush I/Os triggered (0 or 1; 1 more if `force`).
  int Commit(TxnId txn, bool force = false);

  /// Abandons a transaction without a commit record.
  void Abort(TxnId txn);

  /// The pages an active transaction has logged writes against, sorted by
  /// page id. The rollback path (src/cc/) walks this to undo dirty work in
  /// that order.
  std::vector<store::PageId> TouchedPages(TxnId txn) const;

  uint64_t records_appended() const { return records_; }
  uint64_t before_images() const { return before_images_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  /// Physical I/Os caused by log flushes.
  uint64_t flush_count() const { return flushes_; }
  uint32_t buffered_bytes() const { return buffered_; }

  /// Zeroes counters (between warmup and measurement); active-transaction
  /// state is preserved. The journal, if enabled, is cleared too.
  void ResetCounters();

  /// Starts journaling every record (LSN, type, txn, page, size) for
  /// recovery analysis. Off by default: the simulation only needs the
  /// counters.
  void EnableJournal() { journal_enabled_ = true; }

  /// The journaled records (empty unless EnableJournal was called).
  const std::vector<LogRecord>& journal() const { return journal_; }

  /// The LSN of the last record that has been flushed to disk (the
  /// durable horizon). Records after it live in the volatile buffer.
  /// Returns false via the bool when nothing has been flushed yet.
  std::pair<uint64_t, bool> durable_lsn() const {
    return {durable_lsn_, any_flush_};
  }

  /// Attaches an event sink (may be null). Every log flush then records a
  /// kLogFlush event carrying the bytes and record count flushed.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  /// Appends a record of `payload` bytes; returns flush I/Os (0 or 1).
  int Append(uint32_t payload);
  void Journal(LogRecordType type, TxnId txn, store::PageId page,
               uint32_t payload);
  /// Ends an active transaction's page tracking, recycling its entry.
  void Forget(TxnId txn);

  uint32_t capacity_;
  uint32_t page_size_;
  uint32_t header_;
  uint32_t buffered_ = 0;

  /// Each active transaction's touched pages, kept sorted (the
  /// membership check is a binary search). Commit and Abort recycle the
  /// entry, vector capacity included, for a later transaction.
  RecyclingMap<TxnId, std::vector<store::PageId>> touched_;

  uint64_t records_ = 0;
  uint64_t before_images_ = 0;
  uint64_t bytes_appended_ = 0;
  uint64_t flushes_ = 0;

  bool journal_enabled_ = false;
  std::vector<LogRecord> journal_;
  uint64_t durable_lsn_ = 0;
  bool any_flush_ = false;
  obs::TraceSink* trace_ = nullptr;
  uint64_t records_at_last_flush_ = 0;
};

}  // namespace oodb::txlog

#endif  // SEMCLUST_TXLOG_LOG_MANAGER_H_
