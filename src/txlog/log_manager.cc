#include "txlog/log_manager.h"

#include <algorithm>

namespace oodb::txlog {

LogManager::LogManager(uint32_t buffer_bytes, uint32_t page_size_bytes,
                       uint32_t record_header_bytes)
    : capacity_(buffer_bytes),
      page_size_(page_size_bytes),
      header_(record_header_bytes) {
  OODB_CHECK_GT(buffer_bytes, 0u);
  OODB_CHECK_GT(page_size_bytes, 0u);
  // A before-image record must fit in the buffer.
  OODB_CHECK_GE(buffer_bytes, page_size_bytes + record_header_bytes);
}

void LogManager::Begin(TxnId txn) {
  bool inserted = false;
  const std::vector<store::PageId>& pages =
      touched_.FindOrInsert(txn, &inserted);
  OODB_CHECK(inserted);
  OODB_CHECK(pages.empty());
}

int LogManager::Append(uint32_t payload) {
  const uint32_t record = header_ + payload;
  int flushes = 0;
  if (buffered_ + record > capacity_) {
    // Circular buffer full: flush it (one physical write of the log tail).
    ++flushes_;
    ++flushes;
    if (trace_ != nullptr) {
      trace_->Record(obs::Subsystem::kTxlog, obs::TraceEventType::kLogFlush,
                     buffered_, records_ - records_at_last_flush_);
    }
    records_at_last_flush_ = records_;
    buffered_ = 0;
    if (records_ > 0) {
      // Everything appended so far is on disk.
      durable_lsn_ = records_ - 1;
      any_flush_ = true;
    }
  }
  buffered_ += record;
  ++records_;
  bytes_appended_ += record;
  return flushes;
}

void LogManager::Journal(LogRecordType type, TxnId txn, store::PageId page,
                         uint32_t payload) {
  if (!journal_enabled_) return;
  LogRecord r;
  r.lsn = journal_.size();
  r.type = type;
  r.txn = txn;
  r.page = page;
  r.payload_bytes = payload;
  journal_.push_back(r);
}

int LogManager::LogWrite(TxnId txn, store::PageId page,
                         uint32_t object_size) {
  std::vector<store::PageId>* pages = touched_.Find(txn);
  OODB_CHECK(pages != nullptr);
  int flushes = 0;
  auto pos = std::lower_bound(pages->begin(), pages->end(), page);
  if (pos == pages->end() || *pos != page) {
    pages->insert(pos, page);
    // First touch of this page by this transaction: page before-image.
    ++before_images_;
    Journal(LogRecordType::kBeforeImage, txn, page,
            page_size_);
    flushes += Append(page_size_);
  }
  Journal(LogRecordType::kRedo, txn, page,
          object_size);
  flushes += Append(object_size);
  return flushes;
}

int LogManager::Commit(TxnId txn, bool force) {
  Forget(txn);
  Journal(LogRecordType::kCommit, txn, store::kInvalidPage, 16);
  int flushes = Append(/*payload=*/16);  // commit record
  if (force && buffered_ > 0) {
    ++flushes_;
    ++flushes;
    if (trace_ != nullptr) {
      trace_->Record(obs::Subsystem::kTxlog, obs::TraceEventType::kLogFlush,
                     buffered_, records_ - records_at_last_flush_);
    }
    records_at_last_flush_ = records_;
    buffered_ = 0;
    durable_lsn_ = records_ - 1;
    any_flush_ = true;
  }
  return flushes;
}

std::vector<store::PageId> LogManager::TouchedPages(TxnId txn) const {
  const std::vector<store::PageId>* pages = touched_.Find(txn);
  OODB_CHECK(pages != nullptr);
  return *pages;
}

void LogManager::Abort(TxnId txn) { Forget(txn); }

void LogManager::Forget(TxnId txn) {
  auto node = touched_.Take(txn);
  OODB_CHECK(!node.empty());
  node.mapped().clear();
  touched_.Recycle(std::move(node));
}

void LogManager::ResetCounters() {
  records_ = before_images_ = bytes_appended_ = flushes_ = 0;
  journal_.clear();
  durable_lsn_ = 0;
  any_flush_ = false;
}

}  // namespace oodb::txlog
