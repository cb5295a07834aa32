#include "txlog/recovery.h"

#include <algorithm>

namespace oodb::txlog {

RecoveryAnalyzer::RecoveryAnalyzer(const std::vector<LogRecord>* journal)
    : journal_(journal) {
  OODB_CHECK(journal != nullptr);
}

Status RecoveryAnalyzer::CheckWalInvariants() const {
  std::unordered_map<TxnId, std::unordered_set<store::PageId>> imaged;
  std::unordered_set<TxnId> committed;
  Lsn expected_lsn = 0;
  for (const LogRecord& r : *journal_) {
    if (r.lsn != expected_lsn) {
      return Status::Internal("non-dense LSN at " + std::to_string(r.lsn));
    }
    ++expected_lsn;
    if (committed.count(r.txn) > 0) {
      return Status::FailedPrecondition(
          "txn " + std::to_string(r.txn) + " logs after its commit");
    }
    switch (r.type) {
      case LogRecordType::kBeforeImage:
        imaged[r.txn].insert(r.page);
        break;
      case LogRecordType::kRedo:
        if (r.page != store::kInvalidPage &&
            imaged[r.txn].count(r.page) == 0) {
          return Status::FailedPrecondition(
              "redo for page " + std::to_string(r.page) + " of txn " +
              std::to_string(r.txn) + " precedes its before-image");
        }
        break;
      case LogRecordType::kCommit:
        committed.insert(r.txn);
        break;
    }
  }
  return Status::Ok();
}

RecoveryPlan RecoveryAnalyzer::AnalyzeCrash(Lsn durable_lsn) const {
  RecoveryPlan plan;
  std::unordered_set<TxnId> winners;
  std::unordered_set<TxnId> seen;
  // Pass 1 (analysis): which transactions have a durable commit.
  for (const LogRecord& r : *journal_) {
    if (r.lsn > durable_lsn) {
      ++plan.lost_records;
      continue;
    }
    seen.insert(r.txn);
    if (r.type == LogRecordType::kCommit) winners.insert(r.txn);
  }
  // Pass 2 (redo/undo sets) over the durable prefix.
  std::unordered_set<store::PageId> redo, undo;
  for (const LogRecord& r : *journal_) {
    if (r.lsn > durable_lsn) break;
    if (r.page == store::kInvalidPage) continue;
    if (winners.count(r.txn) > 0) {
      if (r.type == LogRecordType::kRedo) redo.insert(r.page);
    } else {
      if (r.type == LogRecordType::kBeforeImage) undo.insert(r.page);
    }
  }
  for (TxnId t : seen) {
    (winners.count(t) > 0 ? plan.winners : plan.losers).push_back(t);
  }
  plan.redo_pages.assign(redo.begin(), redo.end());
  plan.undo_pages.assign(undo.begin(), undo.end());
  std::sort(plan.winners.begin(), plan.winners.end());
  std::sort(plan.losers.begin(), plan.losers.end());
  std::sort(plan.redo_pages.begin(), plan.redo_pages.end());
  std::sort(plan.undo_pages.begin(), plan.undo_pages.end());
  return plan;
}

}  // namespace oodb::txlog
