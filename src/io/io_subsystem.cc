#include "io/io_subsystem.h"

namespace oodb::io {

const char* IoCategoryName(IoCategory c) {
  switch (c) {
    case IoCategory::kDataRead:
      return "data-read";
    case IoCategory::kDataWrite:
      return "data-write";
    case IoCategory::kDirtyFlush:
      return "dirty-flush";
    case IoCategory::kLogWrite:
      return "log-write";
    case IoCategory::kClusterRead:
      return "cluster-read";
    case IoCategory::kPrefetchRead:
      return "prefetch-read";
  }
  return "unknown";
}

IoSubsystem::IoSubsystem(sim::Simulator& sim, int num_disks,
                         uint32_t page_size_bytes, DiskParams params)
    : sim_(sim), page_size_(page_size_bytes), params_(params) {
  OODB_CHECK_GE(num_disks, 1);
  disks_.reserve(static_cast<size_t>(num_disks));
  for (int i = 0; i < num_disks; ++i) {
    disks_.push_back(std::make_unique<sim::Resource>(
        sim_, "disk" + std::to_string(i), /*servers=*/1));
  }
}

double IoSubsystem::PageServiceTime() const {
  return params_.PageServiceTime(page_size_);
}

sim::Task IoSubsystem::Read(store::PageId page, IoCategory category) {
  ++counts_[static_cast<size_t>(category)];
  const auto disk = static_cast<size_t>(DiskOf(page));
  TraceIo(obs::TraceEventType::kPageRead, page, category, disk);
  co_await disks_[disk]->Use(PageServiceTime());
}

sim::Task IoSubsystem::Write(store::PageId page, IoCategory category) {
  ++counts_[static_cast<size_t>(category)];
  const auto disk = static_cast<size_t>(DiskOf(page));
  TraceIo(obs::TraceEventType::kPageWrite, page, category, disk);
  co_await disks_[disk]->Use(PageServiceTime());
}

void IoSubsystem::ReadAsync(store::PageId page, IoCategory category,
                            sim::Simulator::Callback on_complete) {
  ++counts_[static_cast<size_t>(category)];
  const auto disk = static_cast<size_t>(DiskOf(page));
  TraceIo(obs::TraceEventType::kPageRead, page, category, disk);
  disks_[disk]->UseDetached(PageServiceTime(), std::move(on_complete));
}

void IoSubsystem::WriteAsync(store::PageId page, IoCategory category,
                             sim::Simulator::Callback on_complete) {
  ++counts_[static_cast<size_t>(category)];
  const auto disk = static_cast<size_t>(DiskOf(page));
  TraceIo(obs::TraceEventType::kPageWrite, page, category, disk);
  disks_[disk]->UseDetached(PageServiceTime(), std::move(on_complete));
}

sim::Task IoSubsystem::FlushLog() {
  ++counts_[static_cast<size_t>(IoCategory::kLogWrite)];
  const size_t disk = log_stripe_++ % disks_.size();
  TraceIo(obs::TraceEventType::kPageWrite, store::kInvalidPage,
          IoCategory::kLogWrite, disk);
  // Sequential log write: no seek, half a rotation plus transfer.
  const double service =
      0.5 * params_.avg_rotation_s +
      static_cast<double>(page_size_) / params_.transfer_rate_bytes_per_s;
  co_await disks_[disk]->Use(service);
}

double IoSubsystem::MeanUtilization() const {
  double sum = 0;
  for (const auto& d : disks_) sum += d->Utilization();
  return sum / static_cast<double>(disks_.size());
}

void IoSubsystem::ResetCounters() { counts_.fill(0); }

}  // namespace oodb::io
