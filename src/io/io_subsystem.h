#ifndef SEMCLUST_IO_IO_SUBSYSTEM_H_
#define SEMCLUST_IO_IO_SUBSYSTEM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace_sink.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "storage/page.h"

/// \file
/// The I/O-subsystem model block (paper §4.1): a set of disks with a
/// seek + rotation + transfer service-time model. Pages are striped across
/// disks by page id. Physical I/Os are counted per purpose so experiments
/// can attribute them (data read vs. dirty flush vs. log vs. clustering
/// exam vs. prefetch vs. split).

namespace oodb::io {

/// Service-time parameters of one disk. Defaults approximate a late-1980s
/// server disk (the paper's testbed era): ~16 ms average seek, 3600 RPM,
/// ~1.8 MB/s transfer.
struct DiskParams {
  double avg_seek_s = 0.016;
  double avg_rotation_s = 0.0083;
  double transfer_rate_bytes_per_s = 1.8e6;

  /// Service time of one page of `page_size_bytes`: seek, rotation and
  /// transfer.
  double PageServiceTime(uint32_t page_size_bytes) const {
    return avg_seek_s + avg_rotation_s +
           static_cast<double>(page_size_bytes) / transfer_rate_bytes_per_s;
  }

  friend bool operator==(const DiskParams&, const DiskParams&) = default;
};

/// Purpose tag for a physical I/O.
enum class IoCategory : uint8_t {
  kDataRead = 0,     ///< demand page read
  kDataWrite,        ///< synchronous page write (page allocation at split)
  kDirtyFlush,       ///< dirty-page write at eviction
  kLogWrite,         ///< transaction-log flush
  kClusterRead,      ///< candidate-page examination by the cluster manager
  kPrefetchRead,     ///< asynchronous prefetch read
};
inline constexpr int kNumIoCategories = 6;

/// Short display name ("data-read", ...).
const char* IoCategoryName(IoCategory c);

/// A farm of `num_disks` FCFS disks.
class IoSubsystem {
 public:
  IoSubsystem(sim::Simulator& sim, int num_disks, uint32_t page_size_bytes,
              DiskParams params = DiskParams());

  IoSubsystem(const IoSubsystem&) = delete;
  IoSubsystem& operator=(const IoSubsystem&) = delete;

  /// Synchronous (process-blocking) page read.
  sim::Task Read(store::PageId page, IoCategory category);

  /// Synchronous page write.
  sim::Task Write(store::PageId page, IoCategory category);

  /// Asynchronous page read (prefetch): occupies the disk but nobody
  /// waits. `on_complete` runs at I/O completion (may be null).
  void ReadAsync(store::PageId page, IoCategory category,
                 sim::Simulator::Callback on_complete = nullptr);

  /// Asynchronous page write (background dirty flush).
  void WriteAsync(store::PageId page, IoCategory category,
                  sim::Simulator::Callback on_complete = nullptr);

  /// Synchronous log flush: one sequential write, striped round-robin
  /// across the disks.
  sim::Task FlushLog();

  /// Fixed per-page service time under the disk model.
  double PageServiceTime() const;

  /// Disk a page is striped onto.
  int DiskOf(store::PageId page) const {
    return static_cast<int>(page % disks_.size());
  }

  uint64_t physical_count(IoCategory c) const {
    return counts_[static_cast<size_t>(c)];
  }

  /// Mean utilisation across disks.
  double MeanUtilization() const;

  /// Deepest instantaneous disk queue (waiters + requests in service) —
  /// OPCF's congestion signal for deferring page reorganisation.
  double MaxQueueDepth() const {
    size_t deepest = 0;
    for (const auto& d : disks_) {
      const size_t depth =
          d->queue_length() + static_cast<size_t>(d->busy());
      if (depth > deepest) deepest = depth;
    }
    return static_cast<double>(deepest);
  }

  int num_disks() const { return static_cast<int>(disks_.size()); }
  const sim::Resource& disk(int i) const { return *disks_[i]; }

  /// Zeroes the per-category counters (between warmup and measurement).
  void ResetCounters();

  /// Attaches an event sink (may be null). Every physical I/O then
  /// records a kPageRead/kPageWrite event with page, category, and disk.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  void TraceIo(obs::TraceEventType type, store::PageId page,
               IoCategory category, size_t disk) {
    if (trace_ != nullptr) {
      trace_->Record(obs::Subsystem::kIo, type, page,
                     static_cast<uint64_t>(category), disk);
    }
  }

  sim::Simulator& sim_;
  uint32_t page_size_;
  DiskParams params_;
  std::vector<std::unique_ptr<sim::Resource>> disks_;
  std::array<uint64_t, kNumIoCategories> counts_{};
  uint64_t log_stripe_ = 0;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace oodb::io

#endif  // SEMCLUST_IO_IO_SUBSYSTEM_H_
