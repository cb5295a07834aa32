#ifndef SEMCLUST_OBS_TRACE_SINK_H_
#define SEMCLUST_OBS_TRACE_SINK_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/simulator.h"

/// \file
/// The tracing half of the observability subsystem (DESIGN.md §8): typed
/// events stamped with **simulated** time, recorded into a bounded
/// per-cell ring buffer (oldest events are overwritten and counted as
/// dropped, so tracing can never OOM a long run), and exported as Chrome
/// `trace_event` JSON that chrome://tracing and Perfetto load directly.
///
/// Each simulation cell owns one TraceSink (single-threaded, lock-free);
/// at the end of its run the sink is flushed under a mutex into the
/// process-global TraceCollector, which writes the merged file at exit.
/// In the exported trace, pid = cell index and tid = subsystem, so a grid
/// of cells renders as parallel processes with per-subsystem tracks.
///
/// Environment:
///   SEMCLUST_TRACE=<path>     enables tracing and names the output file
///   SEMCLUST_TRACE_EVENTS=n   per-cell ring capacity (default 4096)

namespace oodb::obs {

/// The subsystem a trace event originates from (the exported tid).
enum class Subsystem : uint8_t {
  kSim = 0,
  kCore,
  kBuffer,
  kCluster,
  kIo,
  kTxlog,
  kSpans,  ///< exemplar span trees from the span profiler
};
inline constexpr int kNumSubsystems = 7;
const char* SubsystemName(Subsystem s);

/// Every event kind the runtime records.
enum class TraceEventType : uint8_t {
  kTxnBegin = 0,    ///< a: txn id, b: query type
  kTxnEnd,          ///< a: txn id, b: query type, v: response seconds
  kPageRead,        ///< a: page, b: io category, c: disk
  kPageWrite,       ///< a: page, b: io category, c: disk
  kPageSplit,       ///< a: split page, b: objects moved, c: search steps,
                    ///< v: broken cost
  kRecluster,       ///< a: candidates scored, b: exam I/Os, c: relocated
  kPrefetchIssue,   ///< a: page
  kPrefetchHit,     ///< a: page (demand access absorbed by a prefetch)
  kPrefetchWaste,   ///< a: page (prefetched, evicted unreferenced)
  kPrefetchGroup,   ///< a: relationship kind, b: group size in pages
  kLogFlush,        ///< a: bytes flushed, b: records in buffer
  kEviction,        ///< a: page, b: priority class, c: dirty, v: priority
  kDynTrigger,      ///< a: units enqueued, b: tracked objects, c: pending,
                    ///< v: queue depth at the trigger
  kDynReorg,        ///< a: anchor object, b: objects moved, c: pages
                    ///< touched, v: anchor heat
  kSpan,            ///< a: txn id, b: span code (obs::SpanCodeName),
                    ///< c: query type, v: duration seconds; exported as
                    ///< a Chrome "X" complete event, not an instant
  kRemoteFetch,     ///< a: page, b: home shard, c: owner shard,
                    ///< v: total remote wait seconds (hops + service)
  kLockGrant,       ///< a: txn, b: object, c: mode (0 S, 1 X)
  kLockWait,        ///< a: txn, b: object, c: mode, v: wait seconds
  kLockTimeout,     ///< a: txn, b: object, c: mode, v: wait seconds
  kLatchWait,       ///< a: txn, b: page key, v: wait seconds
  kTxnAbort,        ///< a: txn, b: attempt number, c: gave up (0/1)
};

/// Priority class of an evicted frame (kEviction's `b`).
enum class EvictionClass : uint8_t {
  kPlainRecency = 0,  ///< never boosted above the access clock
  kContextBoosted,    ///< held a structural/prefetch boost when evicted
  kLru,
  kRandom,
};

/// One fixed-size recorded event.
struct TraceEvent {
  double sim_time_s = 0;
  double v = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  TraceEventType type = TraceEventType::kTxnBegin;
  Subsystem subsystem = Subsystem::kSim;
};

/// A bounded, lock-free (single-threaded) ring of trace events stamped
/// with the owning simulator's virtual clock. Default-constructed sinks
/// are disabled: Record is a two-compare no-op, cheap enough to leave the
/// call sites unconditional.
class TraceSink {
 public:
  TraceSink() = default;  // disabled
  /// `clock` stamps events with simulated seconds (null stamps 0, for
  /// unit tests); `capacity` > 0 enables the sink.
  TraceSink(const sim::Simulator* clock, size_t capacity);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  bool enabled() const { return capacity_ != 0; }
  size_t capacity() const { return capacity_; }

  void Record(Subsystem subsystem, TraceEventType type, uint64_t a = 0,
              uint64_t b = 0, uint64_t c = 0, double v = 0) {
    RecordAt(clock_ != nullptr ? clock_->now() : 0.0, subsystem, type, a,
             b, c, v);
  }

  /// Record with an explicit simulated timestamp — for events replayed
  /// after the fact, like the span profiler's end-of-run exemplar export
  /// (their historical begin times, not the clock's now, are the ts the
  /// trace viewer must sort them by).
  void RecordAt(double sim_time_s, Subsystem subsystem,
                TraceEventType type, uint64_t a = 0, uint64_t b = 0,
                uint64_t c = 0, double v = 0) {
    if (capacity_ == 0) return;
    TraceEvent& e = ring_[recorded_ % capacity_];
    e.sim_time_s = sim_time_s;
    e.v = v;
    e.a = a;
    e.b = b;
    e.c = c;
    e.type = type;
    e.subsystem = subsystem;
    ++recorded_;
  }

  /// Total Record calls; events beyond `capacity` overwrote the oldest.
  uint64_t recorded() const { return recorded_; }
  /// Events lost to ring overwrite.
  uint64_t dropped() const {
    return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
  }
  /// Retained events, oldest first (unrolls the ring).
  std::vector<TraceEvent> Events() const;

 private:
  const sim::Simulator* clock_ = nullptr;
  size_t capacity_ = 0;
  uint64_t recorded_ = 0;
  std::vector<TraceEvent> ring_;
};

/// Process-global accumulator of per-cell sinks and the Chrome
/// trace_event writer. Thread-safe: cells flush from worker threads.
class TraceCollector {
 public:
  /// The process's collector, which the atexit writer exports. A
  /// collector built directly (tests) starts empty and is exported only
  /// through ChromeTraceJson.
  static TraceCollector& Global();
  TraceCollector() = default;

  /// SEMCLUST_TRACE, or null/empty when tracing is off.
  static const char* PathFromEnv();
  /// SEMCLUST_TRACE_EVENTS, default 4096.
  static size_t RingCapacityFromEnv();

  /// Absorbs one finished cell's events. Repeated flushes for the same
  /// `cell_index` (several batches in one binary) append to that cell's
  /// track. The first call arms an atexit writer targeting PathFromEnv().
  void Collect(int cell_index, const std::string& label,
               const TraceSink& sink);

  /// The full Chrome trace JSON document (one event object per line — the
  /// property tools/trace_summary's line scanner relies on).
  std::string ChromeTraceJson() const;

  /// Writes ChromeTraceJson() to `path`, truncating. False on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct CellTrace {
    std::string label;
    uint64_t dropped = 0;
    std::vector<TraceEvent> events;
  };

  mutable std::mutex mu_;
  std::map<int, CellTrace> cells_;
  bool atexit_armed_ = false;
};

}  // namespace oodb::obs

#endif  // SEMCLUST_OBS_TRACE_SINK_H_
