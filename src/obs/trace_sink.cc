#include "obs/trace_sink.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/span_profiler.h"
#include "util/json_writer.h"

namespace oodb::obs {

namespace {

/// Display name plus the exported arg-key names for one event type.
struct EventMeta {
  const char* name;
  const char* a;  // null: omit the arg
  const char* b;
  const char* c;
  const char* v;
};

const EventMeta& MetaOf(TraceEventType t) {
  static const EventMeta kMeta[] = {
      {"txn-begin", "txn", "query", nullptr, nullptr},
      {"txn-end", "txn", "query", nullptr, "response_s"},
      {"page-read", "page", "cat", "disk", nullptr},
      {"page-write", "page", "cat", "disk", nullptr},
      {"page-split", "page", "moved", "steps", "broken_cost"},
      {"recluster", "candidates", "exam_ios", "relocated", nullptr},
      {"prefetch-issue", "page", nullptr, nullptr, nullptr},
      {"prefetch-hit", "page", nullptr, nullptr, nullptr},
      {"prefetch-waste", "page", nullptr, nullptr, nullptr},
      {"prefetch-group", "kind", "pages", nullptr, nullptr},
      {"log-flush", "bytes", "records", nullptr, nullptr},
      {"evict", "page", "class", "dirty", "priority"},
      {"dyn-trigger", "units", "tracked", "pending", "queue_depth"},
      {"dyn-reorg", "anchor", "moved", "pages", "heat"},
      {"span", "txn", "code", "query", "dur_s"},
      {"remote-fetch", "page", "home", "owner", "wait_s"},
      {"lock-grant", "txn", "object", "mode", nullptr},
      {"lock-wait", "txn", "object", "mode", "wait_s"},
      {"lock-timeout", "txn", "object", "mode", "wait_s"},
      {"latch-wait", "txn", "page", nullptr, "wait_s"},
      {"txn-abort", "txn", "attempt", "gave_up", nullptr},
  };
  return kMeta[static_cast<size_t>(t)];
}

/// One metadata record ("M" phase) naming a process or thread.
std::string MetadataLine(const char* what, int pid, int tid,
                         std::string_view name) {
  JsonObjectWriter args;
  args.Add("name", name);
  JsonObjectWriter line;
  line.Add("name", what).Add("ph", "M").Add("pid", pid).Add("tid", tid);
  line.AddRaw("args", args.str());
  return line.str();
}

}  // namespace

const char* SubsystemName(Subsystem s) {
  switch (s) {
    case Subsystem::kSim:
      return "sim";
    case Subsystem::kCore:
      return "core";
    case Subsystem::kBuffer:
      return "buffer";
    case Subsystem::kCluster:
      return "cluster";
    case Subsystem::kIo:
      return "io";
    case Subsystem::kTxlog:
      return "txlog";
    case Subsystem::kSpans:
      return "spans";
  }
  return "unknown";
}

TraceSink::TraceSink(const sim::Simulator* clock, size_t capacity)
    : clock_(clock), capacity_(capacity) {
  ring_.resize(capacity_);
}

std::vector<TraceEvent> TraceSink::Events() const {
  std::vector<TraceEvent> out;
  if (capacity_ == 0 || recorded_ == 0) return out;
  const uint64_t n = recorded_ < capacity_ ? recorded_ : capacity_;
  out.reserve(static_cast<size_t>(n));
  // Oldest retained event first. Before wraparound that is slot 0; after,
  // the slot the next Record would overwrite.
  const uint64_t start = recorded_ < capacity_ ? 0 : recorded_ % capacity_;
  for (uint64_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

TraceCollector& TraceCollector::Global() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

const char* TraceCollector::PathFromEnv() {
  const char* path = std::getenv("SEMCLUST_TRACE");
  return (path != nullptr && path[0] != '\0') ? path : nullptr;
}

size_t TraceCollector::RingCapacityFromEnv() {
  if (const char* env = std::getenv("SEMCLUST_TRACE_EVENTS")) {
    const long long v = std::strtoll(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 4096;
}

namespace {
void WriteTraceAtExit() {
  const char* path = TraceCollector::PathFromEnv();
  if (path == nullptr) return;
  if (!TraceCollector::Global().WriteChromeTrace(path)) {
    std::fprintf(stderr, "[obs] SEMCLUST_TRACE=%s is not writable\n", path);
  }
}
}  // namespace

void TraceCollector::Collect(int cell_index, const std::string& label,
                             const TraceSink& sink) {
  if (!sink.enabled()) return;
  std::vector<TraceEvent> events = sink.Events();
  std::lock_guard<std::mutex> lock(mu_);
  CellTrace& cell = cells_[cell_index];
  if (cell.label.empty()) cell.label = label;
  cell.dropped += sink.dropped();
  cell.events.insert(cell.events.end(), events.begin(), events.end());
  if (!atexit_armed_ && PathFromEnv() != nullptr) {
    atexit_armed_ = true;
    std::atexit(WriteTraceAtExit);
  }
}

std::string TraceCollector::ChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&out, &first](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };

  for (const auto& [pid, cell] : cells_) {
    emit(MetadataLine("process_name", pid, 0,
                      cell.label.empty() ? "cell-" + std::to_string(pid)
                                         : cell.label));
    bool used[kNumSubsystems] = {};
    for (const TraceEvent& e : cell.events) {
      used[static_cast<size_t>(e.subsystem)] = true;
    }
    for (int t = 0; t < kNumSubsystems; ++t) {
      if (used[t]) {
        emit(MetadataLine("thread_name", pid, t,
                          SubsystemName(static_cast<Subsystem>(t))));
      }
    }
    if (cell.dropped > 0) {
      // Non-standard metadata record; viewers ignore it, trace_summary
      // reports it as lost-event accounting.
      JsonObjectWriter args;
      args.Add("dropped", cell.dropped);
      JsonObjectWriter line;
      line.Add("name", "semclust_ring_dropped")
          .Add("ph", "M")
          .Add("pid", pid)
          .Add("tid", 0)
          .AddRaw("args", args.str());
      emit(line.str());
    }
    for (const TraceEvent& e : cell.events) {
      const EventMeta& meta = MetaOf(e.type);
      if (e.type == TraceEventType::kSpan) {
        // Span-tree nodes are "X" complete events: ts is the node's
        // begin, dur its length, and the name is the phase or scope
        // label itself, so viewers nest them into flame graphs.
        JsonObjectWriter args;
        args.Add("txn", e.a).Add("query", e.c);
        JsonObjectWriter line;
        line.Add("name", SpanCodeName(e.b))
            .Add("cat", SubsystemName(e.subsystem))
            .Add("ph", "X")
            .Add("ts", e.sim_time_s * 1e6)  // simulated microseconds
            .Add("dur", e.v * 1e6)
            .Add("pid", pid)
            .Add("tid", static_cast<int>(e.subsystem))
            .AddRaw("args", args.str());
        emit(line.str());
        continue;
      }
      JsonObjectWriter args;
      if (meta.a != nullptr) args.Add(meta.a, e.a);
      if (meta.b != nullptr) args.Add(meta.b, e.b);
      if (meta.c != nullptr) args.Add(meta.c, e.c);
      if (meta.v != nullptr) args.Add(meta.v, e.v);
      JsonObjectWriter line;
      line.Add("name", meta.name)
          .Add("cat", SubsystemName(e.subsystem))
          .Add("ph", "i")
          .Add("s", "t")
          .Add("ts", e.sim_time_s * 1e6)  // simulated microseconds
          .Add("pid", pid)
          .Add("tid", static_cast<int>(e.subsystem))
          .AddRaw("args", args.str());
      emit(line.str());
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\",";
  out += "\"otherData\":{\"source\":\"semclust-obs\",";
  out += "\"clock\":\"simulated\"}}\n";
  return out;
}

bool TraceCollector::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << ChromeTraceJson();
  return static_cast<bool>(out);
}

}  // namespace oodb::obs
