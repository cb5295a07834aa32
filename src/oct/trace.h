#ifndef SEMCLUST_OCT_TRACE_H_
#define SEMCLUST_OCT_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// OCT instrumentation (paper §3.2). For each tool invocation we record:
/// the tool identifier, structure/simple read and write counts, the
/// session time (octBegin .. octEnd), and the fan-out of upward and
/// downward structural accesses.

namespace oodb::oct {

/// One recorded tool invocation.
struct SessionTrace {
  std::string tool;
  uint64_t structure_reads = 0;
  uint64_t structure_writes = 0;
  uint64_t simple_reads = 0;
  uint64_t simple_writes = 0;
  /// Synthetic session duration in seconds (computation + I/O time).
  double session_seconds = 0;
  /// Fan-outs observed on downward structural accesses.
  std::vector<uint32_t> downward_fanouts;
  /// Fan-outs observed on upward structural accesses.
  std::vector<uint32_t> upward_fanouts;

  uint64_t TotalReads() const { return structure_reads + simple_reads; }
  uint64_t TotalWrites() const { return structure_writes + simple_writes; }
  uint64_t TotalOps() const { return TotalReads() + TotalWrites(); }
};

/// Collects traces across many tool invocations.
class TraceCollector {
 public:
  /// Starts a session (octBegin). Only one session may be open.
  void BeginSession(std::string tool);

  /// Ends the session (octEnd), recording its duration.
  void EndSession(double session_seconds);

  // Recording hooks used by the data manager.
  void OnStructureRead(uint32_t fanout, bool downward);
  void OnSimpleRead();
  void OnStructureWrite();
  void OnSimpleWrite();

  bool InSession() const { return open_; }
  const std::vector<SessionTrace>& sessions() const { return sessions_; }

 private:
  bool open_ = false;
  SessionTrace current_;
  std::vector<SessionTrace> sessions_;
};

}  // namespace oodb::oct

#endif  // SEMCLUST_OCT_TRACE_H_
