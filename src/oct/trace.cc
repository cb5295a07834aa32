#include "oct/trace.h"

#include "util/check.h"

namespace oodb::oct {

void TraceCollector::BeginSession(std::string tool) {
  OODB_CHECK(!open_);
  current_ = SessionTrace{};
  current_.tool = std::move(tool);
  open_ = true;
}

void TraceCollector::EndSession(double session_seconds) {
  OODB_CHECK(open_);
  current_.session_seconds = session_seconds;
  sessions_.push_back(std::move(current_));
  current_ = SessionTrace{};
  open_ = false;
}

void TraceCollector::OnStructureRead(uint32_t fanout, bool downward) {
  if (!open_) return;
  ++current_.structure_reads;
  if (downward) {
    current_.downward_fanouts.push_back(fanout);
  } else {
    current_.upward_fanouts.push_back(fanout);
  }
}

void TraceCollector::OnSimpleRead() {
  if (!open_) return;
  ++current_.simple_reads;
}

void TraceCollector::OnStructureWrite() {
  if (!open_) return;
  ++current_.structure_writes;
}

void TraceCollector::OnSimpleWrite() {
  if (!open_) return;
  ++current_.simple_writes;
}

}  // namespace oodb::oct
