#ifndef SEMCLUST_CORE_REPORT_H_
#define SEMCLUST_CORE_REPORT_H_

#include <ostream>

#include "core/engineering_db.h"

/// \file
/// Human-readable rendering of simulation results, shared by examples and
/// downstream users of the library.

namespace oodb::core {

/// Prints a full multi-section report of one run: response times (overall,
/// read/write, per query type, per epoch when more than one), the logical
/// and physical I/O budget, buffer and log statistics, and the clustering
/// activity counters.
void PrintRunReport(std::ostream& os, const ModelConfig& config,
                    const RunResult& result);

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_REPORT_H_
