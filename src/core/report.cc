#include "core/report.h"

#include <iomanip>

#include "util/table_printer.h"
#include "workload/query.h"

namespace oodb::core {

namespace {

std::string Ms(double seconds) { return FormatDouble(seconds * 1e3, 2); }

}  // namespace

void PrintRunReport(std::ostream& os, const ModelConfig& config,
                    const RunResult& result) {
  const obs::MetricsSnapshot& m = result.metrics;
  const auto count = [&m](std::string_view name) {
    return std::to_string(m.counter(name).value_or(0));
  };
  const auto percent = [&m](std::string_view gauge) {
    return FormatDouble(m.gauge(gauge).value_or(0.0) * 100, 1);
  };
  os << "== semclust run report ==\n";
  os << "workload " << config.WorkloadLabel() << ", clustering "
     << config.clustering.Label() << ", replacement "
     << buffer::ReplacementPolicyName(config.replacement) << ", prefetch "
     << buffer::PrefetchPolicyName(config.prefetch) << ", "
     << config.buffer_pages << " buffers\n";
  os << "database: " << result.db_objects << " objects on "
     << result.db_pages << " pages; " << result.transactions
     << " measured transactions over "
     << FormatDouble(m.gauge("sim.duration_s").value_or(0.0), 1)
     << " simulated seconds\n\n";
  TablePrinter rt({"response time", "count", "mean (ms)", "max (ms)"});
  rt.AddRow({"all transactions", std::to_string(result.response_time.count()),
             Ms(result.response_time.Mean()), Ms(result.response_time.max())});
  rt.AddRow({"reads", std::to_string(result.read_response.count()),
             Ms(result.read_response.Mean()), Ms(result.read_response.max())});
  rt.AddRow({"writes", std::to_string(result.write_response.count()),
             Ms(result.write_response.Mean()),
             Ms(result.write_response.max())});
  for (int q = 0; q < workload::kNumQueryTypes; ++q) {
    const auto& s = result.response_by_query[static_cast<size_t>(q)];
    if (s.count() == 0) continue;
    rt.AddRow({std::string("  ") +
                   workload::QueryTypeName(static_cast<workload::QueryType>(q)),
               std::to_string(s.count()), Ms(s.Mean()), Ms(s.max())});
  }
  if (result.response_epochs.size() > 1) {
    for (size_t e = 0; e < result.response_epochs.size(); ++e) {
      const auto& s = result.response_epochs[e];
      rt.AddRow({"  epoch " + std::to_string(e + 1),
                 std::to_string(s.count()), Ms(s.Mean()), Ms(s.max())});
    }
  }
  rt.Print(os);

  os << '\n';
  TablePrinter io({"I/O", "count"});
  io.AddRow({"logical reads", std::to_string(result.logical_reads)});
  io.AddRow({"logical writes", std::to_string(result.logical_writes)});
  io.AddRow({"physical data reads", count("io.data-read")});
  io.AddRow({"dirty-page flushes", count("io.dirty-flush")});
  io.AddRow({"log flushes", count("io.log-write")});
  io.AddRow({"cluster exam reads", count("io.cluster-read")});
  io.AddRow({"prefetch reads", count("io.prefetch-read")});
  io.AddRow({"split page writes", count("io.data-write")});
  io.Print(os);

  const std::optional<uint64_t> hits = m.counter("buffer.hits");
  const std::optional<uint64_t> misses = m.counter("buffer.misses");
  const double hit_ratio =
      obs::MetricsSnapshot::Ratio(hits, hits.value_or(0) + misses.value_or(0))
          .value_or(0.0);
  os << '\n'
     << "buffer hit ratio " << FormatDouble(hit_ratio * 100, 1)
     << "%, achieved R/W " << FormatDouble(result.achieved_rw_ratio, 1)
     << ", disk utilisation " << percent("io.mean_disk_utilization")
     << "%, CPU utilisation " << percent("cpu.utilization") << "%\n";
  os << "clustering: " << count("cluster.placements") << " placements, "
     << count("cluster.relocations") << " relocations, "
     << count("cluster.splits") << " splits, " << count("log.before_images")
     << " log before-images\n";
}

}  // namespace oodb::core
