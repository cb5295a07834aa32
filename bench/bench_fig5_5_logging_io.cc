// Regenerates Figure 5.5: clustering effect on transaction-logging I/Os.
// When related objects share a page, multiple updates within one
// transaction before-image the same page only once, so the log flushes
// less.

#include <cstdio>
#include <sstream>

#include "bench_common.h"

using namespace oodb;

int main() {
  bench::PrintHeader(
      "Figure 5.5", "Clustering effect on transaction-logging I/Os",
      "at R/W 5 (write-heavy enough to matter), clustering produces "
      "fewer physical logging I/Os than No_Clustering at every density, "
      "because co-located updates share before-imaged pages");

  TablePrinter table({"density", "policy", "log-flush I/Os",
                      "before-images", "per logical write"});
  double none_per_write[3] = {0, 0, 0};
  double clustered_per_write[3] = {0, 0, 0};
  int d = 0;
  for (auto density :
       {workload::StructureDensity::kLow3, workload::StructureDensity::kMed5,
        workload::StructureDensity::kHigh10}) {
    for (auto pool : {cluster::CandidatePool::kNoClustering,
                      cluster::CandidatePool::kWithinDb}) {
      workload::WorkloadConfig w;
      w.density = density;
      w.read_write_ratio = 5;
      core::ModelConfig cfg = core::WithWorkload(bench::BaseConfig(), w);
      cfg.clustering.pool = pool;
      const core::RunResult r = core::RunCell(cfg);
      const uint64_t log_flush_ios =
          r.metrics.counter("io.log-write").value_or(0);
      const double per_write =
          static_cast<double>(log_flush_ios) /
          std::max<uint64_t>(1, r.logical_writes);
      table.AddRow({workload::StructureDensityName(density),
                    cluster::CandidatePoolName(pool),
                    std::to_string(log_flush_ios),
                    std::to_string(
                        r.metrics.counter("log.before_images").value_or(0)),
                    FormatDouble(per_write, 4)});
      if (pool == cluster::CandidatePool::kNoClustering) {
        none_per_write[d] = per_write;
      } else {
        clustered_per_write[d] = per_write;
      }
    }
    ++d;
  }
  std::ostringstream os;
  table.Print(os);
  std::fputs(os.str().c_str(), stdout);

  bool fewer_everywhere = true;
  for (int i = 0; i < 3; ++i) {
    if (clustered_per_write[i] > none_per_write[i]) fewer_everywhere = false;
  }
  bench::ShapeCheck(
      "clustering logs no more I/O per write than No_Clustering at every "
      "density",
      fewer_everywhere);
  return 0;
}
