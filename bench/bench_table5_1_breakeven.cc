// Regenerates Table 5.1: the read/write-ratio break-even points at which
// No_Clustering matches clustering without I/O limitation, per structure
// density. The paper reports 3.0 / 3.6 / 4.3 for low / med / high.

#include <cstdio>
#include <sstream>
#include <vector>

#include "bench_common.h"

using namespace oodb;

namespace {

// Mean response of one (density, rw, policy) cell.
double Cell(workload::StructureDensity density, double rw,
            cluster::CandidatePool pool) {
  workload::WorkloadConfig w;
  w.density = density;
  w.read_write_ratio = rw;
  core::ModelConfig cfg = core::WithWorkload(bench::BaseConfig(), w);
  cfg.clustering.pool = pool;
  return bench::MeanResponse(cfg);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Table 5.1", "Read/write-ratio break-even points",
      "the ratio at which clustering starts to pay off grows with "
      "structure density (paper: 3.0 / 3.6 / 4.3), because denser "
      "structures mean more writer I/O during the clustering phase");

  const std::vector<double> ratios = bench::FastMode()
                                         ? std::vector<double>{1, 3, 6}
                                         : std::vector<double>{0.5, 1, 2,
                                                               3, 4, 6, 8};
  const workload::StructureDensity densities[] = {
      workload::StructureDensity::kLow3, workload::StructureDensity::kMed5,
      workload::StructureDensity::kHigh10};

  TablePrinter table({"density", "R/W", "No_Clustering", "No_limit",
                      "clustering wins?"});
  std::vector<double> breakevens;
  bool wins_from_5 = true;  // every density, every tested ratio >= 5
  for (auto density : densities) {
    double breakeven = ratios.front();
    bool crossed = false;
    double prev_rw = 0, prev_diff = 0;
    for (double rw : ratios) {
      const double none = Cell(density, rw, cluster::CandidatePool::kNoClustering);
      const double clustered = Cell(density, rw, cluster::CandidatePool::kWithinDb);
      const double diff = none - clustered;
      table.AddRow({workload::StructureDensityName(density),
                    FormatDouble(rw, 1), bench::Sec(none),
                    bench::Sec(clustered), diff > 0 ? "yes" : "no"});
      if (rw >= 5 && !(diff > 0)) wins_from_5 = false;
      if (!crossed && diff > 0) {
        // Linear interpolation of the crossing between prev_rw and rw.
        if (prev_rw > 0 && prev_diff < 0) {
          breakeven = prev_rw + (rw - prev_rw) * (-prev_diff) /
                                    (diff - prev_diff);
        } else {
          breakeven = rw;
        }
        crossed = true;
      }
      prev_rw = rw;
      prev_diff = diff;
    }
    breakevens.push_back(crossed ? breakeven : -1);
  }
  std::ostringstream os;
  table.Print(os);
  std::fputs(os.str().c_str(), stdout);

  std::printf("\nEstimated break-even R/W ratios (paper: 3.0, 3.6, 4.3):\n");
  const char* names[] = {"low-3", "med-5", "high-10"};
  for (size_t i = 0; i < breakevens.size(); ++i) {
    if (breakevens[i] < 0) {
      std::printf("  %-8s: clustering already wins at the lowest tested "
                  "ratio\n", names[i]);
    } else {
      std::printf("  %-8s: %.1f\n", names[i], breakevens[i]);
    }
  }
  bench::ShapeCheck("clustering wins at every density once R/W >= 5",
                    wins_from_5);
  return 0;
}
