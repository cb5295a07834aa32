#include <sstream>

#include "gtest/gtest.h"
#include "core/bench_report.h"
#include "core/experiment.h"
#include "core/report.h"

namespace oodb::core {
namespace {

RunResult SampleRun() {
  ModelConfig cfg = TestConfig();
  cfg.measured_transactions = 150;
  cfg.warmup_transactions = 20;
  cfg.measurement_epochs = 2;
  return RunCell(cfg);
}

TEST(ReportTest, PrintsAllSections) {
  ModelConfig cfg = TestConfig();
  const RunResult r = SampleRun();
  std::ostringstream os;
  PrintRunReport(os, cfg, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("run report"), std::string::npos);
  EXPECT_NE(out.find("all transactions"), std::string::npos);
  EXPECT_NE(out.find("logical reads"), std::string::npos);
  EXPECT_NE(out.find("buffer hit ratio"), std::string::npos);
  EXPECT_NE(out.find("clustering:"), std::string::npos);
  EXPECT_NE(out.find("epoch 2"), std::string::npos);
}

TEST(BenchReportTest, ZeroSampleRatiosEmitNull) {
  // A RunResult that never ran: no buffer accesses, no reclusterings, no
  // prefetches. Every derived ratio must come out null, not 0/0 or inf.
  RunResult empty;
  const BenchRecord r =
      BenchReport::FromResult("cell", "policy", "workload", empty, 0.0);
  EXPECT_FALSE(r.buffer_hit_ratio.has_value());
  EXPECT_FALSE(r.exam_ios_per_recluster.has_value());
  EXPECT_FALSE(r.prefetch_accuracy.has_value());
  EXPECT_EQ(r.page_splits, 0u);

  const BenchReport report("t");
  const std::string line = report.ToJsonLine(r);
  EXPECT_NE(line.find("\"buffer_hit_ratio\":null"), std::string::npos);
  EXPECT_NE(line.find("\"exam_ios_per_recluster\":null"), std::string::npos);
  EXPECT_NE(line.find("\"prefetch_accuracy\":null"), std::string::npos);
  EXPECT_EQ(line.find("inf"), std::string::npos);
  EXPECT_EQ(line.find("nan"), std::string::npos);
}

TEST(BenchReportTest, RealRunEmbedsMetricsAndRatios) {
  const RunResult r = SampleRun();
  const BenchRecord rec =
      BenchReport::FromResult("cell", "policy", "workload", r, 1.0);
  ASSERT_TRUE(rec.buffer_hit_ratio.has_value());
  EXPECT_GT(*rec.buffer_hit_ratio, 0.0);
  EXPECT_LE(*rec.buffer_hit_ratio, 1.0);
  EXPECT_EQ(rec.hit_ratio, *rec.buffer_hit_ratio);
  EXPECT_EQ(*rec.metrics.counter("core.txns"), r.transactions);
  EXPECT_EQ(rec.io_count, r.total_physical_ios());
  EXPECT_GT(rec.io_count, 0u);
  EXPECT_EQ(rec.page_splits, *rec.metrics.counter("cluster.splits"));
  // Unsharded, cc off: neither figure is reported.
  EXPECT_FALSE(rec.remote_fetch_fraction.has_value());
  const BenchReport report("t");
  const std::string line = report.ToJsonLine(rec);
  EXPECT_NE(line.find("\"metrics\":{\"counters\":{"), std::string::npos);
  EXPECT_NE(line.find("\"core.response_s\""), std::string::npos);
  EXPECT_EQ(line.find("\"cc\":"), std::string::npos);
}

}  // namespace
}  // namespace oodb::core
