#include <algorithm>

#include "gtest/gtest.h"
#include "oct/oct_model.h"
#include "oct/oct_tools.h"
#include "oct/trace.h"
#include "oct/trace_analyzer.h"

namespace oodb::oct {
namespace {

// ---------------------------------------------------------------- model

TEST(OctModelTest, CreateIsSimpleWrite) {
  TraceCollector trace;
  OctDataManager dm(&trace);
  trace.BeginSession("t");
  dm.Create(OctType::kNet, 64);
  trace.EndSession(1.0);
  EXPECT_EQ(trace.sessions()[0].simple_writes, 1u);
}

TEST(OctModelTest, AttachIsBidirectionalStructureWrite) {
  TraceCollector trace;
  OctDataManager dm(&trace);
  OctId facet = dm.Create(OctType::kFacet, 128);
  OctId net = dm.Create(OctType::kNet, 64);
  trace.BeginSession("t");
  dm.Attach(facet, net);
  trace.EndSession(1.0);
  EXPECT_EQ(trace.sessions()[0].structure_writes, 1u);
  EXPECT_EQ(dm.Peek(facet).contents, std::vector<OctId>{net});
  EXPECT_EQ(dm.Peek(net).containers, std::vector<OctId>{facet});
}

TEST(OctModelTest, DetachRemovesBothDirections) {
  OctDataManager dm(nullptr);
  OctId facet = dm.Create(OctType::kFacet, 128);
  OctId net = dm.Create(OctType::kNet, 64);
  dm.Attach(facet, net);
  dm.Detach(facet, net);
  EXPECT_TRUE(dm.Peek(facet).contents.empty());
  EXPECT_TRUE(dm.Peek(net).containers.empty());
}

TEST(OctModelTest, ContentsRecordsDownwardFanout) {
  TraceCollector trace;
  OctDataManager dm(&trace);
  OctId net = dm.Create(OctType::kNet, 64);
  for (int i = 0; i < 5; ++i) dm.Attach(net, dm.Create(OctType::kTerm, 32));
  trace.BeginSession("t");
  auto terms = dm.Contents(net);
  trace.EndSession(1.0);
  EXPECT_EQ(terms.size(), 5u);
  ASSERT_EQ(trace.sessions()[0].downward_fanouts.size(), 1u);
  EXPECT_EQ(trace.sessions()[0].downward_fanouts[0], 5u);
  EXPECT_EQ(trace.sessions()[0].structure_reads, 1u);
}

TEST(OctModelTest, TypeFilterNarrowsNavigation) {
  OctDataManager dm(nullptr);
  OctId facet = dm.Create(OctType::kFacet, 128);
  dm.Attach(facet, dm.Create(OctType::kNet, 64));
  dm.Attach(facet, dm.Create(OctType::kInstance, 96));
  dm.Attach(facet, dm.Create(OctType::kNet, 64));
  EXPECT_EQ(dm.Contents(facet, OctType::kNet).size(), 2u);
  EXPECT_EQ(dm.Contents(facet, OctType::kInstance).size(), 1u);
}

TEST(OctModelTest, UpwardNavigationUsuallySingle) {
  OctDataManager dm(nullptr);
  OctId net = dm.Create(OctType::kNet, 64);
  OctId term = dm.Create(OctType::kTerm, 32);
  dm.Attach(net, term);
  EXPECT_EQ(dm.Containers(term).size(), 1u);
}

TEST(OctModelTest, OperationsOutsideSessionNotRecorded) {
  TraceCollector trace;
  OctDataManager dm(&trace);
  dm.Create(OctType::kNet, 64);  // no open session
  EXPECT_TRUE(trace.sessions().empty());
  EXPECT_FALSE(trace.InSession());
}

// ------------------------------------------------------------ workbench

class WorkbenchTest : public ::testing::Test {
 protected:
  static const std::vector<ToolSummary>& Summaries() {
    // The workbench run is shared across tests: it is deterministic and
    // moderately expensive.
    static const std::vector<ToolSummary> summaries = [] {
      OctWorkbench wb(7);
      wb.RunAll(/*invocations_per_tool=*/6);
      return SummarizeByTool(wb.trace().sessions());
    }();
    return summaries;
  }

  static const ToolSummary& Tool(const std::string& name) {
    for (const auto& t : Summaries()) {
      if (t.tool == name) return t;
    }
    ADD_FAILURE() << "missing tool " << name;
    static ToolSummary dummy;
    return dummy;
  }
};

TEST_F(WorkbenchTest, AllTenToolsMeasured) {
  EXPECT_EQ(Summaries().size(), 10u);
  for (const auto& t : Summaries()) {
    EXPECT_EQ(t.invocations, 6u) << t.tool;
    EXPECT_GT(t.total_reads + t.total_writes, 100u) << t.tool;
  }
}

TEST_F(WorkbenchTest, VemHasHighestRatioNear6000) {
  const auto& vem = Tool("vem");
  EXPECT_GT(vem.rw_ratio, 1000);
  for (const auto& t : Summaries()) {
    if (t.tool != "vem") {
      EXPECT_LT(t.rw_ratio, vem.rw_ratio) << t.tool;
    }
  }
}

TEST_F(WorkbenchTest, AtlasIsWriteDominant) {
  const auto& atlas = Tool("atlas");
  EXPECT_LT(atlas.rw_ratio, 1.0);
  EXPECT_NEAR(atlas.rw_ratio, 0.52, 0.25);
}

TEST_F(WorkbenchTest, MosaicoPhasesSpanPaperRange) {
  // Figure 3.2: the macro-cell router phases vary from 0.52 to 170 within
  // one run.
  EXPECT_LT(Tool("atlas").rw_ratio, 1.0);
  EXPECT_NEAR(Tool("cds").rw_ratio, 2.0, 1.0);
  EXPECT_NEAR(Tool("cpre").rw_ratio, 8.0, 3.0);
  EXPECT_NEAR(Tool("mosaico").rw_ratio, 170.0, 50.0);
}

TEST_F(WorkbenchTest, DensityDistributionsSumToOne) {
  for (const auto& t : Summaries()) {
    EXPECT_NEAR(t.density_low + t.density_med + t.density_high, 1.0, 1e-9)
        << t.tool;
  }
}

TEST_F(WorkbenchTest, MostToolsAreLowDensityDominated) {
  // Figure 3.4: except wolfe (and vem, the high-density outlier), tools
  // are dominated by 0-3 fan-outs.
  int low_dominated = 0;
  for (const auto& t : Summaries()) {
    if (t.density_low > 0.5) ++low_dominated;
  }
  EXPECT_GE(low_dominated, 7);
}

TEST_F(WorkbenchTest, VemHasHighestStructureDensity) {
  const auto& vem = Tool("vem");
  for (const auto& t : Summaries()) {
    if (t.tool != "vem") {
      EXPECT_GT(vem.density_high, t.density_high) << t.tool;
    }
  }
}

TEST_F(WorkbenchTest, UpwardAccessesMostlySingleObject) {
  // Paper §3.4: most upward accesses return one object.
  for (const auto& t : Summaries()) {
    if (t.tool == "atlas") continue;  // few upward samples
    EXPECT_GT(t.upward_single_fraction, 0.5) << t.tool;
  }
}

TEST_F(WorkbenchTest, IoRatesArePositiveAndToolDependent) {
  double min_rate = 1e30, max_rate = 0;
  for (const auto& t : Summaries()) {
    EXPECT_GT(t.io_rate, 0) << t.tool;
    min_rate = std::min(min_rate, t.io_rate);
    max_rate = std::max(max_rate, t.io_rate);
  }
  EXPECT_GT(max_rate, 3 * min_rate);  // a real spread, as in Fig 3.3
}

TEST_F(WorkbenchTest, DeterministicAcrossRuns) {
  OctWorkbench a(123), b(123);
  a.RunTool(StandardTools()[1], 2);
  b.RunTool(StandardTools()[1], 2);
  const auto sa = SummarizeByTool(a.trace().sessions());
  const auto sb = SummarizeByTool(b.trace().sessions());
  ASSERT_EQ(sa.size(), sb.size());
  EXPECT_DOUBLE_EQ(sa[0].rw_ratio, sb[0].rw_ratio);
  EXPECT_EQ(sa[0].total_reads, sb[0].total_reads);
}

}  // namespace
}  // namespace oodb::oct
