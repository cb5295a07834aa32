#include "gtest/gtest.h"

#include "buffer/buffer_pool.h"
#include "cluster/affinity.h"
#include "cluster/cluster_manager.h"
#include "core/engineering_db.h"
#include "core/experiment.h"
#include "core/model_config.h"
#include "core/scenario.h"
#include "exec/experiment_runner.h"
#include "objmodel/object_graph.h"
#include "objmodel/type_system.h"
#include "ocb/ocb_builder.h"
#include "ocb/ocb_config.h"
#include "storage/storage_manager.h"

namespace oodb {
namespace {

ocb::OcbConfig SmallOcb() {
  ocb::OcbConfig cfg;
  cfg.enabled = true;
  cfg.classes = 8;
  cfg.hierarchy_depth = 3;
  cfg.instances = 600;
  cfg.refs_per_object = 3;
  cfg.partitions = 6;
  cfg.set_lookup_size = 4;
  cfg.traversal_depth = 2;
  return cfg;
}

// --------------------------------------------------------------- config

TEST(OcbConfigTest, DisabledConfigAlwaysValidates) {
  ocb::OcbConfig cfg;
  cfg.enabled = false;
  cfg.classes = -5;  // nonsense is fine while disabled
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(OcbConfigTest, ValidateNamesTheOffendingKnob) {
  const auto expect_error = [](ocb::OcbConfig cfg, const char* needle) {
    const Status s = cfg.Validate();
    ASSERT_FALSE(s.ok()) << needle;
    EXPECT_NE(s.message().find(needle), std::string::npos) << s.ToString();
  };
  ocb::OcbConfig bad = SmallOcb();
  bad.classes = 1;
  expect_error(bad, "classes");
  bad = SmallOcb();
  bad.instances = 4;  // fewer than classes
  expect_error(bad, "instances");
  bad = SmallOcb();
  bad.zipf_theta = 1.5;
  expect_error(bad, "zipf_theta");
  bad = SmallOcb();
  bad.partitions = 0;
  expect_error(bad, "partitions");
  bad = SmallOcb();
  bad.read_mix = {0, 0, 0, 0};
  expect_error(bad, "read_mix");
}

TEST(OcbConfigTest, LabelEncodesLocalityRefsAndRatio) {
  ocb::OcbConfig cfg = SmallOcb();
  cfg.locality = ocb::RefLocality::kUniform;
  EXPECT_EQ(cfg.Label(10), "ocb-uni3-10");
  cfg.locality = ocb::RefLocality::kZipf;
  EXPECT_EQ(cfg.Label(100), "ocb-zipf3-100");
  cfg.locality = ocb::RefLocality::kGaussian;
  cfg.refs_per_object = 5;
  EXPECT_EQ(cfg.Label(2.5), "ocb-gauss5-2.5");
}

// -------------------------------------------------------------- builder

/// A minimal standalone stack for driving the builder outside the model.
struct BuilderStack {
  explicit BuilderStack(const ocb::OcbConfig& cfg)
      : graph(&lattice),
        storage(4096, 0.8),
        buffer(64, buffer::ReplacementPolicy::kLru, 1),
        affinity(&lattice),
        cluster(&graph, &storage, &affinity, &buffer, cluster::ClusterConfig{}),
        builder(&graph, &cluster, &buffer, cfg) {}

  obj::TypeLattice lattice;
  obj::ObjectGraph graph;
  store::StorageManager storage;
  buffer::BufferPool buffer;
  cluster::AffinityModel affinity;
  cluster::ClusterManager cluster;
  ocb::OcbBuilder builder;
};

TEST(OcbBuilderTest, SchemaIsOneTreeWithinDepthBound) {
  obj::TypeLattice lattice;
  const ocb::OcbConfig cfg = SmallOcb();
  const ocb::OcbSchema schema = ocb::RegisterOcbClasses(lattice, cfg, 11);
  ASSERT_EQ(schema.classes.size(), static_cast<size_t>(cfg.classes));
  EXPECT_EQ(schema.super_of[0], -1);
  EXPECT_EQ(schema.level_of[0], 0);
  for (int k = 1; k < cfg.classes; ++k) {
    ASSERT_GE(schema.super_of[k], 0);
    EXPECT_LT(schema.super_of[k], k);  // supers precede their subclasses
    EXPECT_EQ(schema.level_of[k], schema.level_of[schema.super_of[k]] + 1);
    EXPECT_LT(schema.level_of[k], cfg.hierarchy_depth);
  }
}

TEST(OcbBuilderTest, SameSeedSameDigestDifferentSeedDiffers) {
  const ocb::OcbConfig cfg = SmallOcb();
  uint64_t digest[3];
  const uint64_t seeds[] = {5, 5, 6};
  for (int i = 0; i < 3; ++i) {
    BuilderStack stack(cfg);
    const ocb::OcbSchema schema =
        ocb::RegisterOcbClasses(stack.lattice, cfg, seeds[i] ^ 0x0CB0CB);
    stack.builder.Build(schema, seeds[i]);
    digest[i] = ocb::GraphDigest(stack.graph);
  }
  EXPECT_EQ(digest[0], digest[1]);
  EXPECT_NE(digest[0], digest[2]);
}

TEST(OcbBuilderTest, CatalogCoversEveryClassAndPartition) {
  const ocb::OcbConfig cfg = SmallOcb();
  BuilderStack stack(cfg);
  const ocb::OcbSchema schema =
      ocb::RegisterOcbClasses(stack.lattice, cfg, 3);
  const ocb::OcbCatalog catalog = stack.builder.Build(schema, 3);

  ASSERT_EQ(catalog.extents.size(), static_cast<size_t>(cfg.classes));
  size_t total = 0;
  for (const auto& extent : catalog.extents) {
    EXPECT_FALSE(extent.empty());  // every class has at least one instance
    total += extent.size();
  }
  EXPECT_EQ(total, static_cast<size_t>(cfg.instances));

  ASSERT_EQ(catalog.db.modules.size(), static_cast<size_t>(cfg.partitions));
  size_t objects = 0;
  for (const auto& m : catalog.db.modules) {
    EXPECT_FALSE(m.objects.empty());
    objects += m.objects.size();
  }
  EXPECT_EQ(objects, static_cast<size_t>(cfg.instances));
  EXPECT_GT(stack.builder.bytes_created(), 0u);
}

TEST(OcbBuilderTest, LocalityChangesTheGraph) {
  uint64_t digests[2];
  const ocb::RefLocality locs[] = {ocb::RefLocality::kUniform,
                                   ocb::RefLocality::kZipf};
  for (int i = 0; i < 2; ++i) {
    ocb::OcbConfig cfg = SmallOcb();
    cfg.locality = locs[i];
    BuilderStack stack(cfg);
    const ocb::OcbSchema schema =
        ocb::RegisterOcbClasses(stack.lattice, cfg, 3);
    stack.builder.Build(schema, 3);
    digests[i] = ocb::GraphDigest(stack.graph);
  }
  EXPECT_NE(digests[0], digests[1]);
}

// ------------------------------------------------------------ full model

core::ModelConfig OcbModelConfig() {
  core::ModelConfig cfg = core::TestConfig();
  cfg.ocb = SmallOcb();
  cfg.measured_transactions = 250;
  cfg.warmup_transactions = 40;
  return cfg;
}

TEST(OcbModelTest, EndToEndRunCompletesAndCounts) {
  const core::ModelConfig cfg = OcbModelConfig();
  const core::RunResult r = core::RunCell(cfg);
  EXPECT_EQ(r.transactions,
            static_cast<uint64_t>(cfg.measured_transactions));
  EXPECT_GT(r.response_time.Mean(), 0.0);
  EXPECT_GT(r.logical_reads, 0u);
  EXPECT_GT(r.logical_writes, 0u);
  // The measured run's inserts grow the database past the generated graph.
  EXPECT_GE(r.db_objects, static_cast<uint64_t>(cfg.ocb.instances));
}

TEST(OcbModelTest, DeterministicForEqualSeedsDifferentSeedsDiffer) {
  core::ModelConfig cfg = OcbModelConfig();
  const core::RunResult a = core::RunCell(cfg);
  const core::RunResult b = core::RunCell(cfg);
  EXPECT_DOUBLE_EQ(a.response_time.Mean(), b.response_time.Mean());
  EXPECT_EQ(a.logical_reads, b.logical_reads);
  EXPECT_EQ(a.metrics.counter("io.data-read"),
            b.metrics.counter("io.data-read"));
  cfg.seed = 999;
  const core::RunResult c = core::RunCell(cfg);
  EXPECT_NE(a.logical_reads, c.logical_reads);
}

TEST(OcbModelTest, RatioControllerTracksTarget) {
  core::ModelConfig cfg = OcbModelConfig();
  cfg.measured_transactions = 600;
  cfg.workload.read_write_ratio = 10.0;
  const core::RunResult r = core::RunCell(cfg);
  EXPECT_NEAR(r.achieved_rw_ratio, 10.0, 10.0 * 0.35);
}

TEST(OcbExecTest, ParallelRunnerBitIdenticalToSerial) {
  std::vector<core::ModelConfig> cells;
  for (const ocb::RefLocality loc :
       {ocb::RefLocality::kUniform, ocb::RefLocality::kZipf}) {
    core::ModelConfig cfg = OcbModelConfig();
    cfg.ocb.locality = loc;
    cells.push_back(cfg);
  }
  const auto serial = exec::ExperimentRunner(1).Run(cells);
  const auto parallel = exec::ExperimentRunner(4).Run(cells);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].result.response_time.Mean(),
                     parallel[i].result.response_time.Mean());
    EXPECT_EQ(serial[i].result.logical_reads,
              parallel[i].result.logical_reads);
    EXPECT_EQ(serial[i].result.total_physical_ios(),
              parallel[i].result.total_physical_ios());
  }
}

// -------------------------------------------------------------- scenario

TEST(OcbScenarioTest, OcbWorkloadRoundTripsAndExpands) {
  const auto first = core::ParseScenario(R"json({
    "name": "ocb_roundtrip",
    "config": {
      "buffer_pages": 64,
      "warmup_transactions": 10,
      "measured_transactions": 50,
      "seed": 3,
      "workload": {"kind": "ocb", "rw_ratio": 10, "classes": 8,
                   "hierarchy_depth": 3, "instances": 600,
                   "refs_per_object": 3, "locality": "zipfian",
                   "zipf_theta": 0.7, "partitions": 6,
                   "set_lookup_size": 4, "traversal_depth": 2}
    },
    "sweep": {
      "clustering": ["No_Clustering", "No_limit"],
      "workload": [{"kind": "ocb", "locality": "uni"},
                   {"kind": "ocb", "locality": "zipf", "rw_ratio": 100}]
    }
  })json");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->base.ocb.enabled);
  EXPECT_EQ(first->base.ocb.locality, ocb::RefLocality::kZipf);  // alias
  EXPECT_DOUBLE_EQ(first->base.ocb.zipf_theta, 0.7);

  // ToJson/ParseScenario round trip is stable.
  const std::string json = first->ToJson();
  const auto second = core::ParseScenario(json);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(json, second->ToJson());

  // Sweep entries inherit the base OCB knobs and only override what they
  // name; labels come from OcbConfig::Label.
  const auto cells = first->Expand();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].workload, "ocb-uni3-10");
  EXPECT_EQ(cells[1].workload, "ocb-zipf3-100");
  EXPECT_EQ(cells[0].cell_label, "No_Clustering/ocb-uni3-10");
  EXPECT_EQ(cells[3].cell_label, "No_limit/ocb-zipf3-100");
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.config.ocb.enabled);
    EXPECT_EQ(cell.config.ocb.instances, 600);  // inherited from base
  }
  EXPECT_DOUBLE_EQ(cells[1].config.workload.read_write_ratio, 100.0);
}

TEST(OcbScenarioTest, OctWorkloadsAreUntouchedByOcbSupport) {
  // A scenario with no OCB keys expands with ocb disabled everywhere —
  // the pre-OCB behaviour byte for byte.
  const auto spec = core::ParseScenario(R"json({
    "name": "plain",
    "config": {"workload": {"density": "hi10", "rw_ratio": 10}}
  })json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto cells = spec->Expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_FALSE(cells[0].config.ocb.enabled);
  EXPECT_EQ(cells[0].workload, "hi10-10");
}

}  // namespace
}  // namespace oodb
