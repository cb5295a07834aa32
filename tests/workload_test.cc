#include <algorithm>
#include <set>

#include "gtest/gtest.h"
#include "workload/db_builder.h"
#include "workload/query.h"
#include "workload/workload_config.h"
#include "workload/workload_gen.h"

namespace oodb::workload {
namespace {

// ------------------------------------------------------------- config

TEST(WorkloadConfigTest, LabelsMatchPaperStyle) {
  WorkloadConfig w;
  w.density = StructureDensity::kHigh10;
  w.read_write_ratio = 100;
  EXPECT_EQ(w.Label(), "hi10-100");
  w.density = StructureDensity::kLow3;
  w.read_write_ratio = 5;
  EXPECT_EQ(w.Label(), "low3-5");
}

TEST(WorkloadConfigTest, FanoutRangesMatchPaperBuckets) {
  EXPECT_LE(FanoutFor(StructureDensity::kLow3).max_fanout, 3);
  EXPECT_GE(FanoutFor(StructureDensity::kMed5).min_fanout, 4);
  EXPECT_LE(FanoutFor(StructureDensity::kMed5).max_fanout, 9);
  EXPECT_GE(FanoutFor(StructureDensity::kHigh10).min_fanout, 10);
}

// ------------------------------------------------------------- builder

class DbBuilderTest : public ::testing::Test {
 protected:
  // Types are registered before affinity_ is built: AffinityModel sizes
  // its type-state table eagerly from the lattice at construction.
  DbBuilderTest()
      : graph_(&lattice_),
        storage_(4096),
        types_(RegisterCadTypes(lattice_)),
        affinity_(&lattice_) {}

  DesignDatabase BuildWith(cluster::CandidatePool pool, DatabaseSpec spec) {
    cluster::ClusterConfig config;
    config.pool = pool;
    config.split = cluster::SplitPolicy::kLinearGreedy;
    cluster_ = std::make_unique<cluster::ClusterManager>(
        &graph_, &storage_, &affinity_, nullptr, config);
    DbBuilder builder(&graph_, cluster_.get(), nullptr, spec);
    return builder.Build(types_);
  }

  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager storage_;
  CadTypes types_{};
  cluster::AffinityModel affinity_;
  std::unique_ptr<cluster::ClusterManager> cluster_;
};

TEST_F(DbBuilderTest, ReachesTargetSize) {
  DatabaseSpec spec;
  spec.target_bytes = 1 << 20;
  auto db = BuildWith(cluster::CandidatePool::kNoClustering, spec);
  EXPECT_GE(storage_.used_bytes(), spec.target_bytes);
  EXPECT_GT(db.modules.size(), 5u);
  EXPECT_EQ(db.TotalObjects(), graph_.live_count());
}

TEST_F(DbBuilderTest, EveryObjectIsPlaced) {
  DatabaseSpec spec;
  spec.target_bytes = 256 << 10;
  auto db = BuildWith(cluster::CandidatePool::kWithinDb, spec);
  for (const auto& m : db.modules) {
    for (obj::ObjectId id : m.objects) {
      EXPECT_TRUE(storage_.IsPlaced(id));
      EXPECT_TRUE(graph_.IsLive(id));
    }
  }
}

TEST_F(DbBuilderTest, ModulesHaveStructure) {
  DatabaseSpec spec;
  spec.target_bytes = 512 << 10;
  auto db = BuildWith(cluster::CandidatePool::kNoClustering, spec);
  size_t with_versions = 0, with_corr = 0;
  for (const auto& m : db.modules) {
    EXPECT_NE(m.root, obj::kInvalidObject);
    EXPECT_FALSE(m.objects.empty());
    EXPECT_FALSE(m.composites.empty());
    with_versions += !m.versioned.empty();
    with_corr += !m.corresponding.empty();
  }
  // Version chains and correspondences are probabilistic but must appear
  // in a substantial share of modules.
  EXPECT_GT(with_versions, db.modules.size() / 4);
  EXPECT_GT(with_corr, db.modules.size() / 2);
}

TEST_F(DbBuilderTest, FanoutTracksDensity) {
  DatabaseSpec spec;
  spec.target_bytes = 512 << 10;
  spec.density = StructureDensity::kHigh10;
  auto db = BuildWith(cluster::CandidatePool::kNoClustering, spec);
  // Sample composites of the primary representation: their configuration
  // fan-out must be >= 10 (high density).
  int checked = 0;
  for (const auto& m : db.modules) {
    const auto comps = graph_.Components(m.root);
    if (comps.empty()) continue;
    EXPECT_GE(comps.size(), 10u);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(DbBuilderTest, CorrespondencesLinkRepresentations) {
  DatabaseSpec spec;
  spec.target_bytes = 256 << 10;
  auto db = BuildWith(cluster::CandidatePool::kNoClustering, spec);
  bool found = false;
  for (const auto& m : db.modules) {
    for (obj::ObjectId id : m.corresponding) {
      if (!graph_.IsLive(id)) continue;
      if (!graph_.Correspondents(id).empty()) {
        found = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(DbBuilderTest, VersionDerivationUsedInheritance) {
  DatabaseSpec spec;
  spec.target_bytes = 512 << 10;
  spec.version_fraction = 0.5;
  auto db = BuildWith(cluster::CandidatePool::kNoClustering, spec);
  // Some derived heirs must carry instance-inheritance links (geometry is
  // by-reference under the default cost model).
  bool heir_with_link = false;
  for (const auto& m : db.modules) {
    for (obj::ObjectId id : m.versioned) {
      if (graph_.IsLive(id) && !graph_.InheritanceSources(id).empty()) {
        heir_with_link = true;
        break;
      }
    }
  }
  EXPECT_TRUE(heir_with_link);
}

TEST_F(DbBuilderTest, ArrivalOrderScattersModulesAcrossPages) {
  DatabaseSpec spec;
  spec.target_bytes = 512 << 10;
  spec.concurrent_streams = 10;
  auto db = BuildWith(cluster::CandidatePool::kNoClustering, spec);
  // Unclustered: a module's objects share pages with other modules.
  double scattered_modules = 0;
  for (const auto& m : db.modules) {
    std::set<store::PageId> pages;
    for (obj::ObjectId id : m.objects) pages.insert(storage_.PageOf(id));
    // Perfect clustering would need about bytes/page_size pages; arrival
    // order with 10 interleaved streams needs several times more.
    uint64_t bytes = 0;
    for (obj::ObjectId id : m.objects) bytes += storage_.SizeOf(id);
    const double ideal =
        std::max(1.0, static_cast<double>(bytes) / 4096.0);
    if (static_cast<double>(pages.size()) > 2.5 * ideal) {
      scattered_modules += 1;
    }
  }
  EXPECT_GT(scattered_modules, db.modules.size() * 0.5);
}

TEST_F(DbBuilderTest, ClusteringKeepsModulesDense) {
  DatabaseSpec spec;
  spec.target_bytes = 512 << 10;
  spec.concurrent_streams = 10;

  auto pages_per_module = [&](cluster::CandidatePool pool) {
    // Fresh state per run.
    obj::ObjectGraph graph(&lattice_);
    store::StorageManager storage(4096);
    cluster::AffinityModel affinity(&lattice_);
    cluster::ClusterConfig config;
    config.pool = pool;
    config.split = cluster::SplitPolicy::kLinearGreedy;
    cluster::ClusterManager mgr(&graph, &storage, &affinity, nullptr,
                                config);
    DbBuilder builder(&graph, &mgr, nullptr, spec);
    auto db = builder.Build(types_);
    double total = 0;
    for (const auto& m : db.modules) {
      std::set<store::PageId> pages;
      for (obj::ObjectId id : m.objects) pages.insert(storage.PageOf(id));
      uint64_t bytes = 0;
      for (obj::ObjectId id : m.objects) bytes += storage.SizeOf(id);
      total += static_cast<double>(pages.size()) /
               std::max(1.0, static_cast<double>(bytes) / 4096.0);
    }
    return total / static_cast<double>(db.modules.size());
  };

  const double unclustered =
      pages_per_module(cluster::CandidatePool::kNoClustering);
  const double clustered =
      pages_per_module(cluster::CandidatePool::kWithinDb);
  EXPECT_LT(clustered, unclustered * 0.55);
}

// Oracle for the plan-sized edge runs: the builder carves each object's run
// with the degree its module plan predicts, so after the build every run is
// exactly full. A degree rule that misses an edge leaves a run that grew by
// doubling (capacity above count); one that overcounts leaves slack.
TEST_F(DbBuilderTest, PlannedDegreesMatchBuiltEdgeCounts) {
  for (const StructureDensity density : kAllStructureDensities) {
    for (const int alts : {0, 1, 2}) {
      for (const double versions : {0.0, 0.12, 0.9}) {
        for (const cluster::CandidatePool pool :
             {cluster::CandidatePool::kNoClustering,
              cluster::CandidatePool::kWithinDb}) {
          SCOPED_TRACE(testing::Message()
                       << StructureDensityName(density) << " alts=" << alts
                       << " versions=" << versions << " "
                       << cluster::CandidatePoolName(pool));
          obj::ObjectGraph graph(&lattice_);
          store::StorageManager storage(4096);
          cluster::ClusterConfig config;
          config.pool = pool;
          cluster::ClusterManager mgr(&graph, &storage, &affinity_, nullptr,
                                      config);
          DatabaseSpec spec;
          spec.target_bytes = 256 << 10;
          spec.density = density;
          spec.alt_representations = alts;
          spec.version_fraction = versions;
          DbBuilder(&graph, &mgr, nullptr, spec).Build(types_);

          size_t mismatched = 0, inherited = 0;
          obj::ObjectId first = obj::kInvalidObject;
          for (obj::ObjectId id = 0; id < graph.size(); ++id) {
            if (graph.EdgeCount(id) != graph.EdgeCapacity(id)) {
              if (mismatched++ == 0) first = id;
            }
            inherited += graph.object(id).version > 1 &&
                         graph.HasNeighbor(id, obj::RelKind::kCorrespondence,
                                           obj::Direction::kDown);
          }
          EXPECT_EQ(mismatched, 0u)
              << "first: object " << first << " has "
              << graph.EdgeCount(first) << " edges in a run of "
              << graph.EdgeCapacity(first);
          // The inherited-correspondence term is exercised wherever both
          // alternates and versions are built.
          EXPECT_EQ(inherited > 0, alts > 0 && versions > 0);
        }
      }
    }
  }
}

// ------------------------------------------------------------ generator

class WorkloadGenTest : public ::testing::Test {
 protected:
  WorkloadGenTest()
      : graph_(&lattice_),
        storage_(4096),
        types_(RegisterCadTypes(lattice_)),
        affinity_(&lattice_) {
    cluster::ClusterConfig config;
    config.pool = cluster::CandidatePool::kNoClustering;
    cluster_ = std::make_unique<cluster::ClusterManager>(
        &graph_, &storage_, &affinity_, nullptr, config);
    DatabaseSpec spec;
    spec.target_bytes = 256 << 10;
    DbBuilder builder(&graph_, cluster_.get(), nullptr, spec);
    db_ = builder.Build(types_);
  }

  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager storage_;
  CadTypes types_{};
  cluster::AffinityModel affinity_;
  std::unique_ptr<cluster::ClusterManager> cluster_;
  DesignDatabase db_;
};

TEST_F(WorkloadGenTest, SessionLengthInPaperRange) {
  WorkloadConfig w;
  WorkloadGenerator gen(&graph_, &db_, w, 1);
  for (int i = 0; i < 200; ++i) {
    const int len = gen.BeginSession();
    EXPECT_GE(len, 5);
    EXPECT_LE(len, 20);
    EXPECT_LT(gen.current_module(), db_.modules.size());
  }
}

TEST_F(WorkloadGenTest, TransactionsTargetLiveObjects) {
  WorkloadConfig w;
  WorkloadGenerator gen(&graph_, &db_, w, 2);
  gen.BeginSession();
  for (int i = 0; i < 500; ++i) {
    const TransactionSpec spec = gen.NextTransaction();
    ASSERT_NE(spec.target, obj::kInvalidObject);
    EXPECT_TRUE(graph_.IsLive(spec.target));
    // Simulate op feedback so the R/W controller advances.
    gen.RecordOps(IsReadQuery(spec.type) ? 4 : 0,
                  IsReadQuery(spec.type) ? 0 : 1);
  }
}

TEST_F(WorkloadGenTest, ControllerConvergesToTargetRatio) {
  for (double target : {5.0, 10.0, 100.0}) {
    WorkloadConfig w;
    w.read_write_ratio = target;
    WorkloadGenerator gen(&graph_, &db_, w, 3);
    Rng rng(17);
    gen.BeginSession();
    for (int i = 0; i < 5000; ++i) {
      if (i % 12 == 0) gen.BeginSession();
      const TransactionSpec spec = gen.NextTransaction();
      if (IsReadQuery(spec.type)) {
        // Read transactions trigger a variable number of logical reads.
        gen.RecordOps(1 + rng.NextBelow(8), 0);
      } else {
        gen.RecordOps(0, 1 + rng.NextBelow(2));
      }
    }
    EXPECT_NEAR(gen.AchievedRatio(), target, target * 0.15)
        << "target " << target;
  }
}

TEST_F(WorkloadGenTest, ReadTypesRespectTargets) {
  WorkloadConfig w;
  WorkloadGenerator gen(&graph_, &db_, w, 4);
  gen.BeginSession();
  for (int i = 0; i < 1000; ++i) {
    const TransactionSpec spec = gen.NextTransaction();
    gen.RecordOps(3, 0);  // keep it issuing reads
    switch (spec.type) {
      case QueryType::kComponentRetrieval:
      case QueryType::kCompositeRetrieval:
        // Targets must be navigable entry points.
        EXPECT_FALSE(graph_.Components(spec.target).empty());
        break;
      case QueryType::kDescendantVersions:
      case QueryType::kAncestorVersions: {
        const bool has_versions =
            !graph_.Descendants(spec.target).empty() ||
            !graph_.Ancestors(spec.target).empty();
        EXPECT_TRUE(has_versions);
        break;
      }
      case QueryType::kCorresponding:
        EXPECT_FALSE(graph_.Correspondents(spec.target).empty());
        break;
      default:
        break;
    }
  }
}

TEST_F(WorkloadGenTest, ModulePopularityIsSkewed) {
  WorkloadConfig w;
  w.module_skew = 0.8;
  WorkloadGenerator gen(&graph_, &db_, w, 5);
  std::vector<int> counts(db_.modules.size(), 0);
  for (int i = 0; i < 5000; ++i) {
    gen.BeginSession();
    ++counts[gen.current_module()];
  }
  // Module 0 must be sampled far more than the median module.
  std::vector<int> sorted = counts;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(counts[0], sorted[sorted.size() / 2] * 3);
}

}  // namespace
}  // namespace oodb::workload
