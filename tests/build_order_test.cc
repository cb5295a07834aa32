// Oracle for the database build order. DbBuilder generates a batch of
// objects, then places it (cluster::BuildPlacer); the interleaved reads it
// draws during generation are recorded and resolved at placement. The
// reference below is the former builder, which placed each object, and
// drew its read, as soon as the object existed. Both must leave the same
// graph, placement, cluster statistics and buffer state.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "buffer/buffer_pool.h"
#include "cluster/affinity.h"
#include "cluster/build_placer.h"
#include "cluster/cluster_manager.h"
#include "core/experiment.h"
#include "gtest/gtest.h"
#include "objmodel/inheritance.h"
#include "objmodel/object_graph.h"
#include "ocb/ocb_builder.h"
#include "storage/storage_manager.h"
#include "util/random.h"
#include "workload/db_builder.h"
#include "workload/workload_config.h"

namespace oodb {
namespace {

using workload::DatabaseSpec;
using workload::DesignDatabase;

// The former DbBuilder: each object is placed (and its buffer effects
// mirrored) as it is created, and its interleaved read drawn live. Edge
// runs are not presized: capacity decides where a run lives in the arena,
// never which edges it holds or their order.
class ReferenceDbBuilder {
 public:
  ReferenceDbBuilder(obj::ObjectGraph* graph, cluster::ClusterManager* mgr,
                     buffer::BufferPool* buffer, DatabaseSpec spec)
      : graph_(graph), cluster_(mgr), buffer_(buffer), spec_(spec),
        rng_(spec.seed) {}

  DesignDatabase Build(workload::CadTypes types) {
    types_ = types;
    DesignDatabase db;
    db.composite_type = types.composite;
    db.leaf_type = types.leaf;
    db.alt_type = types.alt;
    std::vector<Stream> streams(static_cast<size_t>(spec_.concurrent_streams));
    int module_index = 0;
    auto start_module = [&](Stream& s) {
      PlanModule(s.plan);
      s.cursor = 0;
      std::string name("M");  // not "M" + ...: GCC 12 -Wrestrict at -O3
      name += std::to_string(module_index++);
      s.family = graph_->NewFamily(name);
    };
    for (auto& s : streams) start_module(s);
    bool work_left = true;
    while (work_left) {
      work_left = false;
      for (auto& s : streams) {
        if (s.cursor >= s.plan.size()) {
          if (!s.module.objects.empty()) {
            db.modules.push_back(std::move(s.module));
            s.module = DesignDatabase::Module{};
          }
          if (bytes_created_ >= spec_.target_bytes) continue;
          start_module(s);
        }
        ExecuteStep(s);
        work_left = true;
      }
    }
    for (auto& s : streams) {
      if (s.cursor >= s.plan.size() && !s.module.objects.empty()) {
        db.modules.push_back(std::move(s.module));
      }
    }
    return db;
  }

 private:
  struct Step {
    bool derive = false;
    obj::TypeId type = obj::kInvalidType;
    uint32_t size_bytes = 0;
    bool is_composite = false;
    int parent = -1;
    int corresponds = -1;
    int derive_of = -1;
  };
  struct Stream {
    std::vector<Step> plan;
    size_t cursor = 0;
    DesignDatabase::Module module;
    obj::FamilyId family = obj::kInvalidFamily;
  };

  uint32_t SampleObjectSize(bool composite) {
    const double mean = static_cast<double>(spec_.mean_object_bytes);
    double size = 0.4 * mean + rng_.Exponential(0.6 * mean);
    if (composite) size += spec_.composite_extra_bytes;
    return static_cast<uint32_t>(std::clamp(size, 24.0, 1024.0));
  }

  void PlanModule(std::vector<Step>& plan) {
    plan.clear();
    const workload::FanoutRange fanout = workload::FanoutFor(spec_.density);
    plan.push_back(Step{false, types_.composite, SampleObjectSize(true),
                        true, -1, -1, -1});
    std::vector<int> root_components;
    std::vector<std::pair<int, int>> stack{{0, 0}};
    while (!stack.empty()) {
      const auto [parent, depth] = stack.back();
      stack.pop_back();
      const int children = static_cast<int>(
          rng_.UniformInt(fanout.min_fanout, fanout.max_fanout));
      for (int c = 0; c < children; ++c) {
        const bool composite = depth + 1 < spec_.hierarchy_depth &&
                               rng_.Bernoulli(spec_.composite_fraction);
        plan.push_back(Step{false,
                            composite ? types_.composite : types_.leaf,
                            SampleObjectSize(composite), composite, parent,
                            -1, -1});
        const int idx = static_cast<int>(plan.size() - 1);
        if (parent == 0) root_components.push_back(idx);
        if (composite) stack.push_back({idx, depth + 1});
      }
    }
    for (int rep = 0; rep < spec_.alt_representations; ++rep) {
      plan.push_back(
          Step{false, types_.alt, SampleObjectSize(true), true, -1, 0, -1});
      const int alt_root = static_cast<int>(plan.size() - 1);
      for (int counterpart : root_components) {
        plan.push_back(Step{false, types_.alt, SampleObjectSize(false), false,
                            alt_root, counterpart, -1});
      }
    }
    const int base_count = static_cast<int>(plan.size());
    for (int i = 0; i < base_count; ++i) {
      if (!rng_.Bernoulli(spec_.version_fraction)) continue;
      int head = i;
      const double p_stop = 1.0 / (1.0 + spec_.version_chain_mean);
      do {
        plan.push_back(Step{true, plan[static_cast<size_t>(head)].type, 0,
                            false, -1, -1, head});
        head = static_cast<int>(plan.size() - 1);
      } while (!rng_.Bernoulli(p_stop));
    }
  }

  void Place(obj::ObjectId id) {
    const auto report = cluster_->PlaceNew(id);
    bytes_created_ += graph_->object(id).size_bytes;
    if (buffer_ == nullptr) return;
    for (store::PageId p : report.exam_reads) buffer_->Fix(p);
    buffer_->Fix(report.page);
    buffer_->MarkDirty(report.page);
    if (report.split && report.split_new_page != store::kInvalidPage) {
      buffer_->Fix(report.split_new_page);
      buffer_->MarkDirty(report.split_new_page);
    }
  }

  void ExecuteStep(Stream& stream) {
    const Step& step = stream.plan[stream.cursor];
    DesignDatabase::Module& module = stream.module;
    obj::ObjectId id;
    if (!step.derive) {
      id = graph_->Create(stream.family, 1, step.type, step.size_bytes);
      if (step.parent >= 0) {
        graph_->Relate(module.objects[static_cast<size_t>(step.parent)], id,
                       obj::RelKind::kConfiguration);
      }
      if (step.corresponds >= 0) {
        const obj::ObjectId other =
            module.objects[static_cast<size_t>(step.corresponds)];
        graph_->Relate(id, other, obj::RelKind::kCorrespondence);
        module.corresponding.push_back(id);
        module.corresponding.push_back(other);
      }
      Place(id);
      if (step.is_composite) module.composites.push_back(id);
      if (module.root == obj::kInvalidObject) module.root = id;
    } else {
      const obj::ObjectId of =
          module.objects[static_cast<size_t>(step.derive_of)];
      id = obj::DeriveVersion(*graph_, of, inherit_model_).heir;
      Place(id);
      module.versioned.push_back(of);
      module.versioned.push_back(id);
    }
    module.objects.push_back(id);
    ++stream.cursor;
    if (buffer_ != nullptr && cluster_->config().pool !=
                                  cluster::CandidatePool::kNoClustering) {
      if (rng_.Bernoulli(spec_.interleaved_read_probability)) {
        const size_t pages = cluster_->storage().page_count();
        if (pages > 0) {
          buffer_->Fix(static_cast<store::PageId>(rng_.NextBelow(pages)));
        }
      }
    }
  }

  obj::ObjectGraph* graph_;
  cluster::ClusterManager* cluster_;
  buffer::BufferPool* buffer_;
  DatabaseSpec spec_;
  Rng rng_;
  uint64_t bytes_created_ = 0;
  obj::InheritanceCostModel inherit_model_;
  workload::CadTypes types_{};
};

// Everything a build leaves behind.
struct World {
  explicit World(const cluster::ClusterConfig& config,
                 buffer::ReplacementPolicy replacement)
      : types(workload::RegisterCadTypes(lattice)),
        graph(&lattice),
        storage(4096, 0.8),
        buffer(kBufferPages, replacement, 0xB0FFEB0FF),
        affinity(&lattice),
        mgr(&graph, &storage, &affinity, &buffer, config) {}

  static constexpr size_t kBufferPages = 96;

  obj::TypeLattice lattice;
  workload::CadTypes types;
  obj::ObjectGraph graph;
  store::StorageManager storage;
  buffer::BufferPool buffer;
  cluster::AffinityModel affinity;
  cluster::ClusterManager mgr;
  DesignDatabase db;
};

DatabaseSpec Spec() {
  DatabaseSpec spec;
  // About 7500 objects: the build spans two batches.
  spec.target_bytes = 2500 << 10;
  spec.seed = 77;
  return spec;
}

void ExpectSameModules(const DesignDatabase& a, const DesignDatabase& b) {
  ASSERT_EQ(a.modules.size(), b.modules.size());
  for (size_t m = 0; m < a.modules.size(); ++m) {
    EXPECT_EQ(a.modules[m].root, b.modules[m].root) << m;
    EXPECT_EQ(a.modules[m].objects, b.modules[m].objects) << m;
    EXPECT_EQ(a.modules[m].composites, b.modules[m].composites) << m;
    EXPECT_EQ(a.modules[m].versioned, b.modules[m].versioned) << m;
    EXPECT_EQ(a.modules[m].corresponding, b.modules[m].corresponding) << m;
  }
}

void ExpectSameWorld(World& ref, World& out) {
  // The graph: recording the reads left the generation stream unchanged.
  EXPECT_EQ(ocb::GraphDigest(ref.graph), ocb::GraphDigest(out.graph));
  ASSERT_EQ(ref.graph.size(), out.graph.size());
  ExpectSameModules(ref.db, out.db);

  // Placement: each object's page and every page's slot order.
  ASSERT_EQ(ref.storage.page_count(), out.storage.page_count());
  for (obj::ObjectId id = 0; id < ref.graph.size(); ++id) {
    ASSERT_EQ(ref.storage.PageOf(id), out.storage.PageOf(id)) << id;
  }
  for (store::PageId p = 0; p < ref.storage.page_count(); ++p) {
    const auto& a = ref.storage.page(p).slots();
    const auto& b = out.storage.page(p).slots();
    ASSERT_EQ(a.size(), b.size()) << p;
    for (size_t s = 0; s < a.size(); ++s) {
      ASSERT_EQ(a[s].object, b[s].object) << p << "/" << s;
      ASSERT_EQ(a[s].size_bytes, b[s].size_bytes) << p << "/" << s;
    }
  }
  EXPECT_EQ(ref.storage.append_page(), out.storage.append_page());
  EXPECT_EQ(ref.storage.used_bytes(), out.storage.used_bytes());

  const cluster::ClusterStats& rs = ref.mgr.stats();
  const cluster::ClusterStats& os = out.mgr.stats();
  EXPECT_EQ(rs.placements, os.placements);
  EXPECT_EQ(rs.reclusterings, os.reclusterings);
  EXPECT_EQ(rs.appends, os.appends);
  EXPECT_EQ(rs.relocations, os.relocations);
  EXPECT_EQ(rs.splits, os.splits);
  EXPECT_EQ(rs.exam_reads, os.exam_reads);
  EXPECT_EQ(rs.objects_moved_by_splits, os.objects_moved_by_splits);
  EXPECT_EQ(rs.split_search_steps, os.split_search_steps);
  EXPECT_EQ(rs.split_broken_cost, os.split_broken_cost);

  // The buffer: resident set, dirty bits, counters, then the victims of
  // a common Fix sequence of pages no build touched (under Random this
  // also compares the replacement stream).
  std::vector<store::PageId> ref_resident = ref.buffer.ResidentPages();
  std::vector<store::PageId> out_resident = out.buffer.ResidentPages();
  std::sort(ref_resident.begin(), ref_resident.end());
  std::sort(out_resident.begin(), out_resident.end());
  EXPECT_EQ(ref_resident, out_resident);
  for (store::PageId p : ref_resident) {
    EXPECT_EQ(ref.buffer.IsDirty(p), out.buffer.IsDirty(p)) << p;
  }
  EXPECT_EQ(ref.buffer.hits(), out.buffer.hits());
  EXPECT_EQ(ref.buffer.misses(), out.buffer.misses());
  EXPECT_EQ(ref.buffer.evictions(), out.buffer.evictions());
  EXPECT_EQ(ref.buffer.dirty_evictions(), out.buffer.dirty_evictions());
  const auto fresh = static_cast<store::PageId>(ref.storage.page_count());
  for (store::PageId k = 0; k < World::kBufferPages + 8; ++k) {
    const auto a = ref.buffer.Fix(fresh + k);
    const auto b = out.buffer.Fix(fresh + k);
    ASSERT_EQ(a.evicted_page, b.evicted_page) << k;
    ASSERT_EQ(a.evicted_dirty, b.evicted_dirty) << k;
  }
}

// Builds both ways and compares; returns the build's split count.
uint64_t ExpectSameBuild(const cluster::ClusterConfig& config,
                         buffer::ReplacementPolicy replacement) {
  World ref(config, replacement);
  ref.db = ReferenceDbBuilder(&ref.graph, &ref.mgr, &ref.buffer, Spec())
               .Build(ref.types);
  World out(config, replacement);
  workload::DbBuilder builder(&out.graph, &out.mgr, &out.buffer, Spec());
  out.db = builder.Build(out.types);
  EXPECT_GT(out.graph.size(), cluster::kBuildBatchObjects);
  EXPECT_GT(builder.batch_buffer_capacity(), 0u);
  EXPECT_LE(builder.batch_buffer_capacity(), cluster::kBuildBatchObjects);
  EXPECT_GT(out.buffer.evictions(), 0u);
  ExpectSameWorld(ref, out);
  return out.mgr.stats().splits;
}

std::string Label(const cluster::ClusterConfig& c,
                  buffer::ReplacementPolicy r) {
  return std::string(cluster::CandidatePoolName(c.pool)) + " io_limit=" +
         std::to_string(c.io_limit) + " split=" +
         std::to_string(static_cast<int>(c.split)) + " siblings=" +
         std::to_string(c.sibling_candidates) + " fresh_page=" +
         std::to_string(c.fresh_page_on_overflow) + " " +
         buffer::ReplacementPolicyName(r);
}

TEST(BuildOrderOracleTest, EveryFigure51PoolAndSplitPolicy) {
  uint64_t splits = 0;
  for (const cluster::SplitPolicy split :
       {cluster::SplitPolicy::kNoSplit, cluster::SplitPolicy::kLinearGreedy,
        cluster::SplitPolicy::kExhaustive}) {
    for (const cluster::ClusterConfig& config :
         core::ClusteringPolicyLevels(split)) {
      if (config.pool == cluster::CandidatePool::kNoClustering &&
          split != cluster::SplitPolicy::kLinearGreedy) {
        continue;  // arrival order ignores the split policy
      }
      SCOPED_TRACE(Label(config, buffer::ReplacementPolicy::kLru));
      splits += ExpectSameBuild(config, buffer::ReplacementPolicy::kLru);
    }
  }
  EXPECT_GT(splits, 0u);  // the split paths ran
}

TEST(BuildOrderOracleTest, EveryReplacementPolicy) {
  for (const buffer::ReplacementPolicy replacement :
       buffer::kAllReplacementPolicies) {
    for (const cluster::ClusterConfig& config :
         core::ClusteringPolicyLevels(cluster::SplitPolicy::kLinearGreedy)) {
      SCOPED_TRACE(Label(config, replacement));
      ExpectSameBuild(config, replacement);
    }
  }
}

TEST(BuildOrderOracleTest, CandidateAndOverflowSwitchesOff) {
  for (const cluster::ClusterConfig& base :
       core::ClusteringPolicyLevels(cluster::SplitPolicy::kLinearGreedy)) {
    if (base.pool == cluster::CandidatePool::kNoClustering) continue;
    cluster::ClusterConfig no_siblings = base;
    no_siblings.sibling_candidates = false;
    cluster::ClusterConfig no_fresh_page = base;
    no_fresh_page.fresh_page_on_overflow = false;
    no_fresh_page.split = cluster::SplitPolicy::kNoSplit;
    for (const cluster::ClusterConfig& config : {no_siblings, no_fresh_page}) {
      SCOPED_TRACE(Label(config, buffer::ReplacementPolicy::kContextSensitive));
      ExpectSameBuild(config, buffer::ReplacementPolicy::kContextSensitive);
    }
  }
}

// With no buffer there is nothing to mirror and no interleaved read: the
// placement alone must match.
TEST(BuildOrderOracleTest, WithoutABuffer) {
  for (const cluster::ClusterConfig& config :
       core::ClusteringPolicyLevels(cluster::SplitPolicy::kLinearGreedy)) {
    SCOPED_TRACE(Label(config, buffer::ReplacementPolicy::kLru));
    World ref(config, buffer::ReplacementPolicy::kLru);
    cluster::ClusterManager ref_mgr(&ref.graph, &ref.storage, &ref.affinity,
                                    nullptr, config);
    ref.db = ReferenceDbBuilder(&ref.graph, &ref_mgr, nullptr, Spec())
                 .Build(ref.types);
    World out(config, buffer::ReplacementPolicy::kLru);
    cluster::ClusterManager out_mgr(&out.graph, &out.storage, &out.affinity,
                                    nullptr, config);
    out.db = workload::DbBuilder(&out.graph, &out_mgr, nullptr, Spec())
                 .Build(out.types);
    EXPECT_EQ(ocb::GraphDigest(ref.graph), ocb::GraphDigest(out.graph));
    ExpectSameModules(ref.db, out.db);
    ASSERT_EQ(ref.storage.page_count(), out.storage.page_count());
    for (obj::ObjectId id = 0; id < ref.graph.size(); ++id) {
      ASSERT_EQ(ref.storage.PageOf(id), out.storage.PageOf(id)) << id;
    }
    EXPECT_EQ(ref_mgr.stats().splits, out_mgr.stats().splits);
    EXPECT_EQ(ref_mgr.stats().appends, out_mgr.stats().appends);
  }
}

}  // namespace
}  // namespace oodb
