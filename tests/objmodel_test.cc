#include <vector>

#include "gtest/gtest.h"
#include "objmodel/inheritance.h"
#include "objmodel/object_graph.h"
#include "objmodel/type_system.h"
#include "util/random.h"

namespace oodb::obj {
namespace {

// ---------------------------------------------------------------- types

class TypeLatticeTest : public ::testing::Test {
 protected:
  TypeLattice lattice_;
};

TEST_F(TypeLatticeTest, DefineAndFind) {
  TypeId layout = lattice_.DefineType("layout", kInvalidType, 64,
                                      {4.0, 1.0, 0.5, 0.2});
  EXPECT_EQ(lattice_.info(layout).name, "layout");
  auto found = lattice_.FindType("layout");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, layout);
  EXPECT_FALSE(lattice_.FindType("nonesuch").ok());
}

TEST_F(TypeLatticeTest, SubtypeChain) {
  TypeId cell = lattice_.DefineType("cell", kInvalidType, 32, {});
  TypeId macro = lattice_.DefineType("macro", cell, 32, {});
  TypeId alu = lattice_.DefineType("alu", macro, 32, {});
  EXPECT_TRUE(lattice_.IsSubtypeOf(alu, cell));
  EXPECT_TRUE(lattice_.IsSubtypeOf(alu, alu));
  EXPECT_FALSE(lattice_.IsSubtypeOf(cell, alu));
}

TEST_F(TypeLatticeTest, AttributesInheritedAlongLattice) {
  TypeId base = lattice_.DefineType(
      "base", kInvalidType, 16, {},
      {{"color", 4, false, 0.1, 0.0}, {"owner", 8, false, 0.1, 0.0}});
  TypeId derived = lattice_.DefineType("derived", base, 16, {},
                                       {{"area", 8, false, 0.2, 0.0}});
  auto attrs = lattice_.ResolveAttributes(derived);
  ASSERT_EQ(attrs.size(), 3u);
  EXPECT_EQ(lattice_.InstanceSize(derived), 16u + 4 + 8 + 8);
}

TEST_F(TypeLatticeTest, NearerDefinitionOverridesInherited) {
  TypeId base = lattice_.DefineType("base", kInvalidType, 16, {},
                                    {{"geom", 100, false, 0.1, 0.0}});
  TypeId derived = lattice_.DefineType("derived", base, 16, {},
                                       {{"geom", 20, false, 0.9, 0.0}});
  auto attrs = lattice_.ResolveAttributes(derived);
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs[0].size_bytes, 20u);
  EXPECT_DOUBLE_EQ(attrs[0].read_frequency, 0.9);
}

TEST_F(TypeLatticeTest, TraversalProfileFallsBackToSupertype) {
  TypeId base =
      lattice_.DefineType("base", kInvalidType, 16, {9.0, 1.0, 1.0, 1.0});
  TypeId derived = lattice_.DefineType("derived", base, 16, {});  // all-zero
  auto prof = lattice_.EffectiveTraversal(derived);
  EXPECT_DOUBLE_EQ(prof[0], 9.0);
}

TEST_F(TypeLatticeTest, NoProfileAnywhereIsUniform) {
  TypeId t = lattice_.DefineType("plain", kInvalidType, 16, {});
  auto prof = lattice_.EffectiveTraversal(t);
  for (double w : prof) EXPECT_DOUBLE_EQ(w, 1.0);
}

// ---------------------------------------------------------------- graph

class ObjectGraphTest : public ::testing::Test {
 protected:
  ObjectGraphTest() : graph_(&lattice_) {
    layout_ = lattice_.DefineType("layout", kInvalidType, 64,
                                  {4.0, 1.0, 0.5, 0.2});
    netlist_ = lattice_.DefineType("netlist", kInvalidType, 48,
                                   {6.0, 0.5, 0.5, 0.1});
  }

  TypeLattice lattice_;
  ObjectGraph graph_;
  TypeId layout_ = 0, netlist_ = 0;
};

TEST_F(ObjectGraphTest, CreateAndName) {
  FamilyId alu = graph_.NewFamily("ALU");
  ObjectId o = graph_.Create(alu, 2, layout_, 100);
  EXPECT_TRUE(graph_.IsLive(o));
  EXPECT_EQ(graph_.NameOf(o).ToString(), "ALU[2].layout");
  EXPECT_EQ(graph_.object(o).size_bytes, 100u);
  EXPECT_EQ(graph_.live_count(), 1u);
}

TEST_F(ObjectGraphTest, ConfigurationIsDirectional) {
  FamilyId dp = graph_.NewFamily("DATAPATH");
  FamilyId alu = graph_.NewFamily("ALU");
  ObjectId parent = graph_.Create(dp, 1, layout_, 100);
  ObjectId child = graph_.Create(alu, 1, layout_, 100);
  graph_.Relate(parent, child, RelKind::kConfiguration);
  EXPECT_EQ(graph_.Components(parent), std::vector<ObjectId>{child});
  EXPECT_EQ(graph_.Composites(child), std::vector<ObjectId>{parent});
  EXPECT_TRUE(graph_.Components(child).empty());
  EXPECT_TRUE(graph_.Composites(parent).empty());
}

TEST_F(ObjectGraphTest, VersionHistoryAncestry) {
  FamilyId alu = graph_.NewFamily("ALU");
  ObjectId v1 = graph_.Create(alu, 1, layout_, 80);
  ObjectId v2 = graph_.Create(alu, 2, layout_, 80);
  graph_.Relate(v1, v2, RelKind::kVersionHistory);
  EXPECT_EQ(graph_.Descendants(v1), std::vector<ObjectId>{v2});
  EXPECT_EQ(graph_.Ancestors(v2), std::vector<ObjectId>{v1});
}

TEST_F(ObjectGraphTest, CorrespondenceIsSymmetric) {
  FamilyId alu = graph_.NewFamily("ALU");
  ObjectId lay = graph_.Create(alu, 1, layout_, 80);
  ObjectId net = graph_.Create(alu, 1, netlist_, 60);
  graph_.Relate(lay, net, RelKind::kCorrespondence);
  EXPECT_EQ(graph_.Correspondents(lay), std::vector<ObjectId>{net});
  EXPECT_EQ(graph_.Correspondents(net), std::vector<ObjectId>{lay});
}

TEST_F(ObjectGraphTest, UnrelateRemovesBothDirections) {
  FamilyId a = graph_.NewFamily("A");
  ObjectId x = graph_.Create(a, 1, layout_, 10);
  ObjectId y = graph_.Create(a, 1, netlist_, 10);
  graph_.Relate(x, y, RelKind::kConfiguration);
  graph_.Unrelate(x, y, RelKind::kConfiguration);
  EXPECT_TRUE(graph_.Components(x).empty());
  EXPECT_TRUE(graph_.Composites(y).empty());
}

TEST_F(ObjectGraphTest, RemoveDetachesNeighbours) {
  FamilyId a = graph_.NewFamily("A");
  ObjectId x = graph_.Create(a, 1, layout_, 10);
  ObjectId y = graph_.Create(a, 1, netlist_, 10);
  ObjectId z = graph_.Create(a, 2, netlist_, 10);
  graph_.Relate(x, y, RelKind::kConfiguration);
  graph_.Relate(x, z, RelKind::kCorrespondence);
  graph_.Remove(x);
  EXPECT_FALSE(graph_.IsLive(x));
  EXPECT_TRUE(graph_.Composites(y).empty());
  EXPECT_TRUE(graph_.Correspondents(z).empty());
  EXPECT_EQ(graph_.live_count(), 2u);
}

TEST_F(ObjectGraphTest, LatestVersionPicksHighest) {
  FamilyId alu = graph_.NewFamily("ALU");
  graph_.Create(alu, 1, layout_, 10);
  ObjectId v3 = graph_.Create(alu, 3, layout_, 10);
  graph_.Create(alu, 2, layout_, 10);
  graph_.Create(alu, 9, netlist_, 10);  // different type: ignored
  EXPECT_EQ(graph_.LatestVersion(alu, layout_), v3);
}

TEST_F(ObjectGraphTest, FamilyMembersTracksCreationAndRemoval) {
  FamilyId alu = graph_.NewFamily("ALU");
  ObjectId v1 = graph_.Create(alu, 1, layout_, 10);
  ObjectId v2 = graph_.Create(alu, 2, layout_, 10);
  EXPECT_EQ(graph_.FamilyMembers(alu).size(), 2u);
  graph_.Remove(v1);
  ASSERT_EQ(graph_.FamilyMembers(alu).size(), 1u);
  EXPECT_EQ(graph_.FamilyMembers(alu)[0], v2);
}

TEST_F(ObjectGraphTest, ForEachRelatedSeesAllKinds) {
  FamilyId a = graph_.NewFamily("A");
  ObjectId x = graph_.Create(a, 1, layout_, 10);
  ObjectId y = graph_.Create(a, 1, netlist_, 10);
  ObjectId z = graph_.Create(a, 2, layout_, 10);
  graph_.Relate(x, y, RelKind::kCorrespondence);
  graph_.Relate(x, z, RelKind::kVersionHistory);
  int related = 0;
  graph_.ForEachRelated(x, [&](ObjectId) { ++related; });
  EXPECT_EQ(related, 2);
}

// ----------------------------------------------------------- inheritance

TEST(InheritanceCostTest, LargeRarelyReadAttributeGoesByReference) {
  InheritanceCostModel model;
  AttributeDef big{"geometry", 2000, true, /*read=*/0.05, /*update=*/0.0};
  EXPECT_EQ(ChooseImplementation(big, model), ImplChoice::kByReference);
}

TEST(InheritanceCostTest, SmallHotAttributeGoesByCopy) {
  InheritanceCostModel model;
  AttributeDef hot{"bbox", 16, true, /*read=*/3.0, /*update=*/0.0};
  EXPECT_EQ(ChooseImplementation(hot, model), ImplChoice::kByCopy);
}

TEST(InheritanceCostTest, FrequentSourceUpdatesPushTowardReference) {
  InheritanceCostModel model;
  AttributeDef churny{"status", 16, true, /*read=*/0.2, /*update=*/5.0};
  EXPECT_EQ(ChooseImplementation(churny, model), ImplChoice::kByReference);
}

class DeriveVersionTest : public ::testing::Test {
 protected:
  DeriveVersionTest() : graph_(&lattice_) {
    layout_ = lattice_.DefineType(
        "layout", kInvalidType, 64, {4.0, 1.0, 0.5, 0.2},
        {{"bbox", 16, true, 3.0, 0.0},        // hot + small -> copy
         {"geometry", 2000, true, 0.05, 0.0},  // big + cold -> reference
         {"label", 24, false, 0.5, 0.0}});     // not inheritable -> copy
    netlist_ = lattice_.DefineType("netlist", kInvalidType, 48,
                                   {6.0, 0.5, 0.5, 0.1});
  }

  TypeLattice lattice_;
  ObjectGraph graph_;
  TypeId layout_ = 0, netlist_ = 0;
  InheritanceCostModel model_;
};

TEST_F(DeriveVersionTest, CreatesLinkedDescendant) {
  FamilyId alu = graph_.NewFamily("ALU");
  ObjectId v2 = graph_.Create(alu, 2, layout_,
                              lattice_.InstanceSize(layout_));
  auto result = DeriveVersion(graph_, v2, model_);
  ASSERT_NE(result.heir, kInvalidObject);
  EXPECT_EQ(graph_.NameOf(result.heir).ToString(), "ALU[3].layout");
  EXPECT_EQ(graph_.Ancestors(result.heir), std::vector<ObjectId>{v2});
  EXPECT_EQ(graph_.Descendants(v2), std::vector<ObjectId>{result.heir});
}

TEST_F(DeriveVersionTest, CostModelSplitsCopyAndReference) {
  FamilyId alu = graph_.NewFamily("ALU");
  ObjectId v1 = graph_.Create(alu, 1, layout_,
                              lattice_.InstanceSize(layout_));
  auto result = DeriveVersion(graph_, v1, model_);
  EXPECT_EQ(result.attributes_by_copy, 2);       // bbox + label
  EXPECT_EQ(result.attributes_by_reference, 1);  // geometry
  // Heir carries an instance-inheritance link to the parent.
  EXPECT_EQ(graph_.InheritanceSources(result.heir),
            std::vector<ObjectId>{v1});
  // By-reference storage is much smaller than the full instance.
  EXPECT_LT(graph_.object(result.heir).size_bytes,
            lattice_.InstanceSize(layout_));
}

TEST_F(DeriveVersionTest, CorrespondencesInheritedByDefault) {
  // The paper's example: ALU[2].layout corresponds to ALU[3].netlist, so a
  // new descendant of ALU[2].layout inherits that correspondence.
  FamilyId alu = graph_.NewFamily("ALU");
  ObjectId lay2 = graph_.Create(alu, 2, layout_,
                                lattice_.InstanceSize(layout_));
  ObjectId net3 = graph_.Create(alu, 3, netlist_, 60);
  graph_.Relate(lay2, net3, RelKind::kCorrespondence);

  auto result = DeriveVersion(graph_, lay2, model_);
  EXPECT_EQ(result.correspondences_inherited, 1);
  auto corr = graph_.Correspondents(result.heir);
  ASSERT_EQ(corr.size(), 1u);
  EXPECT_EQ(corr[0], net3);
  // net3 now corresponds to both layout versions.
  EXPECT_EQ(graph_.Correspondents(net3).size(), 2u);
}

TEST_F(DeriveVersionTest, ChainOfDerivationsIncrementsVersions) {
  FamilyId alu = graph_.NewFamily("ALU");
  ObjectId v = graph_.Create(alu, 1, layout_,
                             lattice_.InstanceSize(layout_));
  for (int i = 0; i < 3; ++i) v = DeriveVersion(graph_, v, model_).heir;
  EXPECT_EQ(graph_.NameOf(v).ToString(), "ALU[4].layout");
  EXPECT_EQ(graph_.LatestVersion(alu, layout_), v);
}

TEST_F(DeriveVersionTest, PrecomputedLayoutDerivesTheSameHeir) {
  // A builder passes LayoutHeir once per type; the heir must equal the
  // one DeriveVersion lays out itself.
  ObjectGraph other(&lattice_);
  const HeirLayout layout = LayoutHeir(lattice_, layout_, model_);
  for (ObjectGraph* g : {&graph_, &other}) {
    const FamilyId alu = g->NewFamily("ALU");
    const ObjectId net = g->Create(alu, 1, netlist_, 60);
    const ObjectId v1 =
        g->Create(alu, 1, layout_, lattice_.InstanceSize(layout_));
    g->Relate(v1, net, RelKind::kCorrespondence);
  }
  const auto a = DeriveVersion(graph_, 1, model_);
  const auto b = DeriveVersion(other, 1, layout);
  EXPECT_EQ(a.heir, b.heir);
  EXPECT_EQ(a.attributes_by_copy, b.attributes_by_copy);
  EXPECT_EQ(a.attributes_by_reference, b.attributes_by_reference);
  EXPECT_EQ(a.correspondences_inherited, b.correspondences_inherited);
  EXPECT_EQ(graph_.object(a.heir).size_bytes,
            other.object(b.heir).size_bytes);
  EXPECT_EQ(graph_.NameOf(a.heir).ToString(), other.NameOf(b.heir).ToString());
  ASSERT_EQ(graph_.EdgeCount(a.heir), other.EdgeCount(b.heir));
  for (size_t e = 0; e < graph_.EdgeCount(a.heir); ++e) {
    EXPECT_EQ(graph_.edges(a.heir)[e].target, other.edges(b.heir)[e].target);
    EXPECT_EQ(graph_.edges(a.heir)[e].kind, other.edges(b.heir)[e].kind);
  }
}

// ---------------------------------------------------------------------------
// CSR edge-arena golden digests.
//
// A deterministic 4000-step create/relate/unrelate/remove churn, digested
// at three checkpoints. The expected values were computed with the
// pre-CSR std::vector<Edge>-per-object implementation, so they pin down
// that the struct-of-arrays arena layout preserves object identity, edge
// order (append order with swap-with-last removal), and live accounting
// bit-for-bit across growth relocations and arena reuse.
// ---------------------------------------------------------------------------

namespace {

void MixU64(uint64_t& h, uint64_t v) {
  // FNV-1a over the value's bytes, low byte first.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
}

uint64_t GraphDigest(const ObjectGraph& graph) {
  uint64_t h = 1469598103934665603ULL;
  for (ObjectId id = 0; id < graph.size(); ++id) {
    if (!graph.IsLive(id)) continue;
    const DesignObject& o = graph.object(id);
    MixU64(h, id);
    MixU64(h, o.type);
    MixU64(h, o.size_bytes);
    for (const Edge e : graph.edges(id)) {
      MixU64(h, e.target);
      MixU64(h, (static_cast<uint64_t>(e.kind) << 8) |
                    static_cast<uint64_t>(e.dir));
    }
  }
  return h;
}

}  // namespace

TEST(EdgeArenaGoldenTest, ChurnDigestsMatchPreCsrImplementation) {
  TypeLattice lattice;
  const TypeId root =
      lattice.DefineType("root", kInvalidType, 48, {4.0, 2.0, 1.0, 0.5});
  const TypeId leaf =
      lattice.DefineType("leaf", root, 32, {3.0, 1.0, 0.7, 0.2});
  ObjectGraph graph(&lattice);
  Rng rng(20260809);
  const FamilyId fam = graph.NewFamily("golden");

  struct Op {
    ObjectId a = kInvalidObject;
    ObjectId b = kInvalidObject;
    RelKind kind = RelKind::kConfiguration;
  };
  std::vector<ObjectId> live;
  std::vector<Op> related;
  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.UniformDouble(0.0, 1.0);
    if (live.size() < 2 || roll < 0.45) {
      const ObjectId id = graph.Create(
          fam, static_cast<uint16_t>(step % 7),
          rng.Bernoulli(0.5) ? root : leaf,
          32 + static_cast<uint32_t>(rng.NextBelow(400)));
      live.push_back(id);
    } else if (roll < 0.85) {
      const ObjectId a = live[rng.NextBelow(live.size())];
      const ObjectId b = live[rng.NextBelow(live.size())];
      if (a != b) {
        const auto kind = static_cast<RelKind>(rng.NextBelow(4));
        graph.Relate(a, b, kind);
        related.push_back(Op{a, b, kind});
      }
    } else if (roll < 0.95 && !related.empty()) {
      const size_t i = rng.NextBelow(related.size());
      const Op op = related[i];
      if (graph.IsLive(op.a) && graph.IsLive(op.b)) {
        graph.Unrelate(op.a, op.b, op.kind);
      }
      related[i] = related.back();
      related.pop_back();
    } else {
      const size_t i = rng.NextBelow(live.size());
      graph.Remove(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    if (step == 999) {
      EXPECT_EQ(GraphDigest(graph), 0x6db95d0b397325ceULL);
      EXPECT_EQ(graph.live_count(), 381u);
    } else if (step == 2499) {
      EXPECT_EQ(GraphDigest(graph), 0x2813c62681a88e8dULL);
      EXPECT_EQ(graph.live_count(), 949u);
    } else if (step == 3999) {
      EXPECT_EQ(GraphDigest(graph), 0xa7f62fc1b89df197ULL);
      EXPECT_EQ(graph.live_count(), 1571u);
    }
  }
}

}  // namespace
}  // namespace oodb::obj
