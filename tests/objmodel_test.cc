#include <algorithm>
#include <cstdint>
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

TEST_F(TypeLatticeTest, DefineRecordsTheType) {
  TypeId layout = lattice_.DefineType("layout", kInvalidType, 64,
                                      {4.0, 1.0, 0.5, 0.2});
  EXPECT_EQ(lattice_.info(layout).name, "layout");
  EXPECT_EQ(lattice_.size(), 1u);
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

TEST_F(ObjectGraphTest, ReserveSizesTheColumnsOnce) {
  FamilyId a = graph_.NewFamily("A");
  const ObjectId first = graph_.Create(a, 1, layout_, 10, 1);
  graph_.Reserve(3, 4, 0);
  EXPECT_EQ(graph_.object_capacity(), 4u);
  EXPECT_EQ(graph_.edge_slot_capacity(), 5u);
  const DesignObject* column = &graph_.object(first);
  const ObjectId x = graph_.Create(a, 2, layout_, 10, 2);
  const ObjectId y = graph_.Create(a, 3, layout_, 10, 2);
  graph_.Create(a, 4, layout_, 10);
  graph_.Relate(first, x, RelKind::kVersionHistory);
  graph_.Relate(x, y, RelKind::kVersionHistory);
  EXPECT_EQ(&graph_.object(first), column);
  EXPECT_EQ(graph_.object_capacity(), 4u);
  EXPECT_EQ(graph_.edge_slot_capacity(), 5u);
  // Past the reservation the columns grow as before.
  graph_.Create(a, 5, layout_, 10, 1);
  EXPECT_GT(graph_.object_capacity(), 4u);
  EXPECT_GT(graph_.edge_slot_capacity(), 5u);
  EXPECT_EQ(graph_.Descendants(x), std::vector<ObjectId>{y});
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
// CSR edge-arena reference model.
//
// VectorGraph is the pre-CSR ObjectGraph: one std::vector<Edge> per object,
// Relate appends an edge and its mirror, an edge leaves by swap-with-last,
// and Remove detaches the mirror of each of its edges in order. It still
// reproduces the digests the pre-CSR implementation recorded for a
// 4000-step create/relate/unrelate/remove churn, and the CSR arena must
// match it, digest for digest, over a create/relate/remove churn (the
// arena has no unrelate): object identity, edge order and live accounting
// across growth relocations and arena reuse.
// ---------------------------------------------------------------------------

namespace {

void MixU64(uint64_t& h, uint64_t v) {
  // FNV-1a over the value's bytes, low byte first.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
}

void MixObject(uint64_t& h, ObjectId id, TypeId type, uint32_t size_bytes,
               const auto& edges) {
  MixU64(h, id);
  MixU64(h, type);
  MixU64(h, size_bytes);
  for (const Edge e : edges) {
    MixU64(h, e.target);
    MixU64(h, (static_cast<uint64_t>(e.kind) << 8) |
                  static_cast<uint64_t>(e.dir));
  }
}

uint64_t GraphDigest(const ObjectGraph& graph) {
  uint64_t h = 1469598103934665603ULL;
  for (ObjectId id = 0; id < graph.size(); ++id) {
    if (!graph.IsLive(id)) continue;
    const DesignObject& o = graph.object(id);
    MixObject(h, id, o.type, o.size_bytes, graph.edges(id));
  }
  return h;
}

Direction MirrorOf(RelKind kind, Direction dir) {
  if (kind == RelKind::kCorrespondence) return Direction::kDown;
  return dir == Direction::kDown ? Direction::kUp : Direction::kDown;
}

class VectorGraph {
 public:
  void Create(TypeId type, uint32_t size_bytes) {
    objects_.push_back(Object{type, size_bytes, true, {}});
    ++live_count_;
  }
  void Relate(ObjectId from, ObjectId to, RelKind kind) {
    objects_[from].edges.push_back(Edge{to, kind, Direction::kDown});
    objects_[to].edges.push_back(
        Edge{from, kind, MirrorOf(kind, Direction::kDown)});
  }
  void Unrelate(ObjectId from, ObjectId to, RelKind kind) {
    RemoveEdge(from, Edge{to, kind, Direction::kDown});
    RemoveEdge(to, Edge{from, kind, MirrorOf(kind, Direction::kDown)});
  }
  void Remove(ObjectId id) {
    for (const Edge& e : objects_[id].edges) {
      RemoveEdge(e.target, Edge{id, e.kind, MirrorOf(e.kind, e.dir)});
    }
    objects_[id].edges.clear();
    objects_[id].live = false;
    --live_count_;
  }
  uint64_t Digest() const {
    uint64_t h = 1469598103934665603ULL;
    for (ObjectId id = 0; id < objects_.size(); ++id) {
      const Object& o = objects_[id];
      if (o.live) MixObject(h, id, o.type, o.size_bytes, o.edges);
    }
    return h;
  }
  size_t live_count() const { return live_count_; }

 private:
  struct Object {
    TypeId type;
    uint32_t size_bytes;
    bool live;
    std::vector<Edge> edges;
  };
  void RemoveEdge(ObjectId obj, const Edge& edge) {
    std::vector<Edge>& edges = objects_[obj].edges;
    const auto it = std::find(edges.begin(), edges.end(), edge);
    if (it == edges.end()) return;
    *it = edges.back();
    edges.pop_back();
  }

  std::vector<Object> objects_;
  size_t live_count_ = 0;
};

/// One step of the golden churn.
struct ChurnOp {
  enum Kind { kSkip, kCreate, kRelate, kUnrelate, kRemove } op = kSkip;
  ObjectId a = kInvalidObject;  ///< kRelate, kUnrelate, kRemove
  ObjectId b = kInvalidObject;  ///< kRelate, kUnrelate
  RelKind kind = RelKind::kConfiguration;
  bool leaf = false;        ///< kCreate: type leaf, else root
  uint32_t size_bytes = 0;  ///< kCreate
};

/// The 4000 steps of the golden churn: 45% create, 40% relate, then
/// (with `unrelate`) 10% unrelate of an earlier relation whose endpoints
/// are both live, and remove otherwise.
std::vector<ChurnOp> GoldenChurn(bool unrelate) {
  struct Relation {
    ObjectId a;
    ObjectId b;
    RelKind kind;
  };
  Rng rng(20260809);
  std::vector<ChurnOp> ops;
  std::vector<ObjectId> live;
  std::vector<bool> is_live;
  std::vector<Relation> related;
  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.UniformDouble(0.0, 1.0);
    ChurnOp op;
    if (live.size() < 2 || roll < 0.45) {
      // The recorded run drew the size before the type.
      op.op = ChurnOp::kCreate;
      op.size_bytes = 32 + static_cast<uint32_t>(rng.NextBelow(400));
      op.leaf = !rng.Bernoulli(0.5);
      live.push_back(static_cast<ObjectId>(is_live.size()));
      is_live.push_back(true);
    } else if (roll < 0.85) {
      op.a = live[rng.NextBelow(live.size())];
      op.b = live[rng.NextBelow(live.size())];
      if (op.a != op.b) {
        op.op = ChurnOp::kRelate;
        op.kind = static_cast<RelKind>(rng.NextBelow(4));
        related.push_back(Relation{op.a, op.b, op.kind});
      }
    } else if (unrelate && roll < 0.95 && !related.empty()) {
      const size_t i = rng.NextBelow(related.size());
      const Relation r = related[i];
      related[i] = related.back();
      related.pop_back();
      if (is_live[r.a] && is_live[r.b]) {
        op.op = ChurnOp::kUnrelate;
        op.a = r.a;
        op.b = r.b;
        op.kind = r.kind;
      }
    } else {
      const size_t i = rng.NextBelow(live.size());
      op.op = ChurnOp::kRemove;
      op.a = live[i];
      is_live[op.a] = false;
      live[i] = live.back();
      live.pop_back();
    }
    ops.push_back(op);
  }
  return ops;
}

/// Applies one churn step to `graph` (a VectorGraph, or the CSR graph
/// through ChurnTarget).
template <typename Graph>
void Apply(const ChurnOp& op, TypeId root, TypeId leaf, Graph& graph) {
  switch (op.op) {
    case ChurnOp::kSkip:
      break;
    case ChurnOp::kCreate:
      graph.Create(op.leaf ? leaf : root, op.size_bytes);
      break;
    case ChurnOp::kRelate:
      graph.Relate(op.a, op.b, op.kind);
      break;
    case ChurnOp::kUnrelate:
      graph.Unrelate(op.a, op.b, op.kind);
      break;
    case ChurnOp::kRemove:
      graph.Remove(op.a);
      break;
  }
}

}  // namespace

TEST(EdgeArenaGoldenTest, ReferenceModelReproducesPreCsrDigests) {
  VectorGraph model;
  const std::vector<ChurnOp> ops = GoldenChurn(/*unrelate=*/true);
  for (size_t step = 0; step < ops.size(); ++step) {
    Apply(ops[step], /*root=*/0, /*leaf=*/1, model);
    if (step == 999) {
      EXPECT_EQ(model.Digest(), 0x6db95d0b397325ceULL);
      EXPECT_EQ(model.live_count(), 381u);
    } else if (step == 2499) {
      EXPECT_EQ(model.Digest(), 0x2813c62681a88e8dULL);
      EXPECT_EQ(model.live_count(), 949u);
    } else if (step == 3999) {
      EXPECT_EQ(model.Digest(), 0xa7f62fc1b89df197ULL);
      EXPECT_EQ(model.live_count(), 1571u);
    }
  }
}

TEST(EdgeArenaGoldenTest, ChurnDigestsMatchPreCsrImplementation) {
  TypeLattice lattice;
  const TypeId root =
      lattice.DefineType("root", kInvalidType, 48, {4.0, 2.0, 1.0, 0.5});
  const TypeId leaf =
      lattice.DefineType("leaf", root, 32, {3.0, 1.0, 0.7, 0.2});
  ObjectGraph graph(&lattice);
  const FamilyId fam = graph.NewFamily("golden");
  // The CSR graph behind VectorGraph's calls; a churn without unrelate
  // never calls Unrelate.
  struct ChurnTarget {
    ObjectGraph& graph;
    FamilyId fam;
    void Create(TypeId type, uint32_t size_bytes) {
      graph.Create(fam, 1, type, size_bytes);
    }
    void Relate(ObjectId a, ObjectId b, RelKind kind) {
      graph.Relate(a, b, kind);
    }
    void Unrelate(ObjectId, ObjectId, RelKind) { ADD_FAILURE(); }
    void Remove(ObjectId id) { graph.Remove(id); }
  } target{graph, fam};
  VectorGraph model;
  const std::vector<ChurnOp> ops = GoldenChurn(/*unrelate=*/false);
  for (size_t step = 0; step < ops.size(); ++step) {
    Apply(ops[step], root, leaf, target);
    Apply(ops[step], root, leaf, model);
    if (step % 500 == 499) {
      ASSERT_EQ(GraphDigest(graph), model.Digest()) << "step " << step;
      ASSERT_EQ(graph.live_count(), model.live_count()) << "step " << step;
    }
  }
  EXPECT_GT(graph.live_count(), 1000u);
}

}  // namespace
}  // namespace oodb::obj
