#include "ocb/ocb_builder.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace oodb::ocb {

namespace {

// FNV-1a over one 64-bit word.
inline void MixU64(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
}

}  // namespace

OcbSchema RegisterOcbClasses(obj::TypeLattice& lattice,
                             const OcbConfig& config, uint64_t seed) {
  OODB_CHECK_GE(config.classes, 2);
  OODB_CHECK_GE(config.hierarchy_depth, 1);
  SplitMix64 rng(seed);

  OcbSchema schema;
  schema.classes.reserve(config.classes);
  schema.level_of.reserve(config.classes);
  schema.super_of.reserve(config.classes);

  for (int c = 0; c < config.classes; ++c) {
    int super = -1;
    int level = 0;
    if (c > 0) {
      // Attach under a uniformly chosen earlier class that still has room
      // below it in the depth budget; the root always qualifies when
      // hierarchy_depth >= 2, and a depth budget of 1 forces a flat
      // single-root "tree" of sibling-free subclasses of nothing — so fall
      // back to the root in that case.
      std::vector<int> candidates;
      for (int k = 0; k < c; ++k) {
        if (schema.level_of[k] < config.hierarchy_depth - 1) {
          candidates.push_back(k);
        }
      }
      if (candidates.empty()) candidates.push_back(0);
      super = candidates[rng.NextBelow(candidates.size())];
      level = schema.level_of[super] + (config.hierarchy_depth > 1 ? 1 : 0);
    }

    const uint32_t base = std::max<uint32_t>(
        24, static_cast<uint32_t>(static_cast<double>(config.base_object_bytes) *
                                  (0.6 + 0.8 * rng.NextDouble())));
    // OCB references are plain inter-object links, modelled as
    // configuration edges; instance-inheritance links are the secondary
    // structure. Version/correspondence semantics don't exist in OCB.
    obj::TraversalProfile profile{};
    profile[static_cast<int>(obj::RelKind::kConfiguration)] =
        1.0 + 0.5 * rng.NextDouble();
    profile[static_cast<int>(obj::RelKind::kVersionHistory)] = 0.05;
    profile[static_cast<int>(obj::RelKind::kCorrespondence)] = 0.05;
    profile[static_cast<int>(obj::RelKind::kInstanceInheritance)] =
        0.2 + 0.4 * rng.NextDouble();

    const obj::TypeId super_type =
        super < 0 ? obj::kInvalidType : schema.classes[super];
    schema.classes.push_back(lattice.DefineType(
        "ocb.c" + std::to_string(c), super_type, base, profile));
    schema.level_of.push_back(level);
    schema.super_of.push_back(super);
  }

  // CAD-type facade for the execution model's insert path: the root plays
  // "composite"; the two deepest classes play "leaf" and "alt".
  int deepest = 1;
  for (int c = 1; c < config.classes; ++c) {
    if (schema.level_of[c] > schema.level_of[deepest]) deepest = c;
  }
  int second = deepest == 1 ? (config.classes > 2 ? 2 : 1) : 1;
  for (int c = 1; c < config.classes; ++c) {
    if (c != deepest && schema.level_of[c] > schema.level_of[second]) {
      second = c;
    }
  }
  schema.cad.composite = schema.classes[0];
  schema.cad.leaf = schema.classes[deepest];
  schema.cad.alt = schema.classes[second];
  return schema;
}

uint64_t GraphDigest(const obj::ObjectGraph& graph) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (obj::ObjectId id = 0; id < graph.size(); ++id) {
    if (!graph.IsLive(id)) continue;
    const obj::DesignObject& o = graph.object(id);
    MixU64(h, id);
    MixU64(h, o.type);
    MixU64(h, o.size_bytes);
    for (const obj::Edge e : graph.edges(id)) {
      MixU64(h, e.target);
      MixU64(h, (static_cast<uint64_t>(e.kind) << 8) |
                    static_cast<uint64_t>(e.dir));
    }
  }
  return h;
}

OcbBuilder::OcbBuilder(obj::ObjectGraph* graph,
                       cluster::ClusterManager* cluster_mgr,
                       buffer::BufferPool* buffer, OcbConfig config)
    : graph_(graph), placer_(graph, cluster_mgr, buffer), config_(config) {
  OODB_CHECK(config_.Validate().ok());
}

OcbCatalog OcbBuilder::Build(const OcbSchema& schema, uint64_t seed) {
  const size_t n = static_cast<size_t>(config_.instances);
  const size_t num_classes = schema.classes.size();
  const size_t refs = static_cast<size_t>(config_.refs_per_object);
  OODB_CHECK_GE(n, num_classes);
  bytes_created_ = 0;

  // Per-purpose streams: adding a draw to one stage can never shift
  // another stage's sequence.
  SplitMix64 root_rng(seed);
  SplitMix64 class_rng = root_rng.Fork();
  SplitMix64 size_rng = root_rng.Fork();
  SplitMix64 ref_rng = root_rng.Fork();
  SplitMix64 inherit_rng = root_rng.Fork();
  SplitMix64 load_rng = root_rng.Fork();

  OcbCatalog catalog;
  catalog.schema = schema;
  catalog.extents.resize(num_classes);

  // The instances get consecutive ids in creation-index order, so the
  // whole graph is planned in index space before any object exists, and
  // each object is then created with its final degree as edge capacity.
  // The generated graph depends on the order of each stream's draws, which
  // DESIGN.md §11 lists per stream.
  const obj::ObjectId first = static_cast<obj::ObjectId>(graph_->size());
  const auto id_of = [first](size_t i) {
    return static_cast<obj::ObjectId>(first + i);
  };

  // Plan: classes and sizes. The first `classes` objects cover each
  // class once (no class may have an empty extent); the rest draw
  // uniformly.
  std::vector<size_t> class_of(n);
  std::vector<uint32_t> size_of(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t c =
        i < num_classes ? i : class_rng.NextBelow(num_classes);
    const uint32_t base = graph_->lattice().info(schema.classes[c]).base_size_bytes;
    size_of[i] = static_cast<uint32_t>(std::clamp(
        static_cast<double>(base) * (0.75 + 0.5 * size_rng.NextDouble()),
        double{workload::kMinObjectBytes}, double{workload::kMaxObjectBytes}));
    class_of[i] = c;
    catalog.extents[c].push_back(id_of(i));
  }

  // Plan: references with the configured locality, target of reference
  // r of object i at ref_target[i * refs + r]. Targets are drawn in
  // creation-index space; gaussian offsets wrap around the extent.
  const ZipfTransform ref_zipf(n, config_.zipf_theta);
  std::vector<uint32_t> ref_target(n * refs);
  std::vector<uint32_t> degree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r < refs; ++r) {
      size_t j = 0;
      switch (config_.locality) {
        case RefLocality::kUniform:
          j = ref_rng.NextBelow(n);
          break;
        case RefLocality::kGaussian: {
          const double offset = ref_rng.Gaussian(
              0.0, config_.gaussian_window * static_cast<double>(n));
          const int64_t raw =
              static_cast<int64_t>(i) + std::llround(offset);
          const int64_t m = static_cast<int64_t>(n);
          j = static_cast<size_t>(((raw % m) + m) % m);
          break;
        }
        case RefLocality::kZipf:
          j = ref_zipf.Sample(ref_rng);
          break;
      }
      if (j == i) j = (j + 1) % n;
      ref_target[i * refs + r] = static_cast<uint32_t>(j);
      ++degree[i];
      ++degree[j];
    }
  }

  // Plan: instance-inheritance links from an earlier superclass instance
  // to each (sampled) subclass instance. One draw per instance regardless
  // of outcome keeps the stream stable.
  constexpr uint32_t kNoSource = UINT32_MAX;
  std::vector<uint32_t> inherit_source(n, kNoSource);
  std::vector<bool> has_heirs(n, false);
  for (size_t i = 0; i < n; ++i) {
    const double p = inherit_rng.NextDouble();
    const int super = schema.super_of[class_of[i]];
    if (super < 0 || p >= config_.inheritance_fraction) continue;
    const std::vector<obj::ObjectId>& extent =
        catalog.extents[static_cast<size_t>(super)];
    // Extents are in creation order, so ids are ascending: candidates are
    // the prefix of instances created before i.
    const size_t count = static_cast<size_t>(
        std::lower_bound(extent.begin(), extent.end(), id_of(i)) -
        extent.begin());
    if (count == 0) continue;
    // The source is an earlier instance, so its creation index is < i.
    const size_t source = extent[inherit_rng.NextBelow(count)] - first;
    inherit_source[i] = static_cast<uint32_t>(source);
    has_heirs[source] = true;
    ++degree[source];
    ++degree[i];
  }

  // Create every instance with exactly its planned degree, then relate in
  // the planned order -- references by (i, r), then inheritance by i -- so
  // every run ends exactly full and each object's edge order is its
  // relate order. The plan is exact, so the columns and the storage
  // directory are reserved exactly, one family per instance.
  size_t edge_slots = 0;
  for (const uint32_t d : degree) edge_slots += d;
  graph_->Reserve(n, edge_slots, n);
  placer_.Reserve(first + n);
  for (size_t i = 0; i < n; ++i) {
    const obj::FamilyId family = graph_->NewFamily("ocb" + std::to_string(i));
    const obj::ObjectId id = graph_->Create(
        family, 0, schema.classes[class_of[i]], size_of[i], degree[i]);
    OODB_CHECK_EQ(id, id_of(i));
    bytes_created_ += size_of[i];
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r < refs; ++r) {
      graph_->Relate(id_of(i), id_of(ref_target[i * refs + r]),
                     obj::RelKind::kConfiguration);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (inherit_source[i] == kNoSource) continue;
    graph_->Relate(id_of(inherit_source[i]), id_of(i),
                   obj::RelKind::kInstanceInheritance);
  }

  // Place: bulk-load through the clustering policy under test, in
  // creation order (the full reference graph is visible to placement, as
  // it is when installing a pre-existing benchmark database), with
  // concurrent read traffic drawn live from the load stream.
  placer_.Place(first, n, [&](obj::ObjectId, size_t pages) {
    return load_rng.NextDouble() < config_.interleaved_read_probability
               ? static_cast<store::PageId>(load_rng.NextBelow(pages))
               : store::kInvalidPage;
  });

  // Catalogue: partitions (partition = "module" to the execution
  // model's write path) and traversal entry points.
  catalog.db.composite_type = schema.cad.composite;
  catalog.db.leaf_type = schema.cad.leaf;
  catalog.db.alt_type = schema.cad.alt;
  const size_t parts = static_cast<size_t>(config_.partitions);
  catalog.db.modules.resize(parts);
  for (size_t p = 0; p < parts; ++p) {
    const size_t begin = p * n / parts;
    const size_t end = (p + 1) * n / parts;
    workload::DesignDatabase::Module& m = catalog.db.modules[p];
    m.root = id_of(begin);
    m.objects.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      m.objects.push_back(id_of(i));
      const bool composite = graph_->HasNeighbor(
          id_of(i), obj::RelKind::kConfiguration, obj::Direction::kDown);
      if (composite) m.composites.push_back(id_of(i));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (has_heirs[i]) catalog.inheritance_roots.push_back(id_of(i));
  }
  return catalog;
}

}  // namespace oodb::ocb
