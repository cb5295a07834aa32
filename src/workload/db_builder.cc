#include "workload/db_builder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>

namespace oodb::workload {

size_t DesignDatabase::TotalObjects() const {
  size_t total = 0;
  for (const Module& m : modules) total += m.objects.size();
  return total;
}

CadTypes RegisterCadTypes(obj::TypeLattice& lattice) {
  CadTypes types;
  // Profiles: CAD navigation is configuration-dominant; version history is
  // the main inheritance path; alternate representations are reached via
  // correspondence (paper §2.1 / §3.5).
  types.composite = lattice.DefineType(
      "cell", obj::kInvalidType, 48, {6.0, 1.5, 1.0, 0.5},
      {{"bbox", 16, true, 2.0, 0.1},
       {"geometry", 1400, true, 0.05, 0.02},
       {"label", 24, false, 0.3, 0.0}});
  types.leaf = lattice.DefineType(
      "primitive", types.composite, 32, {5.0, 1.0, 0.8, 0.5},
      {{"params", 32, true, 1.0, 0.05}});
  types.alt = lattice.DefineType(
      "netcell", obj::kInvalidType, 40, {3.0, 1.0, 4.0, 0.5},
      {{"netlist", 600, true, 0.1, 0.05}});
  return types;
}

namespace {

// DbBuilder's column reservation (DESIGN.md §12): it samples module plans
// until they hold this share of the target bytes, and at least this many
// modules, and raises each ratio by this many standard errors.
constexpr double kReservationSampleShare = 1.0 / 32;
constexpr size_t kReservationMinSampleModules = 32;
constexpr double kReservationStandardErrors = 4.0;

}  // namespace

namespace internal {

/// One step of a module-construction plan.
struct PlanStep {
  enum class Kind : uint8_t { kCreate, kDerive } kind = Kind::kCreate;
  obj::TypeId type = obj::kInvalidType;
  uint32_t size_bytes = 0;
  bool is_composite = false;
  /// Local index (within the plan) of the configuration parent, or -1.
  int parent = -1;
  /// Local index of the correspondence counterpart, or -1.
  int corresponds = -1;
  /// kDerive: local index of the object to derive a version of.
  int derive_of = -1;
  /// Edges of the step's object once the whole plan has executed: the
  /// exact capacity of its edge run.
  uint32_t degree = 0;
  /// The step's correspondence-group side (PlanDegrees), or -1.
  int corr_side = -1;
};

}  // namespace internal

using internal::PlanStep;

/// A stream's in-progress module: its plan and execution cursor. The plan
/// keeps its capacity from module to module. Every step creates one object,
/// so `module.objects` maps plan index -> ObjectId.
struct DbBuilder::StreamState {
  std::vector<PlanStep> plan;
  size_t cursor = 0;
  DesignDatabase::Module module;
  obj::FamilyId family = obj::kInvalidFamily;
  bool Done() const { return cursor >= plan.size(); }
};

DbBuilder::DbBuilder(obj::ObjectGraph* graph,
                     cluster::ClusterManager* cluster_mgr,
                     buffer::BufferPool* buffer, DatabaseSpec spec)
    : graph_(graph), placer_(graph, cluster_mgr, buffer), spec_(spec),
      rng_(spec.seed) {
  OODB_CHECK_GE(spec_.concurrent_streams, 1);
}

DbBuilder::~DbBuilder() = default;

uint32_t DbBuilder::SampleObjectSize(Rng& rng, bool composite) {
  // Exponential with a floor: many small objects, occasional large ones.
  const double mean = static_cast<double>(spec_.mean_object_bytes);
  double size = 0.4 * mean + rng.Exponential(0.6 * mean);
  if (composite) size += spec_.composite_extra_bytes;
  return static_cast<uint32_t>(
      std::clamp(size, double{kMinObjectBytes}, double{kMaxObjectBytes}));
}

void DbBuilder::PlaceBatch() {
  placer_.Place(batch_first_, batch_count_,
                [this](obj::ObjectId id, size_t pages) {
                  const RecordedRead& r = reads_[id - batch_first_];
                  return r.read ? static_cast<store::PageId>(
                                      BelowFromDraw(r.draw, pages))
                                : store::kInvalidPage;
                });
  batch_count_ = 0;
  reads_.clear();
}

void DbBuilder::PlanModule(Rng& rng, std::vector<PlanStep>& plan) {
  plan.clear();
  const FanoutRange fanout = FanoutFor(spec_.density);

  // --- Primary representation: depth-first configuration tree. ---
  plan.push_back(PlanStep{PlanStep::Kind::kCreate, types_.composite,
                          SampleObjectSize(rng, true), true, -1, -1, -1});
  root_components_.clear();
  // Depth-first expansion over planned composites: (plan index, depth).
  plan_stack_.assign(1, {0, 0});
  while (!plan_stack_.empty()) {
    const auto [parent, depth] = plan_stack_.back();
    plan_stack_.pop_back();
    const int children = static_cast<int>(
        rng.UniformInt(fanout.min_fanout, fanout.max_fanout));
    for (int c = 0; c < children; ++c) {
      const bool composite = depth + 1 < spec_.hierarchy_depth &&
                             rng.Bernoulli(spec_.composite_fraction);
      const obj::TypeId type = composite ? types_.composite : types_.leaf;
      plan.push_back(PlanStep{PlanStep::Kind::kCreate, type,
                              SampleObjectSize(rng, composite), composite,
                              parent, -1, -1});
      const int idx = static_cast<int>(plan.size() - 1);
      if (parent == 0) root_components_.push_back(idx);
      if (composite) plan_stack_.push_back({idx, depth + 1});
    }
  }

  // --- Alternate representations with correspondences. ---
  for (int rep = 0; rep < spec_.alt_representations; ++rep) {
    plan.push_back(PlanStep{PlanStep::Kind::kCreate, types_.alt,
                            SampleObjectSize(rng, true), true, -1, /*root=*/0,
                            -1});
    const int alt_root = static_cast<int>(plan.size() - 1);
    for (int counterpart : root_components_) {
      plan.push_back(PlanStep{PlanStep::Kind::kCreate, types_.alt,
                              SampleObjectSize(rng, false), false, alt_root,
                              counterpart, -1});
    }
  }

  // --- Version chains (instance-to-instance inheritance). ---
  // Every derive step follows every create step (PlanDegrees relies on it).
  const int base_count = static_cast<int>(plan.size());
  for (int i = 0; i < base_count; ++i) {
    if (!rng.Bernoulli(spec_.version_fraction)) continue;
    int head = i;
    const double p_stop = 1.0 / (1.0 + spec_.version_chain_mean);
    do {
      // A heir has its parent's type.
      plan.push_back(PlanStep{PlanStep::Kind::kDerive,
                              plan[static_cast<size_t>(head)].type, 0, false,
                              -1, -1, head});
      head = static_cast<int>(plan.size() - 1);
    } while (!rng.Bernoulli(p_stop));
  }
  PlanDegrees(plan);
}

void DbBuilder::PlanDegrees(std::vector<PlanStep>& plan) {
  // Configuration, version history and instance inheritance each add one
  // edge at both ends. Correspondence is counted per group: the objects a
  // chain of correspondences connects. A create step joins its
  // counterpart's group on the other side, and the counterpart is the only
  // object on its own side (no derive step has run yet), so every group is
  // complete bipartite. A derive step joins its parent's group on the
  // parent's side and, inheriting the parent's correspondences, links to
  // the whole other side, so the group stays complete bipartite. Each
  // object therefore ends with one correspondence per member of the other
  // side of its group.
  corr_side_size_.clear();
  for (PlanStep& step : plan) {
    if (step.parent >= 0) {
      ++step.degree;
      ++plan[static_cast<size_t>(step.parent)].degree;
    }
    if (step.corresponds >= 0) {
      int& counterpart = plan[static_cast<size_t>(step.corresponds)].corr_side;
      if (counterpart < 0) {
        counterpart = static_cast<int>(corr_side_size_.size());
        corr_side_size_.push_back(1);
        corr_side_size_.push_back(0);
      }
      OODB_CHECK_EQ(corr_side_size_[static_cast<size_t>(counterpart)], 1u);
      step.corr_side = counterpart ^ 1;
    } else if (step.kind == PlanStep::Kind::kDerive) {
      // Version history, plus instance inheritance if the type links it.
      PlanStep& of = plan[static_cast<size_t>(step.derive_of)];
      const uint32_t links =
          heir_layouts_[step.type].LinksInstanceInheritance() ? 2u : 1u;
      step.degree += links;
      of.degree += links;
      step.corr_side = of.corr_side;
    }
    if (step.corr_side >= 0) {
      ++corr_side_size_[static_cast<size_t>(step.corr_side)];
    }
  }
  for (PlanStep& step : plan) {
    if (step.corr_side >= 0) {
      step.degree += corr_side_size_[static_cast<size_t>(step.corr_side ^ 1)];
    }
  }
}

void DbBuilder::ReserveColumns(uint64_t run_transactions) {
  // A sample of module plans drawn from a stream of their own, so the
  // build's own draws are untouched. Per plan: objects, bytes, edges and
  // the module itself.
  enum Column { kObjects, kBytes, kEdges, kModules, kColumns };
  Rng sample_rng(~spec_.seed);
  std::vector<PlanStep> plan;
  const auto target = static_cast<double>(spec_.target_bytes);
  std::vector<std::array<double, kColumns>> sample;
  std::array<double, kColumns> total{};
  while (sample.size() < kReservationMinSampleModules ||
         total[kBytes] < kReservationSampleShare * target) {
    PlanModule(sample_rng, plan);
    std::array<double, kColumns>& module = sample.emplace_back();
    module = {static_cast<double>(plan.size()), 0, 0, 1};
    for (const PlanStep& step : plan) {
      module[kBytes] += step.kind == PlanStep::Kind::kCreate
                            ? step.size_bytes
                            : heir_layouts_[step.type].size_bytes;
      module[kEdges] += step.degree;
    }
    for (int c = 0; c < kColumns; ++c) total[c] += module[c];
  }
  // The ratio of two sample totals, raised by kReservationStandardErrors
  // standard errors of the ratio estimator, so a build outruns the
  // reservation only on a draw that far from the sample.
  const auto upper_ratio = [&](Column num, Column den) {
    const double ratio = total[num] / total[den];
    double squares = 0;
    for (const auto& module : sample) {
      const double residual = module[num] - ratio * module[den];
      squares += residual * residual;
    }
    const double n = static_cast<double>(sample.size());
    const double standard_error =
        std::sqrt(squares / (n * (n - 1))) / (total[den] / n);
    return ratio + kReservationStandardErrors * standard_error;
  };
  // The modules and objects created until the target is reached, plus one
  // mean module per stream still in flight then; edge slots at the edges
  // per object. Then room for the run: per transaction one object, and
  // twice the edges per object, since a transaction that links an object
  // built exactly full relocates its run at twice the size.
  const double streams = spec_.concurrent_streams;
  const double build_objects =
      std::ceil(target * upper_ratio(kObjects, kBytes) +
                streams * total[kObjects] / total[kModules]);
  const auto run = static_cast<double>(run_transactions);
  reservation_.objects = static_cast<size_t>(build_objects + run);
  reservation_.edge_slots = static_cast<size_t>(std::ceil(
      (build_objects + 2 * run) * upper_ratio(kEdges, kObjects)));
  reservation_.modules = static_cast<size_t>(
      std::ceil(target * upper_ratio(kModules, kBytes) + streams));
  graph_->Reserve(reservation_.objects, reservation_.edge_slots,
                  reservation_.modules);
  placer_.Reserve(graph_->size() + reservation_.objects);
}

void DbBuilder::ExecuteStep(StreamState& stream) {
  const PlanStep& step = stream.plan[stream.cursor];
  DesignDatabase::Module& module = stream.module;
  obj::ObjectId id = obj::kInvalidObject;

  if (step.kind == PlanStep::Kind::kCreate) {
    id = graph_->Create(stream.family, 1, step.type, step.size_bytes,
                        step.degree);
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
    if (step.is_composite) module.composites.push_back(id);
    if (module.root == obj::kInvalidObject) module.root = id;
  } else {
    const obj::ObjectId of =
        module.objects[static_cast<size_t>(step.derive_of)];
    id = obj::DeriveVersion(*graph_, of, heir_layouts_[step.type],
                            step.degree)
             .heir;
    module.versioned.push_back(of);
    module.versioned.push_back(id);
  }

  module.objects.push_back(id);
  ++stream.cursor;
  bytes_created_ += graph_->object(id).size_bytes;

  if (batch_count_ == 0) batch_first_ = id;
  OODB_CHECK_EQ(id, batch_first_ + batch_count_);  // ids are consecutive
  ++batch_count_;
  // Concurrent read traffic from other tools sharing the repository,
  // drawn here, at its place in the stream, and resolved when the object
  // is placed: the page it reads depends on the page count then.
  if (placer_.interleaved_reads()) {
    RecordedRead& r = reads_.emplace_back();
    r.read = rng_.Bernoulli(spec_.interleaved_read_probability);
    if (r.read) r.draw = rng_.NextU64();
  }
  if (batch_count_ == placer_.batch_objects()) PlaceBatch();
}

DesignDatabase DbBuilder::Build(CadTypes types, uint64_t run_transactions) {
  types_ = types;
  const obj::TypeLattice& lattice = graph_->lattice();
  heir_layouts_.resize(lattice.size());
  for (obj::TypeId t = 0; t < lattice.size(); ++t) {
    heir_layouts_[t] = obj::LayoutHeir(lattice, t, inherit_model_);
  }
  DesignDatabase db;
  db.composite_type = types.composite;
  db.leaf_type = types.leaf;
  db.alt_type = types.alt;
  ReserveColumns(run_transactions);
  db.modules.reserve(reservation_.modules);

  // Concurrent checkin streams, advanced round-robin one object per turn:
  // this is the multi-user arrival order a shared CAD repository sees.
  std::vector<StreamState> streams(
      static_cast<size_t>(spec_.concurrent_streams));
  int module_index = 0;
  auto start_module = [&](StreamState& s) {
    PlanModule(rng_, s.plan);
    s.cursor = 0;
    // Build "M<n>" via append: `"M" + std::to_string(n)` trips GCC 12's
    // -Werror=restrict false positive (PR105651) at -O3.
    std::string module_name("M");
    module_name += std::to_string(module_index++);
    // Every plan step creates exactly one object of the module, and the
    // catalogue lists are sized exactly from the plan.
    s.family = graph_->NewFamily(module_name);
    size_t composites = 0, corresponding = 0, versioned = 0;
    for (const PlanStep& step : s.plan) {
      composites += step.is_composite ? 1 : 0;
      corresponding += step.corresponds >= 0 ? 2 : 0;
      versioned += step.kind == PlanStep::Kind::kDerive ? 2 : 0;
    }
    s.module.objects.reserve(s.plan.size());
    s.module.composites.reserve(composites);
    s.module.corresponding.reserve(corresponding);
    s.module.versioned.reserve(versioned);
  };
  for (auto& s : streams) start_module(s);

  bool work_left = true;
  while (work_left) {
    work_left = false;
    for (auto& s : streams) {
      if (s.Done()) {
        // Module complete: commit it to the catalogue; start another if the
        // database is still below target.
        if (!s.module.objects.empty()) {
          db.modules.push_back(std::move(s.module));
          s.module = DesignDatabase::Module{};
        }
        if (bytes_created_ < spec_.target_bytes) {
          start_module(s);
        } else {
          continue;
        }
      }
      ExecuteStep(s);
      work_left = true;
    }
  }
  // Flush any modules completed on the final lap.
  for (auto& s : streams) {
    if (s.Done() && !s.module.objects.empty()) {
      db.modules.push_back(std::move(s.module));
    }
  }
  if (batch_count_ > 0) PlaceBatch();
  return db;
}

}  // namespace oodb::workload
