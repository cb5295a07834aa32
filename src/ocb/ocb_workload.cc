#include "ocb/ocb_workload.h"

#include <algorithm>

namespace oodb::ocb {

namespace {

// Session shape mirrors the engineering-design generator (paper §4.1):
// 5-20 transactions over a small working set of popular partitions.
constexpr int kSessionMinTxns = 5;
constexpr int kSessionMaxTxns = 20;
constexpr int kSessionPartitions = 3;
constexpr double kPartitionSkew = 0.6;
constexpr double kPrimaryPartitionProbability = 0.5;
constexpr double kCrossPartitionWriteProbability = 0.2;

ZipfTransform PartitionPopularity(const workload::DesignDatabase* db) {
  OODB_CHECK(db != nullptr);
  OODB_CHECK(!db->modules.empty());
  return ZipfTransform(db->modules.size(), kPartitionSkew);
}

// Write mix in WriteKind order {simple update, structure write, insert,
// derive version, delete}. OCB has no version semantics, so
// derive-version is off.
const std::vector<double>& OcbWriteMix() {
  static const std::vector<double> mix = {0.50, 0.25, 0.15, 0.0, 0.10};
  return mix;
}

}  // namespace

OcbGenerator::OcbGenerator(const obj::ObjectGraph* graph,
                           workload::DesignDatabase* db,
                           const OcbCatalog* catalog, OcbConfig config,
                           double read_write_ratio, uint64_t seed)
    : graph_(graph),
      db_(db),
      catalog_(catalog),
      config_(config),
      target_ratio_(read_write_ratio),
      rng_(seed),
      partition_zipf_(PartitionPopularity(db)),
      read_mix_(std::vector<double>(config.read_mix.begin(),
                                    config.read_mix.end())),
      write_mix_(OcbWriteMix()) {
  OODB_CHECK(graph != nullptr);
  OODB_CHECK(catalog != nullptr);
  OODB_CHECK_GT(read_write_ratio, 0.0);
}

int OcbGenerator::BeginSession() {
  partitions_.clear();
  for (int i = 0; i < kSessionPartitions; ++i) {
    partitions_.push_back(partition_zipf_.Sample(rng_));
  }
  partition_ = partitions_[0];
  return static_cast<int>(rng_.UniformInt(kSessionMinTxns, kSessionMaxTxns));
}

void OcbGenerator::SetTargetRatio(double ratio) {
  OODB_CHECK_GT(ratio, 0.0);
  target_ratio_ = ratio;
  ops_read_ = 0;
  ops_written_ = 0;
}

void OcbGenerator::RecordOps(uint64_t logical_reads,
                             uint64_t logical_writes) {
  ops_read_ += logical_reads;
  ops_written_ += logical_writes;
}

double OcbGenerator::AchievedRatio() const {
  return ops_written_ == 0
             ? static_cast<double>(ops_read_)
             : static_cast<double>(ops_read_) /
                   static_cast<double>(ops_written_);
}

obj::ObjectId OcbGenerator::PickFrom(const std::vector<obj::ObjectId>& list) {
  if (list.empty()) return obj::kInvalidObject;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const obj::ObjectId id = list[rng_.NextBelow(list.size())];
    if (graph_->IsLive(id)) return id;
  }
  return obj::kInvalidObject;
}

workload::TransactionSpec OcbGenerator::NextTransaction() {
  // Same feedback controller as WorkloadGenerator: write only while the
  // achieved logical R/W ratio exceeds the target.
  if (partitions_.empty() || partitions_.size() == 1 ||
      rng_.Bernoulli(kPrimaryPartitionProbability)) {
    partition_ = partitions_.empty() ? 0 : partitions_[0];
  } else {
    partition_ = partitions_[1 + rng_.NextBelow(partitions_.size() - 1)];
  }
  const bool write =
      static_cast<double>(ops_read_) >
      target_ratio_ * (static_cast<double>(ops_written_) + 1.0);
  return write ? MakeWrite() : MakeRead();
}

workload::TransactionSpec OcbGenerator::MakeRead() {
  workload::DesignDatabase::Module& m = db_->modules[partition_];
  workload::TransactionSpec spec;
  spec.module = partition_;
  spec.type = static_cast<workload::QueryType>(
      static_cast<int>(workload::QueryType::kOcbSetLookup) +
      static_cast<int>(read_mix_.Sample(rng_)));

  switch (spec.type) {
    case workload::QueryType::kOcbSetLookup: {
      // Fetch a set of instances of one class (uniformly chosen extent).
      const std::vector<obj::ObjectId>& extent =
          catalog_->extents[rng_.NextBelow(catalog_->extents.size())];
      for (int i = 0; i < config_.set_lookup_size; ++i) {
        const obj::ObjectId id = PickFrom(extent);
        if (id == obj::kInvalidObject) continue;
        if (spec.target == obj::kInvalidObject) {
          spec.target = id;
        } else {
          spec.targets.push_back(id);
        }
      }
      break;
    }
    case workload::QueryType::kOcbSimpleTraversal:
      spec.target = PickFrom(m.composites);
      spec.depth = config_.traversal_depth;
      break;
    case workload::QueryType::kOcbHierarchyTraversal:
      spec.target = PickFrom(catalog_->inheritance_roots);
      spec.depth = config_.traversal_depth;
      break;
    case workload::QueryType::kOcbStochasticTraversal:
      spec.target = PickFrom(m.objects);
      // The walk's length is bounded by objects accessed, not tree depth;
      // give it room to show its backtracking behaviour.
      spec.depth = 4 * config_.traversal_depth;
      break;
    default:
      break;
  }
  if (spec.target == obj::kInvalidObject) {
    // Partition lacks that structure (or entries were deleted): degrade to
    // a single-object set lookup.
    spec.type = workload::QueryType::kOcbSetLookup;
    spec.targets.clear();
    spec.target = PickFrom(m.objects);
  }
  if (spec.target == obj::kInvalidObject && !db_->modules.empty()) {
    spec.target = db_->modules[0].root;
  }
  return spec;
}

workload::TransactionSpec OcbGenerator::MakeWrite() {
  if (config_.churn_enabled()) {
    if (churn_remaining_ == 0 &&
        rng_.Bernoulli(config_.churn_probability)) {
      churn_remaining_ = config_.churn_burst_length;
    }
    if (churn_remaining_ > 0) {
      --churn_remaining_;
      return MakeChurnWrite();
    }
  }
  workload::DesignDatabase::Module& m = db_->modules[partition_];
  workload::TransactionSpec spec;
  spec.module = partition_;
  spec.type = workload::QueryType::kObjectWrite;
  spec.write_kind =
      static_cast<workload::WriteKind>(write_mix_.Sample(rng_));

  switch (spec.write_kind) {
    case workload::WriteKind::kSimpleUpdate:
      spec.target = PickFrom(m.objects);
      break;
    case workload::WriteKind::kStructureWrite:
      spec.target = PickFrom(m.objects);
      if (db_->modules.size() > 1 &&
          rng_.Bernoulli(kCrossPartitionWriteProbability)) {
        size_t other = rng_.NextBelow(db_->modules.size());
        if (other == partition_) {
          other = (other + 1) % db_->modules.size();
        }
        spec.other = PickFrom(db_->modules[other].objects);
      } else {
        spec.other = PickFrom(m.objects);
      }
      if (spec.other == spec.target) spec.other = obj::kInvalidObject;
      break;
    case workload::WriteKind::kInsertObject:
      spec.target = PickFrom(m.composites);
      break;
    case workload::WriteKind::kDeriveVersion:
    case workload::WriteKind::kDeleteObject:
    case workload::WriteKind::kChurnDelete:  // never mix-sampled; -Wswitch
      spec.target = PickFrom(m.objects);
      break;
  }
  if (spec.target == obj::kInvalidObject) {
    spec.write_kind = workload::WriteKind::kInsertObject;
    spec.target = m.root;
  }
  return spec;
}

workload::TransactionSpec OcbGenerator::MakeChurnWrite() {
  workload::DesignDatabase::Module& m = db_->modules[partition_];
  workload::TransactionSpec spec;
  spec.module = partition_;
  spec.type = workload::QueryType::kObjectWrite;

  // The burst cycles delete -> insert -> re-reference: deletes punch holes
  // into mature pages, inserts land in unrelated ones, and cross-partition
  // re-references redirect future traversals away from the original
  // placement — together they age co-location the way the dynamic-policy
  // literature's churn phases do.
  switch (churn_step_++ % 3) {
    case 0:
      spec.write_kind = workload::WriteKind::kChurnDelete;
      spec.target = PickFrom(m.objects);
      break;
    case 1:
      spec.write_kind = workload::WriteKind::kInsertObject;
      spec.target = PickFrom(m.composites);
      break;
    default:
      spec.write_kind = workload::WriteKind::kStructureWrite;
      spec.target = PickFrom(m.objects);
      if (db_->modules.size() > 1 &&
          rng_.Bernoulli(config_.churn_cross_partition)) {
        size_t other = rng_.NextBelow(db_->modules.size());
        if (other == partition_) {
          other = (other + 1) % db_->modules.size();
        }
        spec.other = PickFrom(db_->modules[other].objects);
      } else {
        spec.other = PickFrom(m.objects);
      }
      if (spec.other == spec.target) spec.other = obj::kInvalidObject;
      break;
  }
  if (spec.target == obj::kInvalidObject) {
    spec.write_kind = workload::WriteKind::kInsertObject;
    spec.target = m.root;
  }
  return spec;
}

}  // namespace oodb::ocb
