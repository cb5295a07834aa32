#include "workload/workload_gen.h"

#include <algorithm>

namespace oodb::workload {

namespace {

ZipfTransform ModulePopularity(const DesignDatabase* db, double skew) {
  OODB_CHECK(db != nullptr);
  OODB_CHECK(!db->modules.empty());
  return ZipfTransform(db->modules.size(), skew);
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(const obj::ObjectGraph* graph,
                                     DesignDatabase* db,
                                     WorkloadConfig config, uint64_t seed)
    : graph_(graph),
      db_(db),
      config_(config),
      rng_(seed),
      module_zipf_(ModulePopularity(db, config.module_skew)),
      read_mix_(std::vector<double>(config.read_mix.begin(),
                                    config.read_mix.end())),
      write_mix_(std::vector<double>(config.write_mix.begin(),
                                     config.write_mix.end())) {
  OODB_CHECK(graph != nullptr);
  OODB_CHECK_GT(config.read_write_ratio, 0.0);
}

int WorkloadGenerator::BeginSession() {
  modules_.clear();
  const int count = std::max(1, config_.session_module_count);
  for (int i = 0; i < count; ++i) {
    modules_.push_back(module_zipf_.Sample(rng_));
  }
  module_ = modules_[0];
  return static_cast<int>(rng_.UniformInt(config_.session_min_txns,
                                          config_.session_max_txns));
}

void WorkloadGenerator::PickTransactionModule() {
  if (config_.session_module_count <= 0) {
    // No session-level locality: every transaction samples the module
    // popularity distribution independently.
    module_ = module_zipf_.Sample(rng_);
    return;
  }
  if (modules_.empty()) {
    module_ = 0;
    return;
  }
  if (modules_.size() == 1 ||
      rng_.Bernoulli(config_.primary_module_probability)) {
    module_ = modules_[0];
  } else {
    module_ = modules_[1 + rng_.NextBelow(modules_.size() - 1)];
  }
}

void WorkloadGenerator::SetTargetRatio(double ratio) {
  OODB_CHECK_GT(ratio, 0.0);
  config_.read_write_ratio = ratio;
  ops_read_ = 0;
  ops_written_ = 0;
}

void WorkloadGenerator::RecordOps(uint64_t logical_reads,
                                  uint64_t logical_writes) {
  ops_read_ += logical_reads;
  ops_written_ += logical_writes;
}

double WorkloadGenerator::AchievedRatio() const {
  return ops_written_ == 0
             ? static_cast<double>(ops_read_)
             : static_cast<double>(ops_read_) /
                   static_cast<double>(ops_written_);
}

obj::ObjectId WorkloadGenerator::PickFrom(
    const std::vector<obj::ObjectId>& list) {
  if (list.empty()) return obj::kInvalidObject;
  // Bounded retry over deleted entries; callers treat kInvalidObject as
  // "fall back to a simpler query".
  for (int attempt = 0; attempt < 8; ++attempt) {
    const obj::ObjectId id = list[rng_.NextBelow(list.size())];
    if (graph_->IsLive(id)) return id;
  }
  return obj::kInvalidObject;
}

TransactionSpec WorkloadGenerator::NextTransaction() {
  // Feedback controller: issue writes only while the achieved logical R/W
  // ratio is above target, so the ratio converges to G regardless of how
  // many logical reads each read transaction triggers.
  PickTransactionModule();
  const bool write = static_cast<double>(ops_read_) >
                     config_.read_write_ratio *
                         (static_cast<double>(ops_written_) + 1.0);
  return write ? MakeWrite() : MakeRead();
}

TransactionSpec WorkloadGenerator::MakeRead() {
  DesignDatabase::Module& m = db_->modules[module_];
  TransactionSpec spec;
  spec.module = module_;
  spec.type = static_cast<QueryType>(read_mix_.Sample(rng_));

  switch (spec.type) {
    case QueryType::kSimpleLookup:
      spec.target = PickFrom(m.objects);
      break;
    case QueryType::kComponentRetrieval:
    case QueryType::kCompositeRetrieval:
      spec.target = PickFrom(m.composites);
      break;
    case QueryType::kDescendantVersions:
    case QueryType::kAncestorVersions:
      spec.target = PickFrom(m.versioned);
      break;
    case QueryType::kCorresponding:
      spec.target = PickFrom(m.corresponding);
      break;
    default:
      break;
  }
  if (spec.target == obj::kInvalidObject) {
    // Module lacks that structure (or entries were deleted): degrade to a
    // simple lookup, as a tool would fall back to a by-name fetch.
    spec.type = QueryType::kSimpleLookup;
    spec.target = PickFrom(m.objects);
  }
  if (spec.target == obj::kInvalidObject && !db_->modules.empty()) {
    // Extremely unlikely: the whole module was deleted; retarget root of
    // module 0.
    spec.target = db_->modules[0].root;
  }
  return spec;
}

TransactionSpec WorkloadGenerator::MakeWrite() {
  DesignDatabase::Module& m = db_->modules[module_];
  TransactionSpec spec;
  spec.module = module_;
  spec.type = QueryType::kObjectWrite;
  spec.write_kind = static_cast<WriteKind>(write_mix_.Sample(rng_));

  switch (spec.write_kind) {
    case WriteKind::kSimpleUpdate:
      spec.target = PickFrom(m.objects);
      break;
    case WriteKind::kStructureWrite:
      spec.target = PickFrom(m.objects);
      if (db_->modules.size() > 1 &&
          rng_.Bernoulli(config_.cross_module_write_probability)) {
        // Library-cell reference into another (usually cold) module.
        size_t other_module = rng_.NextBelow(db_->modules.size());
        if (other_module == module_) {
          other_module = (other_module + 1) % db_->modules.size();
        }
        spec.other = PickFrom(db_->modules[other_module].objects);
      } else {
        spec.other = PickFrom(m.objects);
      }
      if (spec.other == spec.target) spec.other = obj::kInvalidObject;
      break;
    case WriteKind::kInsertObject:
      // New component under an existing composite.
      spec.target = PickFrom(m.composites);
      break;
    case WriteKind::kDeriveVersion:
      spec.target = PickFrom(m.objects);
      break;
    case WriteKind::kDeleteObject:
    case WriteKind::kChurnDelete:  // never mix-sampled; kept for -Wswitch
      spec.target = PickFrom(m.objects);
      break;
  }
  if (spec.target == obj::kInvalidObject) {
    spec.write_kind = WriteKind::kInsertObject;
    spec.target = m.root;
  }
  return spec;
}

}  // namespace oodb::workload
