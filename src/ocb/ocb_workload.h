#ifndef SEMCLUST_OCB_OCB_WORKLOAD_H_
#define SEMCLUST_OCB_OCB_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "objmodel/object_graph.h"
#include "ocb/ocb_builder.h"
#include "ocb/ocb_config.h"
#include "util/random.h"
#include "workload/transaction_source.h"

/// \file
/// The OCB transaction set as a TransactionSource: sessions of 5-20
/// transactions against (Zipf-)popular partitions, each transaction one of
/// the four OCB read operations — set-oriented lookup, simple traversal,
/// hierarchy traversal, stochastic traversal — or a write. The same
/// logical-R/W feedback controller as the engineering-design generator
/// keeps the measured ratio on target, so OCB cells are directly
/// comparable to OCT cells at equal G.

namespace oodb::ocb {

/// Produces OCB TransactionSpecs for the execution model.
class OcbGenerator : public workload::TransactionSource {
 public:
  /// `db` is the live partition catalogue (updated externally as the model
  /// applies inserts/deletes); `catalog` supplies the immutable class
  /// extents and inheritance entry points. Both must outlive the
  /// generator.
  OcbGenerator(const obj::ObjectGraph* graph, workload::DesignDatabase* db,
               const OcbCatalog* catalog, OcbConfig config,
               double read_write_ratio, uint64_t seed);

  int BeginSession() override;
  workload::TransactionSpec NextTransaction() override;
  void RecordOps(uint64_t logical_reads, uint64_t logical_writes) override;
  void SetTargetRatio(double ratio) override;
  double AchievedRatio() const override;

  const OcbConfig& config() const { return config_; }

 private:
  obj::ObjectId PickFrom(const std::vector<obj::ObjectId>& list);
  workload::TransactionSpec MakeRead();
  workload::TransactionSpec MakeWrite();
  workload::TransactionSpec MakeChurnWrite();

  const obj::ObjectGraph* graph_;
  workload::DesignDatabase* db_;
  const OcbCatalog* catalog_;
  OcbConfig config_;
  double target_ratio_;
  Rng rng_;
  // Partition popularity; the partition count is fixed once the build
  // ends.
  ZipfTransform partition_zipf_;
  DiscreteDistribution read_mix_;
  DiscreteDistribution write_mix_;
  std::vector<size_t> partitions_;  // session working set; [0] is primary
  size_t partition_ = 0;            // partition of the txn being built
  uint64_t ops_read_ = 0;
  uint64_t ops_written_ = 0;
  // Structural-churn burst state (OcbConfig churn knobs). All churn
  // randomness is drawn only when churn is enabled, so pre-churn runs see
  // an unchanged RNG sequence.
  int churn_remaining_ = 0;   // writes left in the open burst
  uint64_t churn_step_ = 0;   // cycles delete -> insert -> re-reference
};

}  // namespace oodb::ocb

#endif  // SEMCLUST_OCB_OCB_WORKLOAD_H_
