#ifndef SEMCLUST_WORKLOAD_WORKLOAD_GEN_H_
#define SEMCLUST_WORKLOAD_WORKLOAD_GEN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "objmodel/object_graph.h"
#include "util/random.h"
#include "workload/db_builder.h"
#include "workload/query.h"
#include "workload/transaction_source.h"
#include "workload/workload_config.h"

/// \file
/// Session and transaction generation (paper §4.1): user sessions of 5-20
/// transactions against a (Zipf-)popular design module, each transaction
/// one of the seven query types. The generator balances reads and writes
/// with a feedback controller so the *logical-operation* read/write ratio
/// converges to the configured parameter G — matching how the paper
/// measures R/W at the buffer-manager level, where one composite retrieval
/// counts as many reads.

namespace oodb::workload {

/// Produces TransactionSpecs for the execution model.
class WorkloadGenerator : public TransactionSource {
 public:
  /// `db` must outlive the generator and is updated externally as the
  /// model applies inserts/deletes.
  WorkloadGenerator(const obj::ObjectGraph* graph, DesignDatabase* db,
                    WorkloadConfig config, uint64_t seed);

  /// Starts a new session: picks the session's working set of modules by
  /// popularity and returns the session length (5-20 transactions).
  int BeginSession() override;

  /// Generates the next transaction of the current session.
  TransactionSpec NextTransaction() override;

  /// Feedback from the execution model: how many logical reads/writes the
  /// last transactions performed. Drives the R/W controller.
  void RecordOps(uint64_t logical_reads, uint64_t logical_writes) override;

  /// Switches the target read/write ratio mid-run (the paper's §3.3
  /// observation: phases of one application span R/W 0.52..170). The
  /// controller's counters reset so the new phase converges to the new
  /// target rather than paying off the old phase's balance.
  void SetTargetRatio(double ratio) override;

  /// The primary module index of the current session.
  size_t current_module() const { return modules_.empty() ? 0 : modules_[0]; }
  /// The session's full working set of modules.
  const std::vector<size_t>& session_modules() const { return modules_; }

  /// Achieved logical R/W ratio so far.
  double AchievedRatio() const override;

  const WorkloadConfig& config() const { return config_; }

 private:
  /// Picks a live object from a list, or kInvalidObject if empty.
  obj::ObjectId PickFrom(const std::vector<obj::ObjectId>& list);

  /// Chooses which of the session's modules the next transaction targets.
  void PickTransactionModule();

  TransactionSpec MakeRead();
  TransactionSpec MakeWrite();

  const obj::ObjectGraph* graph_;
  DesignDatabase* db_;
  WorkloadConfig config_;
  Rng rng_;
  // Module popularity; the module count is fixed once the build ends.
  ZipfTransform module_zipf_;
  DiscreteDistribution read_mix_;
  DiscreteDistribution write_mix_;
  std::vector<size_t> modules_;  // session working set; [0] is primary
  size_t module_ = 0;            // module of the transaction being built
  uint64_t ops_read_ = 0;
  uint64_t ops_written_ = 0;
};

}  // namespace oodb::workload

#endif  // SEMCLUST_WORKLOAD_WORKLOAD_GEN_H_
