#ifndef SEMCLUST_DYN_DYN_CONFIG_H_
#define SEMCLUST_DYN_DYN_CONFIG_H_

#include <cstdint>
#include <string>

#include "util/status.h"

/// \file
/// Configuration for the dynamic re-clustering subsystem (src/dyn/).
///
/// Header-only on purpose: `cluster::ClusterConfig` embeds a DynConfig so
/// the dynamic policy rides the existing clustering sweep axis (labels,
/// scenario files, policy registry) without a cluster -> dyn library
/// dependency. The runtime machinery (AccessTracker / ReclusterPolicy /
/// Reorganizer) lives in the semclust_dyn library and is only linked where
/// it is used (core).

namespace oodb::dyn {

/// The dynamic re-clustering policy family (DESIGN.md §13).
enum class PolicyKind : uint8_t {
  kNone = 0,  ///< write-time placement only (the paper's model, unchanged)
  kDstc = 1,  ///< DSTC: threshold-triggered reorganisation from access stats
  kOpcf = 2,  ///< OPCF: DSTC trigger, reorg deferred while I/O queues deep
};
inline constexpr int kNumPolicyKinds = 3;

inline constexpr PolicyKind kAllPolicyKinds[] = {
    PolicyKind::kNone, PolicyKind::kDstc, PolicyKind::kOpcf};

/// Canonical display name ("No_Dynamic", "DSTC", "OPCF").
inline const char* PolicyKindName(PolicyKind p) {
  switch (p) {
    case PolicyKind::kNone:
      return "No_Dynamic";
    case PolicyKind::kDstc:
      return "DSTC";
    case PolicyKind::kOpcf:
      return "OPCF";
  }
  return "?";
}

/// Knobs of the dynamic re-clustering subsystem. All defaults are inert:
/// with `policy == kNone` no tracker is built, no statistics are kept, and
/// the simulation is byte-identical to a build without src/dyn/.
struct DynConfig {
  PolicyKind policy = PolicyKind::kNone;

  /// Observation period (DSTC "analysis" cadence): number of read
  /// transactions between consolidations of the raw statistics into
  /// clustering units.
  int observation_period = 256;

  /// Multiplicative decay applied to every heat / link weight at each
  /// consolidation; entries decayed below 0.5 are dropped, which bounds
  /// table growth to recently-hot objects.
  double heat_decay = 0.5;

  /// Hard caps on the statistics tables (DSTC's bounded-memory argument):
  /// new objects / links arriving while the table is full are counted as
  /// dropped, never resized.
  int max_tracked_objects = 4096;
  int max_tracked_links = 8192;

  /// An object becomes a clustering-unit anchor when its accumulated heat
  /// reaches this threshold within the observation window.
  double trigger_threshold = 8.0;

  /// Cap on members per clustering unit (anchor excluded).
  int max_unit_size = 16;

  /// Cap on object moves charged to any single transaction's reorg drain.
  int max_moves_per_txn = 64;

  /// OPCF: reorganisation is deferred while the deepest simulated disk
  /// queue (queued + in service) exceeds this watermark...
  double opcf_queue_watermark = 2.0;
  /// ...and then drained at most this many units per transaction.
  int opcf_batch = 4;

  bool enabled() const { return policy != PolicyKind::kNone; }

  friend bool operator==(const DynConfig&, const DynConfig&) = default;

  /// Suffix appended to ClusterConfig::Label(): "", "+DSTC", or "+OPCF".
  /// Empty when disabled so every pre-existing label is unchanged.
  std::string LabelSuffix() const {
    if (!enabled()) return "";
    return std::string("+") + PolicyKindName(policy);
  }

  Status Validate() const {
    if (observation_period <= 0)
      return Status::InvalidArgument(
          "dyn: observation_period must be positive");
    if (heat_decay < 0.0 || heat_decay >= 1.0)
      return Status::InvalidArgument("dyn: heat_decay must be in [0, 1)");
    if (max_tracked_objects <= 0 || max_tracked_links <= 0)
      return Status::InvalidArgument(
          "dyn: max_tracked_objects / max_tracked_links must be positive");
    if (trigger_threshold <= 0.0)
      return Status::InvalidArgument(
          "dyn: trigger_threshold must be positive");
    if (max_unit_size <= 0)
      return Status::InvalidArgument("dyn: max_unit_size must be positive");
    if (max_moves_per_txn <= 0)
      return Status::InvalidArgument(
          "dyn: max_moves_per_txn must be positive");
    if (opcf_queue_watermark < 0.0)
      return Status::InvalidArgument(
          "dyn: opcf_queue_watermark must be non-negative");
    if (opcf_batch <= 0)
      return Status::InvalidArgument("dyn: opcf_batch must be positive");
    return Status::Ok();
  }
};

}  // namespace oodb::dyn

#endif  // SEMCLUST_DYN_DYN_CONFIG_H_
