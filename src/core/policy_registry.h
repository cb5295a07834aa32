#ifndef SEMCLUST_CORE_POLICY_REGISTRY_H_
#define SEMCLUST_CORE_POLICY_REGISTRY_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "buffer/policy.h"
#include "cluster/policy.h"
#include "core/model_config.h"
#include "core/sharding.h"
#include "dyn/dyn_config.h"
#include "objmodel/object_id.h"
#include "ocb/ocb_config.h"
#include "workload/workload_config.h"

/// \file
/// String-keyed policy resolution: every policy axis of Table 4.1 —
/// buffer replacement (K), prefetch (M), clustering candidate pool (H),
/// page splitting (I) — plus the workload density levels (F) and the
/// relationship kinds (for hint axes) resolves by name. Each policy
/// family self-registers under its canonical `*Name()` label (so the
/// registry can never drift from the labels the reports and benches
/// print) plus a set of ergonomic aliases; scenario files and CLIs look
/// names up here instead of hard-coding enum values, which is what lets
/// a new policy level become available to every declarative experiment
/// by registering itself once.

namespace oodb::core {

/// The policy axes the registry resolves.
enum class PolicyAxis {
  kReplacement,  ///< buffer::ReplacementPolicy (Table 4.1, K)
  kPrefetch,     ///< buffer::PrefetchPolicy (M)
  kCandidatePool,  ///< cluster::CandidatePool (H)
  kSplit,        ///< cluster::SplitPolicy (I)
  kDensity,      ///< workload::StructureDensity (F)
  kRelKind,      ///< obj::RelKind (hint axes, J)
  kOcbLocality,  ///< ocb::RefLocality (OCB reference-locality knob)
  kDynamic,      ///< dyn::PolicyKind (dynamic re-clustering: DSTC / OPCF)
  kShardPlacement,  ///< core::ShardPlacement (N-shard object placement)
  kArrival,      ///< core::ArrivalProcess (closed loops / open Poisson)
};

const char* PolicyAxisName(PolicyAxis axis);

/// Every axis, in enum order (for `--list-policies`-style sweeps).
inline constexpr PolicyAxis kAllPolicyAxes[] = {
    PolicyAxis::kReplacement, PolicyAxis::kPrefetch,
    PolicyAxis::kCandidatePool, PolicyAxis::kSplit,
    PolicyAxis::kDensity, PolicyAxis::kRelKind,
    PolicyAxis::kOcbLocality, PolicyAxis::kDynamic,
    PolicyAxis::kShardPlacement, PolicyAxis::kArrival};

/// Immutable after construction; lookups are case-insensitive and accept
/// '-', '_' and ' ' interchangeably, so "Cluster_within_Buffer",
/// "cluster within buffer" and "CLUSTER-WITHIN-BUFFER" all resolve.
class PolicyRegistry {
 public:
  /// The process-wide registry with every built-in policy registered.
  static const PolicyRegistry& Global();

  std::optional<buffer::ReplacementPolicy> Replacement(
      std::string_view name) const;
  std::optional<buffer::PrefetchPolicy> Prefetch(std::string_view name) const;
  std::optional<cluster::CandidatePool> CandidatePool(
      std::string_view name) const;
  std::optional<cluster::SplitPolicy> Split(std::string_view name) const;
  std::optional<workload::StructureDensity> Density(
      std::string_view name) const;
  std::optional<obj::RelKind> Relationship(std::string_view name) const;
  std::optional<ocb::RefLocality> OcbLocality(std::string_view name) const;
  std::optional<dyn::PolicyKind> Dynamic(std::string_view name) const;
  std::optional<ShardPlacement> ShardPlacementOf(std::string_view name) const;
  std::optional<ArrivalProcess> Arrival(std::string_view name) const;

  /// Canonical names of one axis, in registration (= enum) order — for
  /// error messages and discoverability (`semclust_run --policies`).
  const std::vector<std::string>& CanonicalNames(PolicyAxis axis) const;

  /// "a, b, c" — the canonical names joined for an error message.
  std::string KnownNames(PolicyAxis axis) const;

  /// One level of an axis: its canonical name and every registered alias,
  /// in registration order.
  struct AxisEntry {
    std::string canonical;
    std::vector<std::string> aliases;
  };

  /// All levels of one axis with their aliases, in registration (= enum)
  /// order — the full naming surface (`semclust_run --list-policies`).
  std::vector<AxisEntry> Entries(PolicyAxis axis) const;

  /// Registers `value` under `name` on `axis`. The first registration of
  /// a value on an axis is its canonical name; later registrations are
  /// aliases. Re-registering an existing name is an error (OODB_CHECK).
  void Register(PolicyAxis axis, std::string_view name, int value);

  /// Untyped lookup on any axis: the enum value `name` resolves to, as an
  /// int (the typed lookups above cast it back).
  std::optional<int> Find(PolicyAxis axis, std::string_view name) const;

  PolicyRegistry();

 private:
  struct AxisTable {
    std::map<std::string, int> by_name;  // normalized name -> value
    std::vector<std::string> canonical;  // first-registered names, in order
    /// Every registration in order, original spelling (for Entries()).
    std::vector<std::pair<std::string, int>> registered;
  };
  AxisTable& Table(PolicyAxis axis);
  const AxisTable& Table(PolicyAxis axis) const;

  AxisTable replacement_;
  AxisTable prefetch_;
  AxisTable pool_;
  AxisTable split_;
  AxisTable density_;
  AxisTable rel_kind_;
  AxisTable ocb_locality_;
  AxisTable dynamic_;
  AxisTable shard_placement_;
  AxisTable arrival_;
};

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_POLICY_REGISTRY_H_
