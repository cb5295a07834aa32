#ifndef SEMCLUST_CORE_SCENARIO_H_
#define SEMCLUST_CORE_SCENARIO_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/model_config.h"
#include "util/status.h"

/// \file
/// Declarative experiment scenarios. A `.scenario.json` file names a base
/// ModelConfig (policies by their registry names — see
/// core/policy_registry.h) plus sweep axes; the loader expands the axes
/// into the same cell grid the hand-written bench binaries build, in the
/// same order, so a scenario run through `tools/semclust_run` regenerates
/// a bench's JSONL bit-identically.
///
/// Schema (all sections optional except "name"; unknown keys are errors,
/// and each error lists the known keys of its section):
///
///   {
///     "name": "fig5_1_fast",
///     "bench": "Figure 5.1",          // BenchReport label (default: name)
///     "description": "free text",
///     "config": {                     // overrides on ScaledConfig()
///       "database_bytes": 50331648, "page_size_bytes": 4096,
///       "append_fill_fraction": 0.8, "num_users": 10, "num_disks": 10,
///       "think_time_s": 4.0,
///       "buffer_pages": 94,           // or "buffer_level": "medium"
///       "replacement": "LRU", "prefetch": "No_prefetch",
///       "warmup_transactions": 100, "measured_transactions": 500,
///       "measurement_epochs": 1, "telemetry_interval_s": 0,
///       "telemetry_audit_placement": true,
///       "rw_ratio_schedule": [10, 100],
///       "static_reorganize_after_build": false,
///       "profile_spans": true, "span_exemplars": 3,  // gate: profile_spans
///       // the N-shard core (core/sharding.h); gate: "shards" != 1 or a
///       // "shards" sweep axis:
///       "shards": 4, "shard_placement": "Structure_Shard",
///       "shard_hop_latency_s": 0.002, "shard_group_cap": 64,
///       // the concurrency-control subsystem (src/cc/); gate: "enabled":
///       "concurrency": {"enabled": true, "cc_lock_timeout_s": 2.0,
///                       "cc_max_retries": 6, "cc_backoff_base_s": 0.05,
///                       "cc_backoff_cap_s": 2.0, "cc_page_latches": true},
///       // how transactions enter the system; gate: "arrival": "Open":
///       "arrival": "Open", "arrival_rate_tps": 40,
///       "seed": 1,
///       "workload": {"density": "med5", "rw_ratio": 10},  // "kind": "oct"
///       // or the generic OCB workload (src/ocb/); gate: "kind": "ocb":
///       // "workload": {"kind": "ocb", "rw_ratio": 10, "classes": 24,
///       //              "hierarchy_depth": 4, "instances": 4000,
///       //              "refs_per_object": 3, "locality": "zipf",
///       //              "zipf_theta": 0.8, "gaussian_window": 0.05,
///       //              "base_object_bytes": 160,
///       //              "inheritance_fraction": 0.3,
///       //              "interleaved_read_probability": 0.8,
///       //              "partitions": 16, "set_lookup_size": 8,
///       //              "traversal_depth": 3,
///       //              "read_mix": [0.25, 0.35, 0.2, 0.2],
///       //              // structural churn; gate: churn_probability > 0:
///       //              "churn_probability": 0.5, "churn_burst_length": 6,
///       //              "churn_cross_partition": 0.9},
///       "clustering": {"pool": "No_Clustering", "io_limit": 2,
///                      "split": "No_Splitting", "use_hints": false,
///                      "hint_kind": "configuration", "hint_boost": 3,
///                      // dynamic re-clustering (src/dyn/); gate:
///                      // "dynamic" is DSTC or OPCF:
///                      "dynamic": "DSTC", "dyn_observation_period": 256,
///                      "dyn_heat_decay": 0.5,
///                      "dyn_max_tracked_objects": 4096,
///                      "dyn_max_tracked_links": 8192,
///                      "dyn_trigger_threshold": 8, "dyn_unit_size": 16,
///                      "dyn_max_moves": 64, "opcf_watermark": 2,
///                      "opcf_batch": 4}
///     },
///     "sweep": {                      // each axis: empty/absent = base value
///       "clustering": "figure5_1",    // or an array of pool names/objects
///       "workload": "standard_grid",  // or [{"density": ..., "rw_ratio": ...}]
///       "replacement": ["LRU", "Context-sensitive"],
///       "prefetch": ["No_prefetch"],
///       "buffer_pages": [94, "large"],
///       "shards": [1, 2, 4, 8],
///       "shard_placement": ["Hash_Shard", "Structure_Shard"],
///       "users": [100, 1000, 2000]
///     }
///   }
///
/// Gates: a knob marked with a gate is legal only while its gate is open,
/// and is written by ToJson only then. Setting it with the gate shut is an
/// error that names the knob and the key that opens the gate (key order
/// never matters), so a typo cannot leave a knob silently inert, and
/// ParseScenario(ToJson()) expands to the same cells. The density knob is
/// legal only on the OCT workload.
///
/// Values: integer fields are read exactly from the source text; a
/// fraction, an exponent, a minus sign on an unsigned field, or a value
/// outside the field's type is an error naming the field, as is a
/// non-finite number. Every expanded cell must pass ModelConfig::Validate.
///
/// Policy names resolve through PolicyRegistry::Global(), so every alias
/// the registry knows works in a scenario file, and error messages list
/// the canonical spellings.

namespace oodb::core {

/// One expanded cell: a runnable config plus the labels a bench would
/// stamp on its JSONL record.
struct ScenarioCell {
  ModelConfig config;
  std::string cell_label;
  std::string policy;
  std::string workload;
};

/// One level of the workload sweep axis: the engineering workload's
/// density/ratio knobs plus the OCB section (`ocb.enabled` selects which
/// workload the cell runs; the R/W ratio lives in `oct.read_write_ratio`
/// either way).
struct WorkloadEntry {
  workload::WorkloadConfig oct;
  ocb::OcbConfig ocb;

  /// The cell's workload label (WorkloadConfig::Label or OcbConfig::Label).
  std::string Label() const;
};

/// A parsed scenario: base config + sweep axes.
struct ScenarioSpec {
  std::string name;
  std::string bench;  ///< BenchReport label; defaults to `name`
  std::string description;
  /// Base configuration every cell starts from (scenario "config" applied
  /// over ScaledConfig()).
  ModelConfig base;

  // Sweep axes. An empty axis means "the base config's value".
  std::vector<cluster::ClusterConfig> clustering;
  std::vector<WorkloadEntry> workloads;
  std::vector<buffer::ReplacementPolicy> replacement;
  std::vector<buffer::PrefetchPolicy> prefetch;
  std::vector<size_t> buffer_pages;
  std::vector<int> shards;
  std::vector<ShardPlacement> shard_placement;
  std::vector<int> users;

  /// Expands the axes into cells, outermost to innermost: users, shards,
  /// shard_placement, replacement, prefetch, buffer_pages, clustering,
  /// workload. With only the clustering and workload axes populated this
  /// is exactly the policy-major order of bench_common's
  /// RunClusteringGrid, and the labels match FillDefaultLabels (policy =
  /// clustering label, workload = workload label, cell =
  /// "policy/workload"). Multi-level sharding and buffering axes prefix
  /// the policy label (e.g. "2shard_Structure_Shard_...") so cell labels
  /// stay unique.
  std::vector<ScenarioCell> Expand() const;

  /// Canonical JSON serialization; ParseScenario(ToJson()) round-trips.
  std::string ToJson() const;
};

/// Parses one scenario document. Unknown keys, unresolvable policy names,
/// malformed values, gated knobs with their gate shut, and expanded cells
/// failing ModelConfig::Validate() all return InvalidArgument with an
/// actionable message.
StatusOr<ScenarioSpec> ParseScenario(std::string_view json_text);

/// Reads `path` and parses it.
StatusOr<ScenarioSpec> LoadScenarioFile(const std::string& path);

/// One row of the loader's knob tables: the section holding the key
/// ("config", "config.concurrency", "config.workload" or
/// "config.clustering") and the key itself.
struct ScenarioKnob {
  std::string_view section;
  std::string_view key;
};

/// Every row of the knob tables, section by section in ToJson key order —
/// a read-only view for tests and docs (a row added to a table shows up
/// here, and in the round-trip test that walks it, with no other edit).
std::vector<ScenarioKnob> ScenarioKnobs();

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_SCENARIO_H_
