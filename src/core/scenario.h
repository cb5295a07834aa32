#ifndef SEMCLUST_CORE_SCENARIO_H_
#define SEMCLUST_CORE_SCENARIO_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/model_config.h"
#include "util/json_reader.h"
#include "util/status.h"

/// \file
/// Declarative experiment scenarios: the one way to define a grid
/// experiment. A `.scenario.json` file names a base ModelConfig (policies
/// by their registry names — see core/policy_registry.h), sweep axes, an
/// optional "fast" overlay, and the qualitative claims its records must
/// bear out ("expect"). `tools/semclust_run` expands the axes into cells,
/// runs them, writes the BenchReport JSONL, and prints one verdict per
/// claim.
///
/// Schema (all sections optional except "name"; unknown keys are errors,
/// and each error lists the known keys of its section):
///
///   {
///     "name": "fig5_1",
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
///     // Applied over "config" (same keys, same rows, same checks) when
///     // SEMCLUST_BENCH_FAST is set: the smoke-sized run.
///     "fast": {"warmup_transactions": 100, "measured_transactions": 500},
///     "sweep": {                      // each axis: empty/absent = base value
///       "clustering": "figure5_1",    // or an array of pool names/objects
///       "workload": "standard_grid",  // or [{"density": ..., "rw_ratio": ...}]
///       "replacement": ["LRU", "Context-sensitive"],
///       "prefetch": ["No_prefetch"],
///       "buffer_pages": [94, "large"],
///       "shards": [1, 2, 4, 8],
///       "shard_placement": ["Hash_Shard", "Structure_Shard"],
///       "users": [100, 1000, 2000]
///     },
///     "expect": [                     // claims over the cell records
///       {"claim": "clustering wins ~3x at hi10-100", "kind": "ratio",
///        "num": {"clustering": "No_Clustering", "workload": "hi10-100"},
///        "den": {"clustering": "No_limit"}, "min": 2}
///     ]
///   }
///
/// Expectations. Each entry has a "claim" (the verdict line's text) and a
/// "kind"; every kind reads one numeric record "field" (a FlattenJson path
/// such as "cc.abort_rate"; default "mean_response_s"). A cell selector
/// such as {"clustering": "No_limit", "workload": ["low3-5", "hi10-5"]}
/// maps sweep-axis keys to the accepted level names (a level is the
/// label the axis stamps: "No_limit", "hi10-100", "200", "Hash_Shard").
/// The "partner" of cell c under a selector is the cell that agrees with c
/// on every axis the selector does not name and has the selector's level
/// on the axes it names. A kind tests one or more groups; the claim holds
/// when "at_least" groups pass (default: all of them).
///   ratio     for each cell of "num": field(num) / field(partner under
///             "den") is >= "min" and <= "max" (either may be absent).
///   best      the cells of "cell" grouped by every axis but "axis": in
///             each group, every "levels" cell (default: all) is <=
///             "factor" (default 1) times the smallest "among" cell
///             (default: all). With among = [B] and factor 1 this is
///             dominance: A never worse than B.
///   monotone  the cells of "cell" grouped as for best, ordered by
///             "levels" (default: the sweep order): each value is >
///             "factor" (default 1) times the one before. With
///             "relative_to", each value is first divided by its partner
///             under that selector.
///   nonzero   the field summed over the cells of "cell" is not zero.
///   all       every entry of "of" (entries without claims) holds.
/// A key of another kind, an unknown kind, an axis or level that names no
/// cell, a partner that does not exist, and (when records are read) a
/// missing or non-numeric field are errors naming the entry; a claim never
/// passes vacuously.
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
  /// Sweep-axis key -> this cell's level name, for every axis (an axis
  /// without levels holds the base value's name).
  std::map<std::string, std::string> levels;
};

/// Cells by sweep-axis level: axis key -> the accepted level names.
using CellSelector =
    std::vector<std::pair<std::string, std::vector<std::string>>>;

/// One "expect" entry; which keys apply depends on `kind` (see the schema
/// above).
struct Expectation {
  std::string claim;
  std::string kind;
  std::string field = "mean_response_s";
  std::string axis;
  CellSelector cell, num, den, relative_to;
  std::vector<std::string> levels, among;
  std::optional<double> min, max;
  double factor = 1;  ///< best and monotone: "factor"
  std::optional<int> at_least;
  std::vector<Expectation> of;  ///< the "all" kind's entries
};

/// One claim's outcome.
struct ShapeVerdict {
  std::string claim;
  bool holds = false;
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

  /// The "fast" overlay as canonical JSON ("" when there is none). It is
  /// already applied to `base` when the spec was parsed in fast mode.
  std::string fast;
  std::vector<Expectation> expect;

  /// Expands the axes into cells, outermost to innermost: users, shards,
  /// shard_placement, replacement, prefetch, buffer_pages, clustering,
  /// workload. Labels: policy = clustering label, workload = workload
  /// label, cell = "policy/workload"; multi-level users, sharding and
  /// buffering axes prefix the policy label (e.g.
  /// "2shard_Structure_Shard_...") so cell labels stay unique.
  std::vector<ScenarioCell> Expand() const;

  /// Canonical JSON serialization; ParseScenario(ToJson()) round-trips.
  std::string ToJson() const;

  /// Checks every expanded cell with ModelConfig::Validate and resolves
  /// every expect entry's axes, levels and partners against the cells.
  /// ParseScenario runs it; run it again after editing `base`.
  Status Validate() const;

  /// Tests every expect entry on the cells' records, `records[i]` being
  /// the FlattenJson of cell i's BenchReport line.
  StatusOr<std::vector<ShapeVerdict>> Evaluate(
      const std::vector<std::map<std::string, JsonValue>>& records) const;
};

/// Parses one scenario document, applying its "fast" overlay when `fast`
/// is set. Unknown keys, unresolvable policy names, malformed values,
/// gated knobs with their gate shut, a failing Validate() all return
/// InvalidArgument with an actionable message.
StatusOr<ScenarioSpec> ParseScenario(std::string_view json_text,
                                     bool fast = false);

/// Reads `path` and parses it.
StatusOr<ScenarioSpec> LoadScenarioFile(const std::string& path,
                                        bool fast = false);

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
