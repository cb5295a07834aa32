#include "gtest/gtest.h"

#include <array>
#include <string>
#include <vector>

#include "core/engineering_db.h"
#include "core/model_config.h"
#include "core/policy_registry.h"
#include "core/scenario.h"
#include "core/sharding.h"
#include "exec/experiment_runner.h"
#include "obs/span_profiler.h"

namespace oodb::core {
namespace {

// --------------------------------------------------------- policy registry

TEST(ShardPlacementRegistryTest, CanonicalNamesAndAliasesResolve) {
  const PolicyRegistry& reg = PolicyRegistry::Global();
  for (ShardPlacement p : kAllShardPlacements) {
    EXPECT_EQ(reg.ShardPlacementOf(ShardPlacementName(p)), p);
  }
  EXPECT_EQ(reg.ShardPlacementOf("hash"), ShardPlacement::kHashShard);
  EXPECT_EQ(reg.ShardPlacementOf("structure"),
            ShardPlacement::kStructureShard);
  // Separator/case normalization applies like every other axis.
  EXPECT_EQ(reg.ShardPlacementOf("hash shard"), ShardPlacement::kHashShard);
  EXPECT_EQ(reg.ShardPlacementOf("STRUCTURE-SHARD"),
            ShardPlacement::kStructureShard);
  EXPECT_FALSE(reg.ShardPlacementOf("round_robin").has_value());

  const auto& names = reg.CanonicalNames(PolicyAxis::kShardPlacement);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "Hash_Shard");
  EXPECT_EQ(names[1], "Structure_Shard");
}

// ----------------------------------------------------------- model config

TEST(ShardingConfigTest, ValidateBoundsTheShardKnobs) {
  ModelConfig cfg = TestConfig();
  cfg.shards = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.shards = 65;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.shards = 64;
  EXPECT_TRUE(cfg.Validate().ok());

  cfg = TestConfig();
  cfg.shards = 2;
  cfg.shard_hop_latency_s = -1e-6;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.shard_hop_latency_s = 0;
  cfg.shard_group_cap = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.shard_group_cap = 1;
  EXPECT_TRUE(cfg.Validate().ok());

  // The dynamic re-clustering subsystem tracks the single server's
  // components; combining it with shards > 1 must fail loudly, not run
  // half-observed.
  cfg = TestConfig();
  cfg.shards = 2;
  cfg.clustering.dynamic.policy = dyn::PolicyKind::kDstc;
  const Status s = cfg.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("dynamic"), std::string::npos) << s.ToString();
}

// ---------------------------------------------------------------- scenario

TEST(ShardingScenarioTest, ShardKnobsRoundTripAndExpand) {
  const auto first = ParseScenario(R"json({
    "name": "shard_roundtrip",
    "config": {
      "buffer_pages": 64,
      "warmup_transactions": 10,
      "measured_transactions": 60,
      "seed": 3,
      "shards": 2,
      "shard_placement": "Structure_Shard",
      "shard_hop_latency_s": 0.001,
      "shard_group_cap": 32,
      "clustering": {"pool": "No_Clustering"}
    },
    "sweep": {
      "shards": [1, 2, 4],
      "shard_placement": ["hash", "Structure_Shard"]
    }
  })json");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->base.shards, 2);
  EXPECT_EQ(first->base.shard_placement, ShardPlacement::kStructureShard);
  EXPECT_DOUBLE_EQ(first->base.shard_hop_latency_s, 0.001);
  EXPECT_EQ(first->base.shard_group_cap, 32);
  ASSERT_EQ(first->shards.size(), 3u);
  ASSERT_EQ(first->shard_placement.size(), 2u);
  // The alias resolved to the canonical enum value.
  EXPECT_EQ(first->shard_placement[0], ShardPlacement::kHashShard);

  const std::string json = first->ToJson();
  const auto second = ParseScenario(json);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(json, second->ToJson());

  // Shards is the outermost axis, placement next; multi-level shard axes
  // prefix the policy label.
  const auto cells = first->Expand();
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].config.shards, 1);
  EXPECT_EQ(cells[0].config.shard_placement, ShardPlacement::kHashShard);
  EXPECT_EQ(cells[0].policy, "1shard_Hash_Shard");
  EXPECT_EQ(cells[1].policy, "1shard_Structure_Shard");
  EXPECT_EQ(cells[5].config.shards, 4);
  EXPECT_EQ(cells[5].config.shard_placement,
            ShardPlacement::kStructureShard);
  EXPECT_EQ(cells[5].policy, "4shard_Structure_Shard");
  for (const auto& cell : cells) {
    // Non-swept knobs come from the base config in every cell.
    EXPECT_DOUBLE_EQ(cell.config.shard_hop_latency_s, 0.001);
    EXPECT_EQ(cell.config.shard_group_cap, 32);
  }
}

TEST(ShardingScenarioTest, ShardKnobsWithoutShardsAreKindGatedErrors) {
  const auto expect_error = [](const char* json, const std::string& needle) {
    const auto spec = ParseScenario(json);
    ASSERT_FALSE(spec.ok()) << json;
    EXPECT_NE(spec.status().message().find(needle), std::string::npos)
        << spec.status().ToString();
  };
  // A shard_* knob with the core still at one shard is a silent no-op, so
  // it is an error — regardless of key order.
  expect_error(
      R"({"name": "x", "config": {"shard_placement": "Structure_Shard"}})",
      "add \"shards\"");
  expect_error(
      R"({"name": "x", "config": {"shard_hop_latency_s": 0.001}})",
      "sharding knob");
  // The gate is order-independent: "shards" after the knob is fine.
  EXPECT_TRUE(ParseScenario(
                  R"({"name": "x",
                      "config": {"shard_group_cap": 8, "shards": 2}})")
                  .ok());
  // Unknown placement names list the canonical spellings.
  expect_error(
      R"({"name": "x",
          "config": {"shards": 2, "shard_placement": "modulo"}})",
      "Hash_Shard");
  // Out-of-range shard counts fail in both config and sweep position.
  expect_error(R"({"name": "x", "config": {"shards": 65}})", "64");
  expect_error(R"({"name": "x", "sweep": {"shards": [0]}})",
               "1 to 64 shards");
  // A placement sweep where every cell runs one shard sweeps an inert
  // knob; the gate fires whether or not a config section exists.
  expect_error(
      R"({"name": "x",
          "sweep": {"shard_placement": ["Hash_Shard", "Structure_Shard"]}})",
      "placement has no effect");
}

// ------------------------------------------------------------------ model

/// Shared fast config: small enough for unit tests, big enough that a
/// hash placement actually scatters composite objects across shards.
ModelConfig ShardTestConfig(int shards, ShardPlacement placement) {
  ModelConfig cfg = TestConfig();
  cfg.shards = shards;
  cfg.shard_placement = placement;
  return cfg;
}

TEST(ShardingModelTest, SingleShardIsBitIdenticalAcrossInertShardKnobs) {
  // With shards = 1 the placement layer must be a pure alias: changing the
  // placement policy, hop latency, or group cap cannot perturb a single
  // simulated event or RNG draw.
  ModelConfig a = TestConfig();
  ModelConfig b = TestConfig();
  b.shard_placement = ShardPlacement::kStructureShard;
  b.shard_hop_latency_s = 0.5;
  b.shard_group_cap = 3;

  const RunResult ra = EngineeringDbModel(a).Run();
  const RunResult rb = EngineeringDbModel(b).Run();
  EXPECT_EQ(ra.response_time.Mean(), rb.response_time.Mean());
  EXPECT_EQ(ra.transactions, rb.transactions);
  EXPECT_EQ(ra.logical_reads, rb.logical_reads);
  EXPECT_EQ(ra.metrics.ToJson(), rb.metrics.ToJson());
  // And the shard counters are never registered — no fetch is ever
  // "routed".
  EXPECT_FALSE(ra.metrics.counter("shard.local_fetches").has_value());
  EXPECT_FALSE(ra.metrics.counter("shard.remote_fetches").has_value());
  EXPECT_FALSE(ra.metrics.gauge("shard.remote_fetch_fraction").has_value());
}

TEST(ShardingModelTest, MultiShardRunRoutesAndCountsRemoteFetches) {
  const RunResult r =
      EngineeringDbModel(ShardTestConfig(4, ShardPlacement::kHashShard))
          .Run();
  EXPECT_GT(r.transactions, 0u);
  // Hash placement scatters every composite object's components, so a
  // healthy share of routed fetches must be remote.
  const uint64_t local = *r.metrics.counter("shard.local_fetches");
  const uint64_t remote = *r.metrics.counter("shard.remote_fetches");
  const double fraction = *r.metrics.gauge("shard.remote_fetch_fraction");
  EXPECT_GT(local, 0u);
  EXPECT_GT(remote, 0u);
  EXPECT_GT(fraction, 0.0);
  EXPECT_LE(fraction, 1.0);
  EXPECT_DOUBLE_EQ(fraction, static_cast<double>(remote) /
                                 static_cast<double>(local + remote));
}

TEST(ShardingModelTest, StructurePlacementCutsRemoteFetchFraction) {
  // The tentpole's claim at unit scale: keeping composite subgraphs on one
  // shard turns most would-be-remote references local.
  const RunResult hash =
      EngineeringDbModel(ShardTestConfig(4, ShardPlacement::kHashShard))
          .Run();
  const RunResult structure =
      EngineeringDbModel(ShardTestConfig(4, ShardPlacement::kStructureShard))
          .Run();
  const double hash_fraction =
      *hash.metrics.gauge("shard.remote_fetch_fraction");
  const double structure_fraction =
      *structure.metrics.gauge("shard.remote_fetch_fraction");
  ASSERT_GT(hash_fraction, 0.0);
  EXPECT_LT(structure_fraction, hash_fraction * 0.5)
      << "structure=" << structure_fraction << " hash=" << hash_fraction;
}

TEST(ShardingModelTest, ShardedRunsAreIdenticalAcrossJobCounts) {
  // The derived per-cell seeds and the per-cell determinism must survive
  // the thread pool: jobs=1 and jobs=4 produce the same numbers for the
  // same sharded cells.
  std::vector<ModelConfig> cells = {
      ShardTestConfig(2, ShardPlacement::kHashShard),
      ShardTestConfig(2, ShardPlacement::kStructureShard),
      ShardTestConfig(4, ShardPlacement::kStructureShard),
  };
  const auto serial = exec::ExperimentRunner(1).Run(cells);
  const auto parallel = exec::ExperimentRunner(4).Run(cells);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    const RunResult& a = serial[i].result;
    const RunResult& b = parallel[i].result;
    EXPECT_EQ(a.response_time.Mean(), b.response_time.Mean());
    EXPECT_EQ(a.transactions, b.transactions);
    EXPECT_EQ(a.metrics.ToJson(), b.metrics.ToJson());
  }
}

TEST(ShardingModelTest, SpanAdditivityHoldsWithRemoteFetchWait) {
  // The profiler contract (DESIGN.md §14) extends to the new phase: per
  // transaction kind, the phase ticks sum exactly to the response ticks,
  // and cross-shard traffic shows up as remote_fetch_wait.
  ModelConfig cfg = ShardTestConfig(2, ShardPlacement::kHashShard);
  cfg.profile_spans = true;
  const RunResult r = EngineeringDbModel(cfg).Run();
  ASSERT_FALSE(r.span_breakdown.empty());
  uint64_t remote_wait_ticks = 0;
  for (const obs::SpanKindBreakdown& b : r.span_breakdown) {
    SCOPED_TRACE(b.kind);
    uint64_t sum = 0;
    for (const uint64_t t : b.phase_ticks) sum += t;
    EXPECT_EQ(sum, b.response_ticks);
    remote_wait_ticks += b.phase_ticks[static_cast<size_t>(
        obs::SpanPhase::kRemoteFetchWait)];
  }
  EXPECT_GT(remote_wait_ticks, 0u);
}

}  // namespace
}  // namespace oodb::core
