#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <map>

#include "core/engineering_db.h"
#include "core/experiment.h"
#include "core/policy_registry.h"
#include "core/scenario.h"
#include "dyn/dyn_config.h"
#include "exec/experiment_runner.h"
#include "util/json_reader.h"
#include "util/json_writer.h"

namespace oodb::core {
namespace {

// ---------------------------------------------------------------- JSON DOM

TEST(JsonReaderTest, ParsesNestedDocument) {
  const auto doc = JsonValue::Parse(
      R"({"a": 1, "b": [true, null, "x\ny"], "c": {"d": 2.5}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  ASSERT_EQ(doc->members().size(), 3u);
  // Members keep source order.
  EXPECT_EQ(doc->members()[0].first, "a");
  EXPECT_EQ(doc->members()[2].first, "c");
  EXPECT_EQ(doc->Find("a")->number_value(), 1.0);
  const JsonValue* b = doc->Find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].bool_value());
  EXPECT_TRUE(b->items()[1].is_null());
  EXPECT_EQ(b->items()[2].string_value(), "x\ny");
  EXPECT_EQ(doc->Find("c")->Find("d")->number_value(), 2.5);
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonReaderTest, LargeIntegersSurviveViaSourceText) {
  // 2^53 + 1 is not representable as a double; the source text keeps it
  // exact for the scenario loader's integer read (the seed in
  // ScenarioTest.ParseSerializeRoundTripIsStable).
  const auto doc = JsonValue::Parse("{\"seed\": 9007199254740993}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("seed")->number_text(), "9007199254740993");
}

TEST(JsonReaderTest, ErrorsCarryByteOffsets) {
  for (const char* bad : {"{", "[1,2] junk", "{\"a\" 1}", "tru", ""}) {
    const auto doc = JsonValue::Parse(bad);
    EXPECT_FALSE(doc.ok()) << bad;
    EXPECT_NE(doc.status().message().find("offset"), std::string::npos)
        << doc.status().ToString();
  }
}

TEST(JsonReaderTest, NestingDepthIsBoundedNotAStackOverflow) {
  // 200k open brackets used to recurse until the stack ran out.
  const auto deep = JsonValue::Parse(std::string(200000, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.status().message().find("nesting deeper than"),
            std::string::npos)
      << deep.status().ToString();
  EXPECT_NE(deep.status().message().find("offset"), std::string::npos);

  const auto nest = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(JsonValue::Parse(nest(JsonValue::kMaxDepth)).ok());
  EXPECT_FALSE(JsonValue::Parse(nest(JsonValue::kMaxDepth + 1)).ok());
}

TEST(JsonReaderTest, MalformedNumbersAreErrors) {
  for (const char* bad : {"1-2", "--3", "1.2.3", "e5", "[1, 2e]"}) {
    const auto doc = JsonValue::Parse(bad);
    EXPECT_FALSE(doc.ok()) << bad;
    EXPECT_NE(doc.status().message().find("offset"), std::string::npos)
        << doc.status().ToString();
  }
}

// --------------------------------------------------------- policy registry

TEST(PolicyRegistryTest, EveryEnumValueResolvesByItsCanonicalName) {
  const PolicyRegistry& reg = PolicyRegistry::Global();
  using R = buffer::ReplacementPolicy;
  for (R p : {R::kLru, R::kContextSensitive, R::kRandom}) {
    EXPECT_EQ(reg.Find(PolicyAxis::kReplacement,
                       buffer::ReplacementPolicyName(p)),
              static_cast<int>(p));
  }
  using P = buffer::PrefetchPolicy;
  for (P p : {P::kNone, P::kWithinBuffer, P::kWithinDb}) {
    EXPECT_EQ(reg.Find(PolicyAxis::kPrefetch, buffer::PrefetchPolicyName(p)),
              static_cast<int>(p));
  }
  using C = cluster::CandidatePool;
  for (C p : {C::kNoClustering, C::kWithinBuffer, C::kIoLimit, C::kWithinDb}) {
    EXPECT_EQ(reg.Find(PolicyAxis::kCandidatePool,
                       cluster::CandidatePoolName(p)),
              static_cast<int>(p));
  }
  using S = cluster::SplitPolicy;
  for (S p : {S::kNoSplit, S::kLinearGreedy, S::kExhaustive}) {
    EXPECT_EQ(reg.Find(PolicyAxis::kSplit, cluster::SplitPolicyName(p)),
              static_cast<int>(p));
  }
  using D = workload::StructureDensity;
  for (D d : {D::kLow3, D::kMed5, D::kHigh10}) {
    EXPECT_EQ(reg.Find(PolicyAxis::kDensity, workload::StructureDensityName(d)),
              static_cast<int>(d));
  }
  using K = obj::RelKind;
  for (K k : {K::kConfiguration, K::kVersionHistory, K::kCorrespondence,
              K::kInstanceInheritance}) {
    EXPECT_EQ(reg.Find(PolicyAxis::kRelKind, obj::RelKindName(k)),
              static_cast<int>(k));
  }
}

TEST(PolicyRegistryTest, LookupsNormalizeCaseAndSeparators) {
  const PolicyRegistry& reg = PolicyRegistry::Global();
  EXPECT_EQ(reg.Find(PolicyAxis::kCandidatePool, "cluster within buffer"),
            static_cast<int>(cluster::CandidatePool::kWithinBuffer));
  EXPECT_EQ(reg.Find(PolicyAxis::kCandidatePool, "CLUSTER-WITHIN-BUFFER"),
            static_cast<int>(cluster::CandidatePool::kWithinBuffer));
  EXPECT_EQ(reg.Find(PolicyAxis::kReplacement, "context"),
            static_cast<int>(buffer::ReplacementPolicy::kContextSensitive));
  EXPECT_EQ(reg.Find(PolicyAxis::kPrefetch, "p_db"),
            static_cast<int>(buffer::PrefetchPolicy::kWithinDb));
  EXPECT_EQ(reg.Find(PolicyAxis::kSplit, "linear"),
            static_cast<int>(cluster::SplitPolicy::kLinearGreedy));
  EXPECT_EQ(reg.Find(PolicyAxis::kDensity, "HIGH"),
            static_cast<int>(workload::StructureDensity::kHigh10));
  EXPECT_FALSE(reg.Find(PolicyAxis::kSplit, "bogus").has_value());
  EXPECT_FALSE(reg.Find(PolicyAxis::kReplacement, "").has_value());
}

TEST(PolicyRegistryTest, CanonicalNamesAreTheDisplayNames) {
  const PolicyRegistry& reg = PolicyRegistry::Global();
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kReplacement).size(), 3u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kPrefetch).size(), 3u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kCandidatePool).size(), 4u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kSplit).size(), 3u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kDensity).size(), 3u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kRelKind).size(), 4u);
  // Aliases never displace the canonical spelling.
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kReplacement)[0], "LRU");
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kCandidatePool)[0],
            "No_Clustering");
  EXPECT_NE(reg.KnownNames(PolicyAxis::kPrefetch).find("No_prefetch"),
            std::string::npos);
}

// ----------------------------------------------------------------- scenario

// The committed fig5_1 scenario's fast form, inlined (the file itself is
// exercised by the CI run; this keeps the unit test
// working-directory-agnostic).
constexpr char kFig51Scenario[] = R"json({
  "name": "fig5_1_fast",
  "bench": "Figure 5.1",
  "config": {
    "buffer_level": "medium",
    "warmup_transactions": 100,
    "measured_transactions": 500,
    "seed": 1
  },
  "sweep": {
    "clustering": "figure5_1",
    "workload": "standard_grid"
  }
})json";

TEST(ScenarioTest, Fig51ExpandsToTheBenchGridInBenchOrder) {
  const auto spec = ParseScenario(kFig51Scenario);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->bench, "Figure 5.1");
  EXPECT_EQ(spec->base.buffer_pages, spec->base.BufferMedium());

  const auto cells = spec->Expand();
  const auto policies = ClusteringPolicyLevels();
  const auto grid = StandardWorkloadGrid();
  ASSERT_EQ(cells.size(), policies.size() * grid.size());

  // Clustering-major, workload-minor: Figure 5.1's policy-major grid,
  // each cell labelled "<policy>/<workload>".
  size_t i = 0;
  for (const auto& policy : policies) {
    for (const auto& w : grid) {
      SCOPED_TRACE(cells[i].cell_label);
      EXPECT_EQ(cells[i].policy, policy.Label());
      EXPECT_EQ(cells[i].workload, w.Label());
      EXPECT_EQ(cells[i].cell_label, policy.Label() + "/" + w.Label());
      EXPECT_EQ(cells[i].config.clustering.pool, policy.pool);
      EXPECT_EQ(cells[i].config.clustering.io_limit, policy.io_limit);
      EXPECT_EQ(cells[i].config.workload.density, w.density);
      EXPECT_EQ(cells[i].config.database.density, w.density);
      EXPECT_EQ(cells[i].config.workload.read_write_ratio,
                w.read_write_ratio);
      EXPECT_EQ(cells[i].config.warmup_transactions, 100);
      EXPECT_EQ(cells[i].config.measured_transactions, 500);
      EXPECT_EQ(cells[i].config.seed, 1u);
      ++i;
    }
  }
  EXPECT_EQ(cells.front().cell_label, "No_Clustering/low3-5");
  EXPECT_EQ(cells.back().cell_label, "No_limit/hi10-100");
}

TEST(ScenarioTest, ParseSerializeRoundTripIsStable) {
  const auto first = ParseScenario(R"json({
    "name": "roundtrip",
    "description": "every axis populated",
    "config": {
      "buffer_pages": 64,
      "replacement": "Context-sensitive",
      "prefetch": "p_DB",
      "warmup_transactions": 10,
      "measured_transactions": 60,
      "measurement_epochs": 2,
      "rw_ratio_schedule": [5, 100],
      "seed": 9007199254740993,
      "workload": {"density": "hi10", "rw_ratio": 100},
      "clustering": {"pool": "With_IO_limit", "io_limit": 4,
                     "split": "Linear_Split", "use_hints": true,
                     "hint_kind": "version-history", "hint_boost": 2.5}
    },
    "sweep": {
      "clustering": ["No_Clustering", {"pool": "No_limit"}],
      "workload": [{"density": "low3", "rw_ratio": 5}],
      "replacement": ["LRU", "Random"],
      "prefetch": ["No_prefetch"],
      "buffer_pages": [64, "medium"]
    }
  })json");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->base.seed, 9007199254740993ull);
  EXPECT_EQ(first->base.replacement,
            buffer::ReplacementPolicy::kContextSensitive);
  EXPECT_EQ(first->base.clustering.split, cluster::SplitPolicy::kLinearGreedy);
  EXPECT_TRUE(first->base.clustering.use_hints);
  ASSERT_EQ(first->clustering.size(), 2u);
  // Sweep entries inherit unset fields from the base clustering config.
  EXPECT_EQ(first->clustering[1].pool, cluster::CandidatePool::kWithinDb);
  EXPECT_EQ(first->clustering[1].split, cluster::SplitPolicy::kLinearGreedy);
  ASSERT_EQ(first->buffer_pages.size(), 2u);
  EXPECT_EQ(first->buffer_pages[1], first->base.BufferMedium());

  const std::string json = first->ToJson();
  const auto second = ParseScenario(json);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(json, second->ToJson());

  // Expansion order: replacement (outer) x prefetch x buffers x clustering
  // x workload (inner); multi-level axes prefix the policy label.
  const auto cells = first->Expand();
  ASSERT_EQ(cells.size(), 2u * 1u * 2u * 2u * 1u);
  EXPECT_EQ(cells.front().policy, "LRU_64buf_No_Clustering");
  EXPECT_EQ(cells.back().policy,
            "Random_" + std::to_string(first->base.BufferMedium()) +
                "buf_No_limit");
}

TEST(ScenarioTest, ActionableErrors) {
  const auto expect_error = [](const char* json, const std::string& needle) {
    const auto spec = ParseScenario(json);
    ASSERT_FALSE(spec.ok()) << json;
    EXPECT_NE(spec.status().message().find(needle), std::string::npos)
        << spec.status().ToString();
  };
  expect_error(R"({"name": "x", "bogus": 1})", "bogus");
  expect_error(R"({"config": {}})", "\"name\" is required");
  expect_error(R"({"name": "x", "config": {"replacement": "FIFO"}})",
               "known: LRU, Context-sensitive, Random");
  expect_error(R"({"name": "x", "config": {"warmup": 1}})",
               "unknown key \"warmup\"");
  expect_error(
      R"({"name": "x", "config": {"buffer_pages": 64, "buffer_level": "medium"}})",
      "not both");
  expect_error(R"({"name": "x", "config": {"buffer_level": "huge"}})",
               "small, medium, large");
  expect_error(R"({"name": "x", "config": {"measured_transactions": 0}})",
               "measured_transactions");
  expect_error(R"({"name": "x", "sweep": {"buffer_pages": [4]}})",
               "at least 8 frames");
  expect_error(R"({"name": "x", "sweep": {"clustering": "figure9"}})",
               "figure5_1");
  expect_error(R"({"name": "x", "config": {"seed": "one"}})",
               "config.seed");
  // OCB knobs are gated behind "kind": "ocb" so a typo can't silently
  // switch a scenario onto the generic benchmark.
  expect_error(
      R"({"name": "x", "config": {"workload": {"instances": 500}}})",
      "add \"kind\": \"ocb\"");
  expect_error(
      R"({"name": "x", "config": {"workload": {"kind": "osb"}}})",
      "known: oct, ocb");
  expect_error(
      R"({"name": "x", "config":
          {"workload": {"kind": "ocb", "locality": "pareto"}}})",
      "uniform, gaussian, zipf");
  expect_error(
      R"({"name": "x", "config": {"workload": {"kind": "ocb", "classes": 1}}})",
      "classes");
  // Dynamic re-clustering knobs are gated the same way: tuning a dyn_*
  // knob with the policy still off is a silent no-op, so it's an error.
  expect_error(
      R"({"name": "x", "config":
          {"clustering": {"dyn_observation_period": 64}}})",
      "is a dynamic re-clustering knob");
  expect_error(
      R"({"name": "x", "config": {"clustering": {"dynamic": "DBSCAN"}}})",
      "DSTC");
  // Integer fields are read exactly or not at all: no truncation, no sign
  // wrap, no narrowing, and the error names the field.
  expect_error(R"({"name": "x", "config": {"measured_transactions": 2.9}})",
               "config.measured_transactions");
  expect_error(R"({"name": "x", "config": {"buffer_pages": -1}})",
               "config.buffer_pages");
  expect_error(R"({"name": "x", "config": {"num_users": 99999999999}})",
               "config.num_users");
  expect_error(R"({"name": "x", "config": {"page_size_bytes": 4294971392}})",
               "config.page_size_bytes");
  expect_error(
      R"({"name": "x", "config":
          {"workload": {"kind": "ocb", "base_object_bytes": 4294967456}}})",
      "config.workload.base_object_bytes");
  expect_error(R"({"name": "x", "config": {"seed": 1e400}})", "config.seed");
  expect_error(R"({"name": "x", "sweep": {"shards": [2.5]}})",
               "sweep.shards[0]");
  // An explicit OCT kind does not switch the OCB gate off.
  expect_error(
      R"({"name": "x", "config":
          {"workload": {"kind": "oct", "instances": 500}}})",
      "\"instances\" is an OCB knob; add \"kind\": \"ocb\"");
  // Values that parse exactly but would exhaust memory at run time (every
  // buffer frame is allocated up front; each user owns a generator) are
  // rejected by name, with the bound.
  expect_error(R"({"name": "x", "config": {"buffer_pages": 1000000000000}})",
               "buffer_pages is 1000000000000; at most 4194304");
  expect_error(R"({"name": "x", "config": {"num_users": 2000000000}})",
               "num_users is 2000000000; at most 100000");
  // A value that parses but would abort the run names its cell and field.
  expect_error(R"({"name": "x", "config": {"workload": {"rw_ratio": 0}}})",
               "cell No_Clustering/med5-0: invalid ModelConfig: "
               "workload.rw_ratio");
}

/// Expand() configs and labels of two specs are equal, cell by cell.
void ExpectSameCells(const ScenarioSpec& a, const ScenarioSpec& b) {
  const auto left = a.Expand();
  const auto right = b.Expand();
  ASSERT_EQ(left.size(), right.size());
  for (size_t i = 0; i < left.size(); ++i) {
    EXPECT_EQ(left[i].cell_label, right[i].cell_label);
    EXPECT_EQ(left[i].policy, right[i].policy);
    EXPECT_TRUE(left[i].config == right[i].config) << left[i].cell_label;
  }
}

TEST(ScenarioTest, ShardKnobsSurviveARoundTripWhenOnlyTheSweepShards) {
  // The shard knobs apply to every swept cell, so ToJson must keep them
  // even though the base config runs one shard.
  const auto first = ParseScenario(R"json({
    "name": "swept_shards",
    "config": {"buffer_pages": 64, "shards": 1, "shard_group_cap": 8,
               "shard_placement": "Structure_Shard"},
    "sweep": {"shards": [2, 4]}
  })json");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  for (const auto& cell : first->Expand()) {
    EXPECT_EQ(cell.config.shard_group_cap, 8);
    EXPECT_EQ(cell.config.shard_placement, ShardPlacement::kStructureShard);
  }
  const auto second = ParseScenario(first->ToJson());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->ToJson(), second->ToJson());
  ExpectSameCells(*first, *second);
}

// ------------------------------------------------------ knob-table sweep

/// A scenario document as section -> (key -> JSON value text), so a test
/// can set any (section, key) pair of ScenarioKnobs().
using Doc = std::map<std::string, std::map<std::string, std::string>>;

std::string Render(const Doc& doc) {
  const auto object = [](const std::map<std::string, std::string>& members) {
    std::string out = "{";
    for (const auto& [key, value] : members) {
      out += (out.size() > 1 ? ", \"" : "\"") + key + "\": " + value;
    }
    return out + "}";
  };
  auto config = doc.count("config") ? doc.at("config")
                                    : std::map<std::string, std::string>{};
  for (const auto& [section, members] : doc) {
    if (section.rfind("config.", 0) == 0) {
      config[section.substr(7)] = object(members);
    }
  }
  return "{\"name\": \"knobs\", \"config\": " + object(config) + "}";
}

/// The value of `key` in `section` ("config.workload") of a ToJson
/// document, or nullptr when it is not written there.
const JsonValue* Written(const JsonValue& json, const std::string& section,
                         const std::string& key) {
  const JsonValue* node = &json;
  size_t start = 0;
  while (node != nullptr && start <= section.size()) {
    const size_t dot = std::min(section.find('.', start), section.size());
    node = node->Find(section.substr(start, dot - start));
    start = dot + 1;
  }
  return node == nullptr ? nullptr : node->Find(key);
}

/// `value` as JSON text.
std::string Text(const JsonValue& value) {
  if (value.is_bool()) return value.bool_value() ? "true" : "false";
  if (value.is_number()) return value.number_text();
  if (value.is_string()) return "\"" + value.string_value() + "\"";
  std::string out = "[";
  for (const JsonValue& item : value.items()) {
    out += (out.size() > 1 ? ", " : "") + Text(item);
  }
  return out + "]";
}

/// Valid-looking replacement values for `value`, in JSON text.
std::vector<std::string> Mutations(const JsonValue& value) {
  std::vector<std::string> out;
  if (value.is_bool()) out.push_back(value.bool_value() ? "false" : "true");
  if (value.is_number()) {
    const double x = value.number_value();
    const bool integer =
        value.number_text().find_first_of(".eE") == std::string::npos;
    for (const double y : integer ? std::vector<double>{x + 1, x * 2, x - 1}
                                  : std::vector<double>{x * 0.5, x * 1.5}) {
      out.push_back(integer ? std::to_string(static_cast<long long>(y))
                            : JsonNumber(y));
    }
  }
  if (value.is_string()) {
    for (const PolicyAxis axis : kAllPolicyAxes) {
      for (const auto& name : PolicyRegistry::Global().CanonicalNames(axis)) {
        out.push_back("\"" + name + "\"");
      }
    }
    out.insert(out.end(), {"\"oct\"", "\"ocb\""});
  }
  if (value.is_array()) {
    std::string halved = "[";
    for (const JsonValue& item : value.items()) {
      halved += (halved.size() > 1 ? ", " : "") +
                JsonNumber(item.number_value() * 0.5);
    }
    out.push_back(halved + "]");
  }
  return out;
}

TEST(ScenarioTest, EveryTableKnobRoundTripsAndIsGated) {
  const Doc base = {{"config",
                     {{"buffer_pages", "64"},
                      {"warmup_transactions", "10"},
                      {"measured_transactions", "60"}}}};
  // Between them, the open documents open every gate group.
  Doc oct = base;
  oct["config"].insert({{"profile_spans", "true"},
                        {"shards", "2"},
                        {"arrival", "\"Open\""},
                        {"rw_ratio_schedule", "[5, 100]"}});
  oct["config.workload"] = {{"density", "\"hi10\""}};
  Doc ocb = base;
  ocb["config.workload"] = {{"kind", "\"ocb\""}};
  Doc churn = ocb;
  churn["config.workload"]["churn_probability"] = "0.5";
  churn["config.concurrency"] = {{"enabled", "true"}};
  churn["config.clustering"] = {{"dynamic", "\"DSTC\""}};
  const std::vector<Doc> open = {oct, ocb, churn};
  // In a closed document every gate group is shut.
  Doc closed_ocb = base;
  closed_ocb["config.workload"] = {{"kind", "\"ocb\""}};
  const std::vector<Doc> closed = {base, closed_ocb};

  size_t rows = 0;
  for (const ScenarioKnob& knob : ScenarioKnobs()) {
    const std::string section(knob.section);
    const std::string key(knob.key);
    SCOPED_TRACE(section + "." + key);
    bool section_row = false;
    bool mutated = false;
    std::string open_value;  // as an open document writes it
    for (const Doc& doc : open) {
      const auto spec = ParseScenario(Render(doc));
      ASSERT_TRUE(spec.ok()) << spec.status().ToString();
      const auto json = JsonValue::Parse(spec->ToJson());
      ASSERT_TRUE(json.ok());
      const JsonValue* value = Written(*json, section, key);
      if (value == nullptr) continue;
      section_row = value->is_object();  // its own rows cover a section
      if (section_row) break;
      if (open_value.empty()) open_value = Text(*value);
      for (const std::string& mutation : Mutations(*value)) {
        Doc changed = doc;
        changed[section][key] = mutation;
        const auto first = ParseScenario(Render(changed));
        if (!first.ok() || first->ToJson() == spec->ToJson()) continue;
        // ToJson -> Parse -> ToJson is a fixed point, and the cells match.
        const auto second = ParseScenario(first->ToJson());
        ASSERT_TRUE(second.ok()) << second.status().ToString();
        EXPECT_EQ(first->ToJson(), second->ToJson());
        ExpectSameCells(*first, *second);
        mutated = true;
        break;
      }
      if (mutated) break;
    }
    if (section_row) continue;
    ASSERT_FALSE(open_value.empty()) << "no open document writes this knob";
    EXPECT_TRUE(mutated) << "no value of this knob changes the scenario";
    ++rows;
    // With its gate shut, a knob fails the parse naming itself, unless it
    // opens its own gate; it is never silently dropped.
    for (const Doc& doc : closed) {
      Doc set = doc;
      set[section][key] = open_value;
      const auto spec = ParseScenario(Render(set));
      if (!spec.ok()) {
        EXPECT_NE(spec.status().message().find("\"" + key + "\""),
                  std::string::npos)
            << spec.status().ToString();
        continue;
      }
      const auto json = JsonValue::Parse(spec->ToJson());
      ASSERT_TRUE(json.ok());
      EXPECT_NE(Written(*json, section, key), nullptr) << Render(set);
    }
  }
  EXPECT_GT(rows, 60u);
}

TEST(ScenarioTest, DynamicKnobsRoundTripAndExpand) {
  const auto first = ParseScenario(R"json({
    "name": "dyn_roundtrip",
    "config": {
      "buffer_pages": 64,
      "warmup_transactions": 10,
      "measured_transactions": 60,
      "seed": 5,
      "clustering": {"pool": "No_Clustering", "dynamic": "OPCF",
                     "dyn_observation_period": 64,
                     "dyn_trigger_threshold": 4.0,
                     "dyn_unit_size": 8,
                     "opcf_watermark": 1.5, "opcf_batch": 2}
    },
    "sweep": {
      "clustering": [{"pool": "No_Clustering", "dynamic": "off"},
                     {"pool": "No_Clustering", "dynamic": "dstc_dynamic"}]
    }
  })json");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->base.clustering.dynamic.policy, dyn::PolicyKind::kOpcf);
  EXPECT_EQ(first->base.clustering.dynamic.observation_period, 64);
  EXPECT_DOUBLE_EQ(first->base.clustering.dynamic.trigger_threshold, 4.0);
  EXPECT_EQ(first->base.clustering.dynamic.max_unit_size, 8);
  EXPECT_DOUBLE_EQ(first->base.clustering.dynamic.opcf_queue_watermark, 1.5);
  EXPECT_EQ(first->base.clustering.dynamic.opcf_batch, 2);

  const std::string json = first->ToJson();
  const auto second = ParseScenario(json);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(json, second->ToJson());

  // Sweep entries inherit the base's dyn tuning; the policy kind is the
  // per-entry override ("off" disables, "dstc_dynamic" is the registry
  // alias for DSTC) and lands in the cell label via LabelSuffix.
  ASSERT_EQ(first->clustering.size(), 2u);
  EXPECT_EQ(first->clustering[0].dynamic.policy, dyn::PolicyKind::kNone);
  EXPECT_EQ(first->clustering[1].dynamic.policy, dyn::PolicyKind::kDstc);
  EXPECT_EQ(first->clustering[1].dynamic.observation_period, 64);
  const auto cells = first->Expand();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].policy, "No_Clustering");
  EXPECT_EQ(cells[1].policy, "No_Clustering+DSTC");
}

TEST(ScenarioTest, SpanProfilerKnobsRoundTripAndGate) {
  const auto first = ParseScenario(R"json({
    "name": "span_roundtrip",
    "config": {
      "buffer_pages": 64,
      "warmup_transactions": 10,
      "measured_transactions": 60,
      "seed": 5,
      "profile_spans": true,
      "span_exemplars": 7,
      "clustering": {"pool": "No_Clustering"}
    }
  })json");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->base.profile_spans);
  EXPECT_EQ(first->base.span_exemplars, 7);
  const std::string json = first->ToJson();
  const auto second = ParseScenario(json);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(json, second->ToJson());

  // span_exemplars without profile_spans is an authoring mistake, not a
  // silent no-op; the gate must not depend on key order (it is checked
  // after the whole config section is parsed).
  const auto bad = ParseScenario(R"json({
    "name": "span_bad",
    "config": {
      "buffer_pages": 64,
      "warmup_transactions": 10,
      "measured_transactions": 60,
      "span_exemplars": 7,
      "clustering": {"pool": "No_Clustering"}
    }
  })json");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("profile_spans"), std::string::npos)
      << bad.status().ToString();
}

TEST(PolicyRegistryTest, DynamicAxisResolvesCanonicalNamesAndAliases) {
  const PolicyRegistry& reg = PolicyRegistry::Global();
  using D = dyn::PolicyKind;
  for (D p : {D::kNone, D::kDstc, D::kOpcf}) {
    EXPECT_EQ(reg.Find(PolicyAxis::kDynamic, dyn::PolicyKindName(p)),
              static_cast<int>(p));
  }
  EXPECT_EQ(reg.Find(PolicyAxis::kDynamic, "none"),
            static_cast<int>(D::kNone));
  EXPECT_EQ(reg.Find(PolicyAxis::kDynamic, "off"),
            static_cast<int>(D::kNone));
  EXPECT_EQ(reg.Find(PolicyAxis::kDynamic, "static"),
            static_cast<int>(D::kNone));
  EXPECT_EQ(reg.Find(PolicyAxis::kDynamic, "dstc"),
            static_cast<int>(D::kDstc));
  EXPECT_EQ(reg.Find(PolicyAxis::kDynamic, "opcf"),
            static_cast<int>(D::kOpcf));
  EXPECT_EQ(reg.Find(PolicyAxis::kDynamic, "opportunistic"),
            static_cast<int>(D::kOpcf));
  EXPECT_FALSE(reg.Find(PolicyAxis::kDynamic, "bogus").has_value());
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kDynamic).size(), 3u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kDynamic)[0], "No_Dynamic");
}

TEST(ScenarioTest, LoadScenarioFileReadsAndReportsPath) {
  const std::string path = testing::TempDir() + "/t.scenario.json";
  {
    std::ofstream out(path);
    out << kFig51Scenario;
  }
  const auto spec = LoadScenarioFile(path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "fig5_1_fast");
  std::remove(path.c_str());

  const auto missing = LoadScenarioFile(path + ".nope");
  EXPECT_FALSE(missing.ok());

  {
    std::ofstream out(path);
    out << "{ not json";
  }
  const auto bad = LoadScenarioFile(path);
  ASSERT_FALSE(bad.ok());
  // Parse failures name the file.
  EXPECT_NE(bad.status().message().find(path), std::string::npos)
      << bad.status().ToString();
  std::remove(path.c_str());
}

// ------------------------------------------------------- expect and fast

// Four cells, clustering-major: No_Clustering/low3-5, No_Clustering/hi10-5,
// No_limit/low3-5, No_limit/hi10-5.
std::string ExpectScenario(const std::string& entries) {
  return R"json({
    "name": "expect_probe",
    "config": {"buffer_pages": 64, "warmup_transactions": 10,
               "measured_transactions": 60},
    "fast": {"measured_transactions": 30, "buffer_level": "small"},
    "sweep": {
      "clustering": ["No_Clustering", "No_limit"],
      "workload": [{"density": "low3", "rw_ratio": 5},
                   {"density": "hi10", "rw_ratio": 5}]
    },
    "expect": [)json" +
         entries + "]}";
}

// Synthetic records in cell order: response 2, 6 (No_Clustering) and 1, 2
// (No_limit); "cc.n" is zero everywhere.
std::vector<std::map<std::string, JsonValue>> SyntheticRecords() {
  std::vector<std::map<std::string, JsonValue>> records;
  for (const char* response : {"2", "6", "1", "2"}) {
    const auto doc = JsonValue::Parse(std::string(R"({"mean_response_s":)") +
                                      response + R"(,"cc":{"n":0}})");
    records.push_back(FlattenJson(*doc));
  }
  return records;
}

TEST(ScenarioTest, FlattenJsonJoinsPathsAndKeepsNumberText) {
  const auto doc = JsonValue::Parse(
      R"({"a":{"b":1.50,"c":[true,"x"]},"d":null,"e":{},"a2":[]})");
  ASSERT_TRUE(doc.ok());
  const auto flat = FlattenJson(*doc);
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_EQ(flat.at("a.b").number_text(), "1.50");
  EXPECT_TRUE(flat.at("a.c[0]").bool_value());
  EXPECT_EQ(flat.at("a.c[1]").string_value(), "x");
  EXPECT_TRUE(flat.at("d").is_null());
}

TEST(ScenarioTest, EachExpectKindHoldsAndDeviates) {
  const struct {
    const char* entry;
    bool holds;
  } kCases[] = {
      {R"({"kind": "ratio", "num": {"clustering": "No_Clustering",
           "workload": "hi10-5"}, "den": {"clustering": "No_limit"},
           "min": 2})", true},
      {R"({"kind": "ratio", "num": {"clustering": "No_Clustering",
           "workload": "hi10-5"}, "den": {"clustering": "No_limit"},
           "min": 4})", false},
      {R"({"kind": "ratio", "num": {"clustering": "No_Clustering"},
           "den": {"clustering": "No_limit"}, "max": 2.5})", false},
      {R"({"kind": "ratio", "num": {"clustering": "No_Clustering"},
           "den": {"clustering": "No_limit"}, "max": 2.5,
           "at_least": 1})", true},
      {R"({"kind": "best", "axis": "clustering", "levels": ["No_limit"],
           "among": ["No_Clustering"]})", true},
      {R"({"kind": "best", "axis": "clustering",
           "levels": ["No_Clustering"], "among": ["No_limit"]})", false},
      {R"({"kind": "best", "axis": "clustering",
           "levels": ["No_Clustering"], "factor": 2.5})", false},
      {R"({"kind": "best", "axis": "clustering",
           "levels": ["No_Clustering"], "factor": 2.5, "at_least": 1})",
       true},
      {R"({"kind": "best", "axis": "workload",
           "cell": {"clustering": "No_limit"}, "factor": 2})", true},
      {R"({"kind": "monotone", "axis": "workload"})", true},
      {R"({"kind": "monotone", "axis": "workload", "factor": 2.5})", false},
      {R"({"kind": "monotone", "axis": "clustering",
           "levels": ["No_limit", "No_Clustering"]})", true},
      {R"({"kind": "monotone", "axis": "workload",
           "cell": {"clustering": "No_Clustering"},
           "relative_to": {"clustering": "No_limit"}})", true},
      {R"({"kind": "monotone", "axis": "workload",
           "cell": {"clustering": "No_Clustering"},
           "relative_to": {"clustering": "No_limit"}, "factor": 2})", false},
      {R"({"kind": "nonzero"})", true},
      {R"({"kind": "nonzero", "field": "cc.n"})", false},
      {R"({"kind": "all", "of": [{"kind": "nonzero"},
           {"kind": "monotone", "axis": "workload"}]})", true},
      {R"({"kind": "all", "of": [{"kind": "nonzero"},
           {"kind": "nonzero", "field": "cc.n"}]})", false},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.entry);
    std::string entry(c.entry);
    entry.insert(1, R"("claim": "probe", )");
    const auto spec = ParseScenario(ExpectScenario(entry));
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    const auto verdicts = spec->Evaluate(SyntheticRecords());
    ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
    ASSERT_EQ(verdicts->size(), 1u);
    EXPECT_EQ((*verdicts)[0].claim, "probe");
    EXPECT_EQ((*verdicts)[0].holds, c.holds);
  }
}

TEST(ScenarioTest, ExpectAndFastSurviveTheRoundTrip) {
  const std::string entries = R"(
    {"claim": "r", "kind": "ratio", "field": "cc.n",
     "num": {"clustering": ["No_Clustering", "No_limit"]},
     "den": {"workload": "low3-5"}, "min": 0.5, "max": 3, "at_least": 2},
    {"claim": "b", "kind": "best", "axis": "clustering",
     "cell": {"workload": "hi10-5"}, "levels": ["No_limit"],
     "among": ["No_Clustering"], "factor": 1.1},
    {"claim": "m", "kind": "monotone", "axis": "workload",
     "levels": ["low3-5", "hi10-5"], "relative_to": {"clustering": "No_limit"},
     "factor": 1.25},
    {"claim": "a", "kind": "all", "of": [{"kind": "nonzero",
     "cell": {"clustering": "No_limit"}}]})";
  for (const bool fast : {false, true}) {
    const auto first = ParseScenario(ExpectScenario(entries), fast);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first->base.measured_transactions, fast ? 30 : 60);
    EXPECT_EQ(first->base.buffer_pages,
              fast ? first->base.BufferSmall() : 64u);
    EXPECT_EQ(first->fast,
              "{\"buffer_pages\":" +
                  std::to_string(first->base.BufferSmall()) +
                  ",\"measured_transactions\":30}");
    ASSERT_EQ(first->expect.size(), 4u);
    const Expectation& r = first->expect[0];
    EXPECT_EQ(r.field, "cc.n");
    ASSERT_EQ(r.num.size(), 1u);
    EXPECT_EQ(r.num[0].second.size(), 2u);
    EXPECT_EQ(r.min, 0.5);
    EXPECT_EQ(r.at_least, 2);
    EXPECT_EQ(first->expect[1].factor, 1.1);
    EXPECT_EQ(first->expect[2].relative_to[0].first, "clustering");
    EXPECT_EQ(first->expect[3].of.size(), 1u);

    const std::string json = first->ToJson();
    const auto second = ParseScenario(json, fast);
    ASSERT_TRUE(second.ok()) << second.status().ToString() << "\n" << json;
    EXPECT_EQ(second->ToJson(), json);
    ExpectSameCells(*first, *second);
    // The overlay round-trips too: parsed in fast mode, the non-fast
    // rendering still yields the fast cells.
    const auto refast = ParseScenario(
        ParseScenario(ExpectScenario(entries))->ToJson(), true);
    ASSERT_TRUE(refast.ok());
    EXPECT_EQ(refast->base.measured_transactions, 30);
  }
}

TEST(ScenarioTest, ExpectErrorsNameTheEntryAndNeverPassVacuously) {
  const struct {
    const char* entry;
    const char* needle;
  } kCases[] = {
      {R"({"claim": "c", "kind": "rank"})", "unknown expect kind \"rank\""},
      {R"({"kind": "nonzero"})", "needs a \"claim\""},
      {R"({"claim": "c", "kind": "best", "axis": "clustering",
           "levels": ["2_IO_limit"]})", "no cell has clustering level"},
      {R"({"claim": "c", "kind": "best", "axis": "users",
           "levels": ["200"]})", "no cell has users level \"200\""},
      {R"({"claim": "c", "kind": "monotone", "axis": "color"})",
       "unknown axis \"color\""},
      {R"({"claim": "c", "kind": "best"})", "needs \"axis\""},
      {R"({"claim": "c", "kind": "ratio", "num": {"clustering": "No_limit"},
           "den": {"clustering": "No_Clustering"}})",
       "needs \"min\" or \"max\""},
      {R"({"claim": "c", "kind": "ratio", "num": {"clustering": "No_limit"},
           "den": {"clustering": ["No_Clustering", "No_limit"]}, "min": 1})",
       "one level per axis"},
      {R"({"claim": "c", "kind": "nonzero", "axis": "workload"})",
       "\"axis\" is a \"best\"/\"monotone\" key"},
      {R"({"claim": "c", "kind": "nonzero", "factor": 2})",
       "\"factor\" is a \"best\"/\"monotone\" key"},
      {R"({"claim": "c", "kind": "nonzero", "factor": 2})",
       "\"factor\" is a \"best\"/\"monotone\" key"},
      {R"({"claim": "c", "kind": "best", "axis": "workload",
           "at_least": 3})", "\"at_least\" must be in [1, 2]"},
      {R"({"claim": "c", "kind": "all", "of": []})", "non-empty \"of\""},
      {R"({"claim": "c", "kind": "all", "of": [{"kind": "best"}]})",
       "of[0]: needs \"axis\""},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.entry);
    const auto spec = ParseScenario(ExpectScenario(
        std::string(R"({"claim": "ok", "kind": "nonzero"}, )") + c.entry));
    ASSERT_FALSE(spec.ok());
    EXPECT_NE(spec.status().message().find("expect[1]"), std::string::npos)
        << spec.status().ToString();
    EXPECT_NE(spec.status().message().find(c.needle), std::string::npos)
        << spec.status().ToString();
  }

  // A field no record carries, or one that is not a number, is an error
  // when the records are read.
  for (const char* field : {"no.such.field", "cc"}) {
    SCOPED_TRACE(field);
    const auto spec = ParseScenario(ExpectScenario(
        std::string(R"({"claim": "f", "kind": "nonzero", "field": ")") +
        field + "\"}"));
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto records = SyntheticRecords();
    records[0]["cc"] = *JsonValue::Parse("\"text\"");
    const auto verdicts = spec->Evaluate(records);
    ASSERT_FALSE(verdicts.ok());
    EXPECT_NE(verdicts.status().message().find("expect[0] (\"f\")"),
              std::string::npos)
        << verdicts.status().ToString();
    EXPECT_NE(verdicts.status().message().find(field), std::string::npos);
  }
}

// Two clustering levels that differ only in split share the level name
// "No_limit": with claims to judge, that is an error naming both cells
// (a ratio would read the first and a monotone walk skip the second).
TEST(ScenarioTest, ExpectRejectsCellsWithTheSameLevels) {
  const std::string text = R"({"name": "dup",
    "sweep": {"clustering": [{"pool": "No_limit", "split": "No_Splitting"},
                             {"pool": "No_limit", "split": "Linear_Split"}]})";
  ASSERT_TRUE(ParseScenario(text + "}").ok());  // no claims, no ambiguity
  const auto spec = ParseScenario(
      text + R"(, "expect": [{"claim": "c", "kind": "nonzero"}]})");
  ASSERT_FALSE(spec.ok());
  const std::string message = spec.status().message();
  EXPECT_NE(message.find("cells 0 (No_limit/"), std::string::npos) << message;
  EXPECT_NE(message.find("and 1 (No_limit/"), std::string::npos) << message;
  EXPECT_NE(message.find("clustering No_limit"), std::string::npos) << message;
}

TEST(ScenarioTest, FastOverlayTakesTheConfigRowsAndChecks) {
  const auto parse = [](const std::string& fast) {
    return ParseScenario(R"({"name": "f", "config": {"buffer_pages": 64},
                             "fast": )" + fast + "}");
  };
  const auto unknown = parse(R"({"measured": 5})");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("fast: unknown key \"measured\""),
            std::string::npos)
      << unknown.status().ToString();
  const auto gated = parse(R"({"span_exemplars": 2})");
  ASSERT_FALSE(gated.ok());
  EXPECT_NE(gated.status().message().find("\"span_exemplars\""),
            std::string::npos)
      << gated.status().ToString();
  const auto both = parse(R"({"buffer_pages": 8, "buffer_level": "small"})");
  ASSERT_FALSE(both.ok());
  EXPECT_NE(both.status().message().find("fast: set either"),
            std::string::npos);
  const auto nested = ParseScenario(
      R"({"name": "f", "fast": {"workload": {"rw_ratio": 100},
          "concurrency": {"enabled": true}}})",
      true);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(nested->base.workload.read_write_ratio, 100);
  EXPECT_TRUE(nested->base.cc.enabled);
}

// The tentpole's behaviour-preservation check at unit scale: a scenario
// cell run through the ExperimentRunner (the semclust_run path) produces
// the identical RunResult as the facade driven directly with the same
// derived seed (the legacy path).
TEST(ScenarioTest, FacadeEquivalenceWithDirectModelRun) {
  const auto spec = ParseScenario(R"json({
    "name": "facade_equivalence",
    "config": {
      "database_bytes": 2097152,
      "buffer_pages": 64,
      "warmup_transactions": 50,
      "measured_transactions": 300,
      "seed": 7
    }
  })json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto cells = spec->Expand();
  ASSERT_EQ(cells.size(), 1u);

  const exec::ExperimentRunner runner(1);
  const auto outcomes = runner.Run({cells[0].config});
  ASSERT_EQ(outcomes.size(), 1u);

  ModelConfig direct = TestConfig();
  direct.seed = exec::ExperimentRunner::CellSeed(7, 0);
  direct.cell_index = 0;
  EngineeringDbModel model(direct);
  const RunResult expected = model.Run();

  const RunResult& got = outcomes[0].result;
  EXPECT_DOUBLE_EQ(got.response_time.Mean(), expected.response_time.Mean());
  EXPECT_EQ(got.transactions, expected.transactions);
  EXPECT_EQ(got.logical_reads, expected.logical_reads);
  EXPECT_EQ(got.logical_writes, expected.logical_writes);
  EXPECT_EQ(got.metrics.ToJson(), expected.metrics.ToJson());
}

}  // namespace
}  // namespace oodb::core
