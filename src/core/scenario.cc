#include "core/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "core/experiment.h"
#include "core/policy_registry.h"
#include "util/json_reader.h"
#include "util/json_writer.h"

namespace oodb::core {

namespace {

using S = ScenarioSpec;
using M = ModelConfig;
using Cc = cc::CcConfig;
using Clu = cluster::ClusterConfig;
using Dyn = dyn::DynConfig;
using W = WorkloadEntry;
using Ocb = ocb::OcbConfig;
using Oct = workload::WorkloadConfig;
using E = Expectation;

const PolicyRegistry& Reg() { return PolicyRegistry::Global(); }

Status Err(std::string what) {
  return Status::InvalidArgument("scenario: " + std::move(what));
}

Status TypeErr(const std::string& key, const std::string& want) {
  return Err("\"" + key + "\" must be " + want);
}

Status Unknown(const std::string& key, const std::string& what,
               const std::string& name, const std::string& known) {
  return Err("\"" + key + "\": unknown " + what + " \"" + name +
             "\"; known: " + known);
}

std::string Indexed(const std::string& ctx, size_t i) {
  return ctx + "[" + std::to_string(i) + "]";
}

// The hand-written keys: an alias of buffer_pages, and the workload family.
constexpr char kBufferLevel[] = "buffer_level";
constexpr char kKind[] = "kind";

// The policy-registry axis of each enum member type.
using A = PolicyAxis;
constexpr A AxisOf(buffer::ReplacementPolicy) { return A::kReplacement; }
constexpr A AxisOf(buffer::PrefetchPolicy) { return A::kPrefetch; }
constexpr A AxisOf(cluster::CandidatePool) { return A::kCandidatePool; }
constexpr A AxisOf(cluster::SplitPolicy) { return A::kSplit; }
constexpr A AxisOf(workload::StructureDensity) { return A::kDensity; }
constexpr A AxisOf(obj::RelKind) { return A::kRelKind; }
constexpr A AxisOf(ocb::RefLocality) { return A::kOcbLocality; }
constexpr A AxisOf(dyn::PolicyKind) { return A::kDynamic; }
constexpr A AxisOf(ShardPlacement) { return A::kShardPlacement; }
constexpr A AxisOf(ArrivalProcess) { return A::kArrival; }

template <class E>
const std::string& CanonicalName(E e) {
  return Reg().CanonicalNames(AxisOf(e)).at(static_cast<size_t>(e));
}

/// A gate group: one predicate on the parsed block. A gated key fails the
/// parse while it is false, and is written only while it is true.
template <class B>
struct Gate {
  bool (*open)(const B&);
  const char* what;  ///< "a sharding knob"
  const char* how;   ///< completes `add "<opener>"`
  const char* opener = nullptr;  ///< a hand-written opening key
  const Gate* outer = nullptr;   ///< churn sits inside OCB
};

/// One row, in ToJson key order: the key, its gate group, the group it
/// opens (exempt from that group's check), and its member's read and write.
template <class B>
struct Knob {
  const char* key;
  const Gate<B>* gate;
  const Gate<B>* opens;
  Status (*read)(const JsonValue&, const std::string&, B&);
  std::string (*json)(const B&);
  // Sweep rows only (see Axis): nesting, label, level count, level applied.
  int nest = 0;
  const char* label = nullptr;
  size_t (*size)(const B&) = nullptr;
  std::string (*apply)(const B&, size_t, M&) = nullptr;
};

template <class B>
using Table = std::vector<Knob<B>>;

template <class B>
Status CheckGates(const JsonValue& obj, const std::string& ctx,
                  const Table<B>& rows, const B& b) {
  for (const Knob<B>& row : rows) {
    if (row.gate == nullptr || obj.Find(row.key) == nullptr) continue;
    for (const Gate<B>* g : {row.gate->outer, row.gate}) {
      if (g == nullptr || row.opens == g || g->open(b)) continue;
      const auto it = std::find_if(rows.begin(), rows.end(),
                                   [g](const auto& r) { return r.opens == g; });
      const char* opener = it == rows.end() ? g->opener : it->key;
      return Err(ctx + ": \"" + row.key + "\" is " + g->what + "; add \"" +
                 opener + "\"" + g->how);
    }
  }
  return Status::Ok();
}

/// Reads every member of `obj` through its row, then checks the gates, so
/// key order never matters. The caller reads `own`, a hand-written key.
template <class B>
Status ReadBlock(const JsonValue& obj, const std::string& ctx,
                 const Table<B>& rows, B& b, std::string_view own = {},
                 bool gates = true) {
  if (!obj.is_object()) return TypeErr(ctx, "an object");
  for (const auto& [key, v] : obj.members()) {
    if (!own.empty() && key == own) continue;
    const auto row = std::find_if(rows.begin(), rows.end(),
                                  [&](const auto& r) { return key == r.key; });
    if (row == rows.end()) {
      std::string known(own);
      for (const Knob<B>& r : rows) {
        known += known.empty() ? "" : ", ";
        known += r.key;
      }
      return Err(ctx + ": unknown key \"" + key + "\" (known: " + known +
                 ")");
    }
    OODB_RETURN_IF_ERROR(row->read(v, ctx + "." + key, b));
  }
  return gates ? CheckGates(obj, ctx, rows, b) : Status::Ok();
}

/// The open rows in order; an empty value, array or object is left out,
/// and so is a row whose key `keep` rejects.
template <class B>
std::string WriteBlock(
    const Table<B>& rows, const B& b,
    const std::function<bool(std::string_view)>& keep = nullptr) {
  JsonObjectWriter out;
  for (const Knob<B>& row : rows) {
    if (keep && !keep(row.key)) continue;
    if (row.gate != nullptr && !row.gate->open(b)) continue;
    const std::string value = row.json(b);
    if (value.empty() || value == "[]" || value == "{}") continue;
    out.AddRaw(row.key, value);
  }
  return out.str();
}

const Table<Cc>& RowsOf(const Cc&);
const Table<Clu>& RowsOf(const Clu&);
const Table<W>& RowsOf(const W&);
const Table<E>& RowsOf(const E&);

/// The checked read (and below, the write) of each member type. Integers
/// parse from the source text: a fraction, an exponent, a sign on an
/// unsigned field or a value out of range is an error, never truncated.
template <class T>
Status Read(const JsonValue& v, const std::string& key, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    if (!v.is_string()) return TypeErr(key, "a string");
    out = v.string_value();
  } else if constexpr (requires(T t) { t.has_value(); }) {
    return Read(v, key, out.emplace());
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) return TypeErr(key, "a boolean (true/false)");
    out = v.bool_value();
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!v.is_number() || !std::isfinite(v.number_value())) {
      return TypeErr(key, "a finite number");
    }
    out = v.number_value();
  } else if constexpr (std::is_integral_v<T>) {
    const std::string text = v.is_number() ? v.number_text() : "";
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, out);
    if (text.empty() || ec != std::errc() || stop != end) {
      using L = std::numeric_limits<T>;
      return TypeErr(key, "an integer in [" + std::to_string(L::min()) +
                              ", " + std::to_string(L::max()) + "]" +
                              (text.empty() ? "" : ", not " + text));
    }
  } else if constexpr (std::is_enum_v<T>) {
    const A axis = AxisOf(out);
    if (!v.is_string()) return TypeErr(key, "a string");
    const auto value = Reg().Find(axis, v.string_value());
    if (!value) {
      return Unknown(key, std::string(PolicyAxisName(axis)) + " policy",
                     v.string_value(), Reg().KnownNames(axis));
    }
    out = static_cast<T>(*value);
  } else if constexpr (requires(const T& t) { RowsOf(t); }) {
    // A clustering entry may also be a bare pool name.
    if constexpr (std::is_same_v<T, Clu>) {
      if (v.is_string()) return Read(v, key, out.pool);
    }
    return ReadBlock(v, key, RowsOf(out), out);
  } else {  // a std::vector of any length, or a std::array of its size
    constexpr bool kFixed = !requires(T seq) { seq.resize(0); };
    if (!v.is_array() || (kFixed && v.items().size() != out.size())) {
      return TypeErr(key, kFixed ? "an array of " + std::to_string(out.size()) +
                                       " numbers"
                                 : "an array");
    }
    if constexpr (!kFixed) out.resize(v.items().size());
    for (size_t i = 0; i < out.size(); ++i) {
      OODB_RETURN_IF_ERROR(Read(v.items()[i], Indexed(key, i), out[i]));
    }
  }
  return Status::Ok();
}

template <class T>
std::string Json(const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return value.empty() ? "" : '"' + JsonEscape(value) + '"';
  } else if constexpr (requires(T t) { t.has_value(); }) {
    return value ? Json(*value) : "";
  } else if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    return JsonNumber(value);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else if constexpr (std::is_enum_v<T>) {
    return '"' + JsonEscape(CanonicalName(value)) + '"';
  } else if constexpr (requires(const T& t) { RowsOf(t); }) {
    return WriteBlock(RowsOf(value), value);
  } else {
    JsonArrayWriter out;
    for (const auto& item : value) out.AddRaw(Json(item));
    return out.str();
  }
}

/// The row of the member at `b.*Path...`, a path of member pointers.
template <class B, auto... Path>
Knob<B> Row(const char* key, const Gate<B>* gate = nullptr,
            const Gate<B>* opens = nullptr) {
  return {key, gate, opens,
          [](const JsonValue& v, const std::string& ctx, B& b) {
            return Read(v, ctx, (b .* ... .* Path));
          },
          [](const B& b) { return Json((b .* ... .* Path)); }};
}

// A base value: one ModelConfig member, or (nullptr) the workload.
template <class T>
T BaseLevel(const M& m, T M::*member) {
  return m.*member;
}
W BaseLevel(const M& m, std::nullptr_t) { return {m.workload, m.ocb}; }
template <class T>
void SetLevel(M& m, T M::*member, const T& level) {
  m.*member = level;
}
void SetLevel(M& m, std::nullptr_t, const W& w) {
  m = WithWorkload(m, w.oct);
  m.ocb = w.ocb;
}

const Gate<S> kSpans{[](const S& s) { return s.base.profile_spans; },
                     "a span-profiler knob", ": true to enable the profiler"};
// A "shards" sweep axis opens it too: its knobs apply to the swept cells.
const Gate<S> kShard{
    [](const S& s) { return s.base.shards != 1 || !s.shards.empty(); },
    "a sharding knob", ": <N> in config or sweep to enable the N-shard core"};
const Gate<S> kArrival{
    [](const S& s) { return s.base.arrival != ArrivalProcess::kClosed; },
    "an open-arrival knob", ": \"Open\" to enable Poisson arrivals"};
const Gate<Cc> kCc{[](const Cc& c) { return c.enabled; },
                   "a concurrency-control knob", ": true to enable locking"};
const Gate<Clu> kDyn{[](const Clu& c) { return c.dynamic.enabled(); },
                     "a dynamic re-clustering knob", ": \"DSTC\" or \"OPCF\""};
const Gate<W> kOcb{[](const W& w) { return w.ocb.enabled; }, "an OCB knob",
                   ": \"ocb\" to select the OCB workload", kKind};
const Gate<W> kOct{[](const W& w) { return !w.ocb.enabled; },
                   "an OCT workload knob", ": \"oct\"", kKind};
const Gate<W> kChurn{[](const W& w) { return w.ocb.churn_enabled(); },
                     "a churn knob", " > 0 to enable churn", nullptr, &kOcb};

constexpr auto kBase = &S::base;
const Table<S> kConfigRows = {
    Row<S, kBase, &M::database_bytes>("database_bytes"),
    Row<S, kBase, &M::page_size_bytes>("page_size_bytes"),
    Row<S, kBase, &M::append_fill_fraction>("append_fill_fraction"),
    Row<S, kBase, &M::num_users>("num_users"),
    Row<S, kBase, &M::num_disks>("num_disks"),
    Row<S, kBase, &M::think_time_s>("think_time_s"),
    Row<S, kBase, &M::buffer_pages>("buffer_pages"),
    Row<S, kBase, &M::replacement>("replacement"),
    Row<S, kBase, &M::prefetch>("prefetch"),
    Row<S, kBase, &M::warmup_transactions>("warmup_transactions"),
    Row<S, kBase, &M::measured_transactions>("measured_transactions"),
    Row<S, kBase, &M::measurement_epochs>("measurement_epochs"),
    Row<S, kBase, &M::telemetry_interval_s>("telemetry_interval_s"),
    Row<S, kBase, &M::telemetry_audit_placement>("telemetry_audit_placement"),
    Row<S, kBase, &M::rw_ratio_schedule>("rw_ratio_schedule"),
    Row<S, kBase, &M::static_reorganize_after_build>(
        "static_reorganize_after_build"),
    Row<S, kBase, &M::profile_spans>("profile_spans", nullptr, &kSpans),
    Row<S, kBase, &M::span_exemplars>("span_exemplars", &kSpans),
    Row<S, kBase, &M::shards>("shards", &kShard, &kShard),
    Row<S, kBase, &M::shard_placement>("shard_placement", &kShard),
    Row<S, kBase, &M::shard_hop_latency_s>("shard_hop_latency_s", &kShard),
    Row<S, kBase, &M::shard_group_cap>("shard_group_cap", &kShard),
    Row<S, kBase, &M::cc>("concurrency"),
    Row<S, kBase, &M::arrival>("arrival", &kArrival, &kArrival),
    Row<S, kBase, &M::arrival_rate_tps>("arrival_rate_tps", &kArrival),
    Row<S, kBase, &M::seed>("seed"),
    {"workload", nullptr, nullptr,
     [](const JsonValue& v, const std::string& ctx, S& s) {
       W w = BaseLevel(s.base, nullptr);
       OODB_RETURN_IF_ERROR(Read(v, ctx, w));
       SetLevel(s.base, nullptr, w);
       return Status::Ok();
     },
     [](const S& s) { return Json(BaseLevel(s.base, nullptr)); }},
    Row<S, kBase, &M::clustering>("clustering"),
};

const Table<Cc> kCcRows = {
    Row<Cc, &Cc::enabled>("enabled", &kCc, &kCc),
    Row<Cc, &Cc::lock_timeout_s>("cc_lock_timeout_s", &kCc),
    Row<Cc, &Cc::max_retries>("cc_max_retries", &kCc),
    Row<Cc, &Cc::backoff_base_s>("cc_backoff_base_s", &kCc),
    Row<Cc, &Cc::backoff_cap_s>("cc_backoff_cap_s", &kCc),
    Row<Cc, &Cc::page_latches>("cc_page_latches", &kCc),
};

constexpr auto kD = &Clu::dynamic;
const Table<Clu> kClusterRows = {
    Row<Clu, &Clu::pool>("pool"),
    Row<Clu, &Clu::io_limit>("io_limit"),
    Row<Clu, &Clu::split>("split"),
    Row<Clu, &Clu::use_hints>("use_hints"),
    Row<Clu, &Clu::hint_kind>("hint_kind"),
    Row<Clu, &Clu::hint_boost>("hint_boost"),
    Row<Clu, kD, &Dyn::policy>("dynamic", nullptr, &kDyn),
    Row<Clu, kD, &Dyn::observation_period>("dyn_observation_period", &kDyn),
    Row<Clu, kD, &Dyn::heat_decay>("dyn_heat_decay", &kDyn),
    Row<Clu, kD, &Dyn::max_tracked_objects>("dyn_max_tracked_objects", &kDyn),
    Row<Clu, kD, &Dyn::max_tracked_links>("dyn_max_tracked_links", &kDyn),
    Row<Clu, kD, &Dyn::trigger_threshold>("dyn_trigger_threshold", &kDyn),
    Row<Clu, kD, &Dyn::max_unit_size>("dyn_unit_size", &kDyn),
    Row<Clu, kD, &Dyn::max_moves_per_txn>("dyn_max_moves", &kDyn),
    Row<Clu, kD, &Dyn::opcf_queue_watermark>("opcf_watermark", &kDyn),
    Row<Clu, kD, &Dyn::opcf_batch>("opcf_batch", &kDyn),
};

constexpr auto kO = &W::ocb;
const Table<W> kWorkloadRows = {
    // Hand-written: the workload family, which decides the legal rows.
    {kKind, nullptr, nullptr,
     [](const JsonValue& v, const std::string& ctx, W& w) -> Status {
       const std::string kind = v.is_string() ? v.string_value() : "";
       if (kind != "oct" && kind != "ocb") {
         return Unknown(ctx, "workload kind", kind, "oct, ocb");
       }
       w.ocb.enabled = kind == "ocb";
       return Status::Ok();
     },
     [](const W& w) { return std::string(w.ocb.enabled ? "\"ocb\"" : ""); }},
    Row<W, &W::oct, &Oct::density>("density", &kOct),
    Row<W, &W::oct, &Oct::read_write_ratio>("rw_ratio"),
    Row<W, kO, &Ocb::classes>("classes", &kOcb),
    Row<W, kO, &Ocb::hierarchy_depth>("hierarchy_depth", &kOcb),
    Row<W, kO, &Ocb::instances>("instances", &kOcb),
    Row<W, kO, &Ocb::refs_per_object>("refs_per_object", &kOcb),
    Row<W, kO, &Ocb::locality>("locality", &kOcb),
    Row<W, kO, &Ocb::zipf_theta>("zipf_theta", &kOcb),
    Row<W, kO, &Ocb::gaussian_window>("gaussian_window", &kOcb),
    Row<W, kO, &Ocb::base_object_bytes>("base_object_bytes", &kOcb),
    Row<W, kO, &Ocb::inheritance_fraction>("inheritance_fraction", &kOcb),
    Row<W, kO, &Ocb::interleaved_read_probability>(
        "interleaved_read_probability", &kOcb),
    Row<W, kO, &Ocb::partitions>("partitions", &kOcb),
    Row<W, kO, &Ocb::set_lookup_size>("set_lookup_size", &kOcb),
    Row<W, kO, &Ocb::traversal_depth>("traversal_depth", &kOcb),
    Row<W, kO, &Ocb::read_mix>("read_mix", &kOcb),
    Row<W, kO, &Ocb::churn_probability>("churn_probability", &kChurn, &kChurn),
    Row<W, kO, &Ocb::churn_burst_length>("churn_burst_length", &kChurn),
    Row<W, kO, &Ocb::churn_cross_partition>("churn_cross_partition", &kChurn),
};

const Table<Cc>& RowsOf(const Cc&) { return kCcRows; }
const Table<Clu>& RowsOf(const Clu&) { return kClusterRows; }
const Table<W>& RowsOf(const W&) { return kWorkloadRows; }

// ---- expectations -------------------------------------------------------

/// An entry's outcome: `held` of the `groups` of cells it tested passed.
struct Tally {
  size_t held = 0;
  size_t groups = 0;
};

Status Fail(std::string what) {
  return Status::InvalidArgument(std::move(what));
}

bool Contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

std::string Joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : ", ") + n;
  return out;
}

/// Resolves selectors against the expanded cells and reads their record
/// fields; without records (`records` null) every field reads 1, which
/// resolves an entry without judging it.
class ExpectEval {
 public:
  using Records = std::vector<std::map<std::string, JsonValue>>;

  ExpectEval(const std::vector<ScenarioCell>& cells, const Records* records)
      : cells_(cells), records_(records) {}

  const ScenarioCell& cell(size_t c) const { return cells_[c]; }

  /// The axis's level names in sweep order.
  std::vector<std::string> LevelNames(const std::string& axis) const {
    std::vector<std::string> names;
    for (const ScenarioCell& c : cells_) {
      const std::string& level = c.levels.at(axis);
      if (!Contains(names, level)) names.push_back(level);
    }
    return names;
  }

  /// Fails unless `axis` is a sweep axis and each of `levels` is one of
  /// its levels.
  Status CheckLevels(const std::string& axis,
                     const std::vector<std::string>& levels,
                     const char* key) const {
    const auto& known = cells_.front().levels;
    if (known.find(axis) == known.end()) {
      std::vector<std::string> axes;
      for (const auto& [name, level] : known) axes.push_back(name);
      return Fail("\"" + std::string(key) + "\": unknown axis \"" + axis +
                  "\" (known: " + Joined(axes) + ")");
    }
    const std::vector<std::string> names = LevelNames(axis);
    for (const std::string& level : levels) {
      if (!Contains(names, level)) {
        return Fail("\"" + std::string(key) + "\": no cell has " + axis +
                    " level \"" + level + "\" (levels: " + Joined(names) +
                    ")");
      }
    }
    return Status::Ok();
  }

  /// The cells `sel` names (every cell for an empty selector).
  Status Match(const CellSelector& sel, const char* key,
               std::vector<size_t>& out) const {
    for (const auto& [axis, levels] : sel) {
      if (levels.empty()) return Fail("\"" + std::string(key) + "\": empty");
      OODB_RETURN_IF_ERROR(CheckLevels(axis, levels, key));
    }
    for (size_t c = 0; c < cells_.size(); ++c) {
      if (Selects(sel, c)) out.push_back(c);
    }
    if (out.empty()) {
      return Fail("\"" + std::string(key) + "\" matches no cell");
    }
    return Status::Ok();
  }

  /// The cell agreeing with `c` off the axes `sel` names, and on them
  /// having `sel`'s level.
  Status Partner(size_t c, const CellSelector& sel, const char* key,
                 size_t& out) const {
    CellSelector whole;
    for (const auto& [axis, level] : cells_[c].levels) {
      whole.push_back({axis, {level}});
    }
    for (const auto& [axis, levels] : sel) {
      if (levels.size() != 1) {
        return Fail("\"" + std::string(key) +
                    "\" must name one level per axis");
      }
      const auto it = std::find_if(whole.begin(), whole.end(),
                                   [&](const auto& w) { return w.first == axis; });
      if (it == whole.end()) {
        whole.push_back({axis, levels});
      } else {
        it->second = levels;
      }
    }
    std::vector<size_t> found;
    OODB_RETURN_IF_ERROR(Match(whole, key, found));
    out = found.front();  // one cell: Validate rejects repeated levels
    return Status::Ok();
  }

  /// `pool` split by every axis but `axis`, in first-appearance order.
  std::vector<std::vector<size_t>> Groups(const std::vector<size_t>& pool,
                                          const std::string& axis) const {
    std::vector<std::pair<std::string, std::vector<size_t>>> groups;
    for (const size_t c : pool) {
      std::string key;
      for (const auto& [name, level] : cells_[c].levels) {
        if (name != axis) key += level + '\x1f';
      }
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const auto& g) { return g.first == key; });
      if (it == groups.end()) it = groups.insert(groups.end(), {key, {}});
      it->second.push_back(c);
    }
    std::vector<std::vector<size_t>> out;
    for (auto& group : groups) out.push_back(std::move(group.second));
    return out;
  }

  Status Value(size_t c, const std::string& field, double& out) const {
    if (records_ == nullptr) {
      out = 1;
      return Status::Ok();
    }
    const auto& record = (*records_)[c];
    const auto it = record.find(field);
    if (it == record.end() || !it->second.is_number()) {
      return Fail("field \"" + field + "\" of cell " +
                  cells_[c].cell_label +
                  (it == record.end() ? " is not in its record"
                                      : " is not a number"));
    }
    out = it->second.number_value();
    return Status::Ok();
  }

 private:
  bool Selects(const CellSelector& sel, size_t c) const {
    return std::all_of(sel.begin(), sel.end(), [&](const auto& s) {
      return Contains(s.second, cells_[c].levels.at(s.first));
    });
  }

  const std::vector<ScenarioCell>& cells_;
  const Records* records_;
};

Status Judge(const E& e, const ExpectEval& x, bool& holds);

Status EvalRatio(const E& e, const ExpectEval& x, Tally& t) {
  if (e.num.empty() || e.den.empty()) {
    return Fail("needs \"num\" and \"den\"");
  }
  if (!e.min && !e.max) return Fail("needs \"min\" or \"max\"");
  std::vector<size_t> nums;
  OODB_RETURN_IF_ERROR(x.Match(e.num, "num", nums));
  for (const size_t c : nums) {
    size_t d = 0;
    double a = 0, b = 0;
    OODB_RETURN_IF_ERROR(x.Partner(c, e.den, "den", d));
    OODB_RETURN_IF_ERROR(x.Value(c, e.field, a));
    OODB_RETURN_IF_ERROR(x.Value(d, e.field, b));
    const double r = a / b;
    ++t.groups;
    t.held += (!e.min || r >= *e.min) && (!e.max || r <= *e.max);
  }
  return Status::Ok();
}

Status EvalBest(const E& e, const ExpectEval& x, Tally& t) {
  if (e.axis.empty()) return Fail("needs \"axis\"");
  std::vector<size_t> pool;
  OODB_RETURN_IF_ERROR(x.Match(e.cell, "cell", pool));
  OODB_RETURN_IF_ERROR(x.CheckLevels(e.axis, e.levels, "levels"));
  OODB_RETURN_IF_ERROR(x.CheckLevels(e.axis, e.among, "among"));
  for (const auto& group : x.Groups(pool, e.axis)) {
    double best = std::numeric_limits<double>::infinity();
    std::vector<double> candidates;
    size_t among = 0;
    for (const size_t c : group) {
      const std::string& level = x.cell(c).levels.at(e.axis);
      double v = 0;
      OODB_RETURN_IF_ERROR(x.Value(c, e.field, v));
      if (e.among.empty() || Contains(e.among, level)) {
        best = std::min(best, v);
        ++among;
      }
      if (e.levels.empty() || Contains(e.levels, level)) {
        candidates.push_back(v);
      }
    }
    if ((!e.among.empty() && among != e.among.size()) ||
        (!e.levels.empty() && candidates.size() != e.levels.size())) {
      return Fail("the group of cell " + x.cell(group.front()).cell_label +
                  " lacks a listed " + e.axis + " level");
    }
    ++t.groups;
    t.held += std::all_of(candidates.begin(), candidates.end(),
                          [&](double v) { return v <= e.factor * best; });
  }
  return Status::Ok();
}

Status EvalMonotone(const E& e, const ExpectEval& x, Tally& t) {
  if (e.axis.empty()) return Fail("needs \"axis\"");
  std::vector<size_t> pool;
  OODB_RETURN_IF_ERROR(x.Match(e.cell, "cell", pool));
  OODB_RETURN_IF_ERROR(x.CheckLevels(e.axis, e.levels, "levels"));
  const std::vector<std::string> order =
      e.levels.empty() ? x.LevelNames(e.axis) : e.levels;
  for (const auto& group : x.Groups(pool, e.axis)) {
    std::vector<double> seq;
    for (const std::string& level : order) {
      const auto it = std::find_if(group.begin(), group.end(), [&](size_t c) {
        return x.cell(c).levels.at(e.axis) == level;
      });
      if (it == group.end()) {
        return Fail("the group of cell " + x.cell(group.front()).cell_label +
                    " lacks " + e.axis + " level \"" + level + "\"");
      }
      double v = 0;
      OODB_RETURN_IF_ERROR(x.Value(*it, e.field, v));
      if (!e.relative_to.empty()) {
        size_t d = 0;
        double base = 0;
        OODB_RETURN_IF_ERROR(x.Partner(*it, e.relative_to, "relative_to", d));
        OODB_RETURN_IF_ERROR(x.Value(d, e.field, base));
        v /= base;
      }
      seq.push_back(v);
    }
    bool rises = true;
    for (size_t i = 1; i < seq.size(); ++i) {
      rises = rises && seq[i] > e.factor * seq[i - 1];
    }
    ++t.groups;
    t.held += rises;
  }
  return Status::Ok();
}

Status EvalNonzero(const E& e, const ExpectEval& x, Tally& t) {
  std::vector<size_t> pool;
  OODB_RETURN_IF_ERROR(x.Match(e.cell, "cell", pool));
  double sum = 0;
  for (const size_t c : pool) {
    double v = 0;
    OODB_RETURN_IF_ERROR(x.Value(c, e.field, v));
    sum += v;
  }
  t.groups = 1;
  t.held = sum != 0;
  return Status::Ok();
}

Status EvalAll(const E& e, const ExpectEval& x, Tally& t) {
  if (e.of.empty()) return Fail("needs a non-empty \"of\"");
  bool all = true;
  for (size_t i = 0; i < e.of.size(); ++i) {
    bool holds = false;
    const Status st = Judge(e.of[i], x, holds);
    if (!st.ok()) return Fail(Indexed("of", i) + ": " + st.message());
    all = all && holds;
  }
  t.groups = 1;
  t.held = all;
  return Status::Ok();
}

/// One row per expectation kind: its name and its test.
struct ExpectKind {
  const char* name;
  Status (*eval)(const E&, const ExpectEval&, Tally&);
};

constexpr ExpectKind kExpectKinds[] = {
    {"ratio", EvalRatio},     {"best", EvalBest},
    {"monotone", EvalMonotone}, {"nonzero", EvalNonzero},
    {"all", EvalAll},
};

std::string KnownKinds() {
  std::string out;
  for (const ExpectKind& k : kExpectKinds) {
    out += (out.empty() ? "" : ", ") + std::string(k.name);
  }
  return out;
}

Status Judge(const E& e, const ExpectEval& x, bool& holds) {
  const auto* kind =
      std::find_if(std::begin(kExpectKinds), std::end(kExpectKinds),
                   [&](const ExpectKind& k) { return e.kind == k.name; });
  if (kind == std::end(kExpectKinds)) {
    return Fail("unknown kind \"" + e.kind + "\"; known: " + KnownKinds());
  }
  Tally t;
  OODB_RETURN_IF_ERROR(kind->eval(e, x, t));
  if (e.at_least && (*e.at_least < 1 ||
                     static_cast<size_t>(*e.at_least) > t.groups)) {
    return Fail("\"at_least\" must be in [1, " + std::to_string(t.groups) +
                "], the number of groups tested");
  }
  holds = t.held >= (e.at_least ? static_cast<size_t>(*e.at_least)
                                 : t.groups);
  return Status::Ok();
}

StatusOr<std::vector<ShapeVerdict>> JudgeAll(
    const std::vector<E>& expect, const std::vector<ScenarioCell>& cells,
    const ExpectEval::Records* records) {
  const ExpectEval x(cells, records);
  std::vector<ShapeVerdict> verdicts;
  for (size_t i = 0; i < expect.size(); ++i) {
    const E& e = expect[i];
    ShapeVerdict& v = verdicts.emplace_back();
    v.claim = e.claim;
    const Status st = e.claim.empty() ? Fail("needs a \"claim\"")
                                      : Judge(e, x, v.holds);
    if (!st.ok()) {
      return Err(Indexed("expect", i) + " (\"" + e.claim + "\"): " +
                 st.message());
    }
  }
  return verdicts;
}

Status ReadSelector(const JsonValue& v, const std::string& ctx,
                    CellSelector& out) {
  if (!v.is_object()) return TypeErr(ctx, "an object of axis: level(s)");
  out.clear();
  for (const auto& [axis, levels] : v.members()) {
    const std::string key = ctx + "." + axis;
    auto& names = out.emplace_back(axis, std::vector<std::string>{}).second;
    for (const JsonValue& level : levels.is_array()
                                      ? levels.items()
                                      : std::vector<JsonValue>{levels}) {
      if (!level.is_string()) {
        return TypeErr(key, "a level name or an array of level names");
      }
      names.push_back(level.string_value());
    }
  }
  return Status::Ok();
}

std::string SelectorJson(const CellSelector& sel) {
  JsonObjectWriter out;
  for (const auto& [axis, levels] : sel) {
    out.AddRaw(axis, levels.size() == 1 ? Json(levels.front()) : Json(levels));
  }
  return out.str();
}

template <CellSelector E::*Member>
Knob<E> SelectorRow(const char* key, const Gate<E>* gate) {
  return {key, gate, nullptr,
          [](const JsonValue& v, const std::string& ctx, E& e) {
            return ReadSelector(v, ctx, e.*Member);
          },
          [](const E& e) { return SelectorJson(e.*Member); }};
}

bool KindIs(const E& e, std::initializer_list<std::string_view> kinds) {
  return std::find(kinds.begin(), kinds.end(), e.kind) != kinds.end();
}

// Each kind's keys are gated on "kind", so a key of another kind is an
// error that names the kinds it belongs to.
const Gate<E> kRatio{[](const E& e) { return KindIs(e, {"ratio"}); },
                     "a \"ratio\" key", ": \"ratio\"", "kind"};
const Gate<E> kBest{[](const E& e) { return KindIs(e, {"best"}); },
                    "a \"best\" key", ": \"best\"", "kind"};
const Gate<E> kMonotone{[](const E& e) { return KindIs(e, {"monotone"}); },
                        "a \"monotone\" key", ": \"monotone\"", "kind"};
const Gate<E> kAxis{
    [](const E& e) { return KindIs(e, {"best", "monotone"}); },
    "a \"best\"/\"monotone\" key", ": \"best\" or \"monotone\"", "kind"};
const Gate<E> kCell{
    [](const E& e) { return KindIs(e, {"best", "monotone", "nonzero"}); },
    "a \"best\"/\"monotone\"/\"nonzero\" key",
    ": \"best\", \"monotone\" or \"nonzero\"", "kind"};
const Gate<E> kGroups{
    [](const E& e) { return KindIs(e, {"ratio", "best", "monotone"}); },
    "a \"ratio\"/\"best\"/\"monotone\" key",
    ": \"ratio\", \"best\" or \"monotone\"", "kind"};
const Gate<E> kField{
    [](const E& e) { return !KindIs(e, {"all"}); }, "a key of the tested kinds",
    ": \"ratio\", \"best\", \"monotone\" or \"nonzero\"", "kind"};
const Gate<E> kAll{[](const E& e) { return KindIs(e, {"all"}); },
                   "an \"all\" key", ": \"all\"", "kind"};

const Table<E> kExpectRows = {
    Row<E, &E::claim>("claim"),
    // Hand-written: the kind, which decides the legal rows.
    {"kind", nullptr, nullptr,
     [](const JsonValue& v, const std::string& ctx, E& e) -> Status {
       e.kind = v.is_string() ? v.string_value() : "";
       if (std::none_of(std::begin(kExpectKinds), std::end(kExpectKinds),
                        [&](const ExpectKind& k) { return e.kind == k.name; })) {
         return Unknown(ctx, "expect kind", e.kind, KnownKinds());
       }
       return Status::Ok();
     },
     [](const E& e) { return Json(e.kind); }},
    Row<E, &E::field>("field", &kField),
    SelectorRow<&E::num>("num", &kRatio),
    SelectorRow<&E::den>("den", &kRatio),
    Row<E, &E::min>("min", &kRatio),
    Row<E, &E::max>("max", &kRatio),
    Row<E, &E::axis>("axis", &kAxis),
    SelectorRow<&E::cell>("cell", &kCell),
    Row<E, &E::levels>("levels", &kAxis),
    Row<E, &E::among>("among", &kBest),
    Row<E, &E::factor>("factor", &kAxis),
    SelectorRow<&E::relative_to>("relative_to", &kMonotone),
    Row<E, &E::at_least>("at_least", &kGroups),
    Row<E, &E::of>("of", &kAll),
};

const Table<E>& RowsOf(const E&) { return kExpectRows; }

StatusOr<size_t> BufferLevel(const M& cfg, const JsonValue& v,
                             const std::string& ctx) {
  const std::string level = v.is_string() ? v.string_value() : "";
  if (level == "small") return cfg.BufferSmall();
  if (level == "medium") return cfg.BufferMedium();
  if (level == "large") return cfg.BufferLarge();
  return Unknown(ctx, "buffer level", level, "small, medium, large");
}

/// The sweep row of the spec's `Levels`, each setting the base's `Target`.
/// A level starts from the base value, so an entry object only overrides
/// what it names. `Shorthand` names a whole axis, `Named` one level.
template <auto Levels, auto Target, auto Shorthand = nullptr,
          auto Named = nullptr>
Knob<S> Axis(const char* key, int nest, const char* label = nullptr) {
  using T = typename std::remove_reference_t<decltype(S{}.*Levels)>::value_type;
  return {
      key, nullptr, nullptr,
      [](const JsonValue& v, const std::string& ctx, S& s) -> Status {
        if constexpr (!std::is_null_pointer_v<decltype(Shorthand)>) {
          if (v.is_string()) return Shorthand(v.string_value(), ctx, s);
        }
        if (!v.is_array()) return TypeErr(ctx, "an array");
        for (size_t i = 0; i < v.items().size(); ++i) {
          const JsonValue& item = v.items()[i];
          if constexpr (!std::is_null_pointer_v<decltype(Named)>) {
            if (item.is_string()) {
              const auto named = Named(s.base, item, Indexed(ctx, i));
              OODB_RETURN_IF_ERROR(named.status());
              (s.*Levels).push_back(*named);
              continue;
            }
          }
          T level = BaseLevel(s.base, Target);
          OODB_RETURN_IF_ERROR(Read(item, Indexed(ctx, i), level));
          (s.*Levels).push_back(std::move(level));
        }
        return Status::Ok();
      },
      [](const S& s) { return Json(s.*Levels); }, nest, label,
      [](const S& s) { return (s.*Levels).size(); },
      [](const S& s, size_t i, M& cell) -> std::string {
        const auto& levels = s.*Levels;
        const T level = levels.empty() ? BaseLevel(s.base, Target) : levels[i];
        SetLevel(cell, Target, level);
        if constexpr (std::is_integral_v<T>) {
          return std::to_string(level);
        } else if constexpr (std::is_enum_v<T>) {
          return CanonicalName(level);
        } else {
          return level.Label();  // a clustering level or a workload
        }
      }};
}

Status Figure51(const std::string& name, const std::string& ctx, S& s) {
  if (name != "figure5_1") return Unknown(ctx, "shorthand", name, "figure5_1");
  s.clustering = ClusteringPolicyLevels(s.base.clustering.split);
  return Status::Ok();
}

Status StandardGrid(const std::string& name, const std::string& ctx, S& s) {
  if (name != "standard_grid") {
    return Unknown(ctx, "shorthand", name, "standard_grid");
  }
  for (const Oct& w : StandardWorkloadGrid()) {
    s.workloads.push_back({w, s.base.ocb});
  }
  return Status::Ok();
}

// `nest` is the Expand order, outermost first.
const Table<S> kSweepRows = {
    Axis<&S::clustering, &M::clustering, Figure51>("clustering", 6, ""),
    Axis<&S::workloads, nullptr, StandardGrid>("workload", 7),
    Axis<&S::replacement, &M::replacement>("replacement", 3, ""),
    Axis<&S::prefetch, &M::prefetch>("prefetch", 4, ""),
    Axis<&S::buffer_pages, &M::buffer_pages, nullptr, BufferLevel>(
        "buffer_pages", 5, "buf"),
    Axis<&S::shards, &M::shards>("shards", 1, "shard"),
    Axis<&S::shard_placement, &M::shard_placement>("shard_placement", 2, ""),
    Axis<&S::users, &M::num_users>("users", 0, "users"),
};

}  // namespace

std::vector<ScenarioKnob> ScenarioKnobs() {
  std::vector<ScenarioKnob> knobs;
  const auto add = [&knobs](std::string_view section, const auto& rows) {
    for (const auto& row : rows) knobs.push_back({section, row.key});
  };
  add("config", kConfigRows);
  add("config.concurrency", kCcRows);
  add("config.workload", kWorkloadRows);
  add("config.clustering", kClusterRows);
  return knobs;
}

std::string WorkloadEntry::Label() const {
  return ocb.enabled ? ocb.Label(oct.read_write_ratio) : oct.Label();
}

std::vector<ScenarioCell> ScenarioSpec::Expand() const {
  std::vector<const Knob<S>*> axes(kSweepRows.size());
  for (const Knob<S>& axis : kSweepRows) axes[axis.nest] = &axis;
  // Outermost axis first; each multi-level axis joins the policy label.
  std::vector<ScenarioCell> cells{{base, "", "", "", {}}};
  for (const Knob<S>* axis : axes) {
    const size_t levels = std::max<size_t>(1, axis->size(*this));
    std::vector<ScenarioCell> next;
    for (const ScenarioCell& cell : cells) {
      for (size_t i = 0; i < levels; ++i) {
        ScenarioCell& out = next.emplace_back(cell);
        const std::string text = axis->apply(*this, i, out.config);
        out.levels.insert_or_assign(axis->key, text);
        if (axis->label == nullptr || levels == 1) continue;
        if (!out.policy.empty()) out.policy += "_";
        out.policy += text;
        out.policy += axis->label;
      }
    }
    cells = std::move(next);
  }
  for (ScenarioCell& cell : cells) {
    if (cell.policy.empty()) cell.policy = cell.config.clustering.Label();
    cell.workload = cell.config.WorkloadLabel();
    cell.cell_label = cell.policy + "/" + cell.workload;
  }
  return cells;
}

std::string ScenarioSpec::ToJson() const {
  JsonObjectWriter root;
  root.Add("name", name);
  root.Add("bench", bench.empty() ? name : bench);
  if (!description.empty()) root.Add("description", description);
  root.AddRaw("config", WriteBlock(kConfigRows, *this));
  if (!fast.empty()) root.AddRaw("fast", fast);
  const std::string sweep = WriteBlock(kSweepRows, *this);
  if (sweep != "{}") root.AddRaw("sweep", sweep);
  if (!expect.empty()) root.AddRaw("expect", Json(expect));
  return root.str();
}

Status ScenarioSpec::Validate() const {
  const std::vector<ScenarioCell> cells = Expand();
  for (const ScenarioCell& cell : cells) {
    const Status st = cell.config.Validate();
    if (!st.ok()) return Err("cell " + cell.cell_label + ": " + st.message());
  }
  // Selectors name cells by level, and a level is a label that can drop a
  // knob (a clustering level's split, an OCB workload's theta), so claims
  // need every cell to differ from every other on some axis.
  std::map<std::map<std::string, std::string>, size_t> seen;
  for (size_t c = 0; c < cells.size() && !expect.empty(); ++c) {
    const auto [it, fresh] = seen.emplace(cells[c].levels, c);
    if (fresh) continue;
    std::string levels;
    for (const auto& [axis, level] : cells[c].levels) {
      levels += (levels.empty() ? "" : ", ") + axis + " " + level;
    }
    return Err("expect: cells " + std::to_string(it->second) + " (" +
               cells[it->second].cell_label + ") and " + std::to_string(c) +
               " (" + cells[c].cell_label + ") have the same levels (" +
               levels + "), so no selector can tell them apart");
  }
  return JudgeAll(expect, cells, nullptr).status();
}

StatusOr<std::vector<ShapeVerdict>> ScenarioSpec::Evaluate(
    const std::vector<std::map<std::string, JsonValue>>& records) const {
  const std::vector<ScenarioCell> cells = Expand();
  if (records.size() != cells.size()) {
    return Err(std::to_string(records.size()) + " records for " +
               std::to_string(cells.size()) + " cells");
  }
  return JudgeAll(expect, cells, &records);
}

namespace {

/// Reads a "config" block, or the "fast" overlay on top of one, into
/// `spec.base`. Its gates wait for the sweep: the shard group counts that
/// axis.
Status ReadConfig(const JsonValue& obj, const std::string& ctx, S& spec) {
  OODB_RETURN_IF_ERROR(ReadBlock(obj, ctx, kConfigRows, spec, kBufferLevel,
                                 /*gates=*/false));
  spec.base.database.target_bytes = spec.base.database_bytes;
  spec.base.database.density = spec.base.workload.density;
  if (const JsonValue* level = obj.Find(kBufferLevel)) {
    if (obj.Find("buffer_pages") != nullptr) {
      return Err(ctx + ": set either \"buffer_pages\" or \"" +
                 std::string(kBufferLevel) + "\", not both");
    }
    const auto pages =
        BufferLevel(spec.base, *level, ctx + "." + kBufferLevel);
    OODB_RETURN_IF_ERROR(pages.status());
    spec.base.buffer_pages = *pages;
  }
  return Status::Ok();
}

}  // namespace

StatusOr<ScenarioSpec> ParseScenario(std::string_view json_text, bool fast) {
  auto doc = JsonValue::Parse(json_text);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) return Err("top-level value must be an object");

  ScenarioSpec spec;
  spec.base = ScaledConfig();
  // "config", then "fast", first regardless of file order: sweep levels
  // derive from the base.
  const JsonValue* config = doc->Find("config");
  if (config != nullptr) {
    OODB_RETURN_IF_ERROR(ReadConfig(*config, "config", spec));
  }
  // The overlay is read (and checked) in every mode; fast mode keeps it.
  const JsonValue* overlay = doc->Find("fast");
  ScenarioSpec fast_spec = spec;
  if (overlay != nullptr) {
    OODB_RETURN_IF_ERROR(ReadConfig(*overlay, "fast", fast_spec));
    // Written back as the keys it sets; a buffer level as its page count.
    spec.fast = WriteBlock(kConfigRows, fast_spec, [&](std::string_view key) {
      return overlay->Find(key) != nullptr ||
             (key == "buffer_pages" && overlay->Find(kBufferLevel) != nullptr);
    });
    if (fast) spec.base = fast_spec.base;
  }
  for (const auto& [key, v] : doc->members()) {
    if (key == "config" || key == "fast") continue;
    if (key == "name" || key == "bench" || key == "description") {
      if (!v.is_string()) return TypeErr(key, "a string");
      (key == "name" ? spec.name
                     : key == "bench" ? spec.bench : spec.description) =
          v.string_value();
    } else if (key == "sweep") {
      OODB_RETURN_IF_ERROR(ReadBlock(v, "sweep", kSweepRows, spec));
    } else if (key == "expect") {
      OODB_RETURN_IF_ERROR(Read(v, "expect", spec.expect));
    } else {
      return Err("unknown top-level key \"" + key +
                 "\" (known: name, bench, description, config, fast, "
                 "sweep, expect)");
    }
  }
  if (config != nullptr) {
    OODB_RETURN_IF_ERROR(CheckGates(*config, "config", kConfigRows, spec));
  }
  if (overlay != nullptr) {
    fast_spec.shards = spec.shards;  // the sweep opens the shard gate too
    OODB_RETURN_IF_ERROR(
        CheckGates(*overlay, "fast", kConfigRows, fast_spec));
  }
  if (spec.name.empty()) return Err("\"name\" is required");
  if (spec.bench.empty()) spec.bench = spec.name;

  // A placement axis with every cell at shards = 1 would sweep a knob
  // that cannot matter — reject it like any other inert-knob typo.
  if (!spec.shard_placement.empty() && spec.shards.empty() &&
      spec.base.shards == 1) {
    return Err(
        "sweep.shard_placement: every cell has shards = 1, where placement "
        "has no effect; add a \"shards\" sweep axis or \"shards\" to "
        "config");
  }
  OODB_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

StatusOr<ScenarioSpec> LoadScenarioFile(const std::string& path, bool fast) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("scenario: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto spec = ParseScenario(buf.str(), fast);
  if (!spec.ok()) {
    return Status::InvalidArgument(path + ": " + spec.status().message());
  }
  return spec;
}

}  // namespace oodb::core
