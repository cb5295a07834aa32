// Field-by-field comparison of two semclust bench JSONL files
// (SEMCLUST_BENCH_JSON output) with per-metric relative tolerances — the
// CI regression gate that keeps metric and perf drift from accumulating
// silently.
//
// Usage:
//   bench_diff [options] <a.jsonl> <b.jsonl>
//   bench_diff --baseline <baseline.jsonl> [options] <current.jsonl>
//
// Options:
//   --rtol <x>       default relative tolerance for numeric fields
//                    (default 0: exact, the jobs=1 vs jobs=4 gate)
//   --tol <k=x>      tolerance override for fields whose flattened path
//                    matches k (suffix '*' = prefix match; x may be
//                    "ignore"). Most-specific (longest) pattern wins.
//   --max-report <n> mismatch lines printed before eliding (default 20)
//   --allow-new-keys fields present only in the second (candidate) file
//                    are reported as notes instead of failing — the gate
//                    for comparing a pre-telemetry baseline against a
//                    build that emits new keys
//
// Records are JSON objects, one per line, matched across files by
// (bench, cell_label, occurrence). Every record is flattened to
// path -> scalar by oodb::FlattenJson (objects by ".", arrays by "[i]";
// numbers keep their source text), and paths are
// compared pairwise. In --baseline mode, fields present only in the
// current file are allowed (new telemetry never breaks the gate);
// fields present only in the baseline fail. Outside --baseline mode any
// asymmetry fails unless --allow-new-keys downgrades candidate-only
// fields to notes. Wall-clock fields (*wall_s*) are always ignored.
//
// Exit status: 0 = within tolerance, 1 = differences, 2 = usage/IO/parse
// error.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/json_reader.h"

namespace {

using oodb::JsonValue;

/// A scalar's text: a number's source text (so exact comparison is byte
/// exact), a decoded string, or the literal.
std::string Text(const JsonValue& v) {
  if (v.is_number()) return v.number_text();
  if (v.is_string()) return v.string_value();
  if (v.is_bool()) return v.bool_value() ? "true" : "false";
  return "null";
}

// ---------------------------------------------------------------------------
// Tolerance rules
// ---------------------------------------------------------------------------

constexpr double kIgnore = -1;  // sentinel: skip the field entirely

struct ToleranceRule {
  std::string pattern;  // trailing '*' = prefix match
  double rtol = 0;      // kIgnore skips
};

struct Tolerances {
  double default_rtol = 0;
  std::vector<ToleranceRule> rules;

  /// Most-specific (longest-pattern) matching rule, or default_rtol.
  double For(const std::string& path) const {
    size_t best_len = 0;
    double best = default_rtol;
    bool matched = false;
    for (const ToleranceRule& r : rules) {
      bool hit;
      if (!r.pattern.empty() && r.pattern.back() == '*') {
        hit = path.compare(0, r.pattern.size() - 1, r.pattern, 0,
                           r.pattern.size() - 1) == 0;
      } else {
        hit = path == r.pattern;
      }
      if (hit && (!matched || r.pattern.size() >= best_len)) {
        matched = true;
        best_len = r.pattern.size();
        best = r.rtol;
      }
    }
    return best;
  }
};

bool NumbersMatch(double a, double b, double rtol) {
  if (a == b) return true;  // covers both zero and identical values
  if (std::isnan(a) && std::isnan(b)) return true;
  const double mag = std::fmax(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= rtol * mag;
}

// ---------------------------------------------------------------------------
// Record loading
// ---------------------------------------------------------------------------

struct Record {
  std::string key;  // bench/cell_label#occurrence
  std::map<std::string, JsonValue> fields;
};

bool LoadRecords(const char* path, std::vector<Record>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path);
    return false;
  }
  std::map<std::string, int> occurrences;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto doc = JsonValue::Parse(line);
    if (!doc.ok()) {
      std::fprintf(stderr, "bench_diff: %s:%zu: %s\n", path, lineno,
                   doc.status().message().c_str());
      return false;
    }
    Record r;
    r.fields = oodb::FlattenJson(*doc);
    const auto bench = r.fields.find("bench");
    const auto cell = r.fields.find("cell_label");
    std::string id =
        (bench != r.fields.end() ? Text(bench->second) : "?") + "/" +
        (cell != r.fields.end() ? Text(cell->second) : "?");
    const int n = occurrences[id]++;
    if (n > 0) {
      // Append in two steps: `"#" + std::to_string(n)` trips GCC 12's
      // -Werror=restrict false positive (PR105651) at -O3.
      id += "#";
      id += std::to_string(n);
    }
    r.key = std::move(id);
    out.push_back(std::move(r));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

struct Reporter {
  uint64_t mismatches = 0;
  uint64_t new_keys = 0;  // candidate-only fields noted under --allow-new-keys
  uint64_t reported = 0;
  uint64_t limit = 20;

  void Report(const std::string& cell, const std::string& path,
              const std::string& a, const std::string& b) {
    ++mismatches;
    Print(cell, path, a, b);
  }

  /// A candidate-only field under --allow-new-keys: visible in the output
  /// but not counted against the exit status.
  void Note(const std::string& cell, const std::string& path,
            const std::string& b) {
    ++new_keys;
    Print(cell, path, "<missing> (new key, allowed)", b);
  }

  void Print(const std::string& cell, const std::string& path,
             const std::string& a, const std::string& b) {
    if (reported < limit) {
      std::fprintf(stderr, "  %s: %s: %s != %s\n", cell.c_str(),
                   path.c_str(), a.c_str(), b.c_str());
      ++reported;
    } else if (reported == limit) {
      std::fprintf(stderr, "  ... further mismatches elided\n");
      ++reported;
    }
  }
};

void CompareRecords(const Record& a, const Record& b, const Tolerances& tol,
                    bool baseline_mode, bool allow_new_keys,
                    Reporter& report) {
  for (const auto& [path, va] : a.fields) {
    const double rtol = tol.For(path);
    if (rtol == kIgnore) continue;
    const auto it = b.fields.find(path);
    if (it == b.fields.end()) {
      report.Report(a.key, path, Text(va), "<missing>");
      continue;
    }
    const JsonValue& vb = it->second;
    const bool match =
        va.kind() == vb.kind() &&
        (va.is_number()
             ? NumbersMatch(va.number_value(), vb.number_value(), rtol)
             : Text(va) == Text(vb));
    if (!match) report.Report(a.key, path, Text(va), Text(vb));
  }
  if (baseline_mode) return;  // extra fields in `b` are allowed there
  for (const auto& [path, vb] : b.fields) {
    if (tol.For(path) == kIgnore) continue;
    if (a.fields.find(path) == a.fields.end()) {
      if (allow_new_keys) {
        report.Note(b.key, path, Text(vb));
      } else {
        report.Report(b.key, path, "<missing>", Text(vb));
      }
    }
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] <a.jsonl> <b.jsonl>\n"
               "       %s --baseline <baseline.jsonl> [options] "
               "<current.jsonl>\n"
               "  --rtol <x>        default relative tolerance (default 0)\n"
               "  --tol <key=x>     per-field tolerance ('*' suffix = "
               "prefix; x may be 'ignore')\n"
               "  --max-report <n>  mismatch lines printed (default 20)\n"
               "  --allow-new-keys  fields only in the second file are "
               "notes, not failures\n",
               argv0, argv0);
  return 2;
}

// A tolerance value: parsed whole, finite and >= 0.
std::optional<double> ParseTolerance(const char* text) {
  const std::optional<double> v = oodb::ParseWhole<double>(text);
  if (!v || !std::isfinite(*v) || *v < 0) return std::nullopt;
  return v;
}

int BadValue(const char* flag, const char* want, const char* value) {
  std::fprintf(stderr, "bench_diff: %s must be %s, not '%s'\n", flag, want,
               value);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Tolerances tol;
  // Host wall-clock is the one field that legitimately differs run to run.
  tol.rules.push_back({"elapsed_wall_s", kIgnore});
  tol.rules.push_back({"wall_s", kIgnore});

  const char* baseline_path = nullptr;
  bool allow_new_keys = false;
  Reporter report;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--baseline") {
      if ((baseline_path = next()) == nullptr) return Usage(argv[0]);
    } else if (arg == "--rtol") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      const std::optional<double> rtol = ParseTolerance(v);
      if (!rtol) return BadValue("--rtol", "a finite number >= 0", v);
      tol.default_rtol = *rtol;
    } else if (arg == "--tol") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr) return Usage(argv[0]);
      ToleranceRule rule;
      rule.pattern.assign(v, eq);
      if (std::strcmp(eq + 1, "ignore") == 0) {
        rule.rtol = kIgnore;
      } else if (const std::optional<double> rtol = ParseTolerance(eq + 1)) {
        rule.rtol = *rtol;
      } else {
        return BadValue("--tol", "key=<finite number >= 0 or 'ignore'>", v);
      }
      tol.rules.push_back(std::move(rule));
    } else if (arg == "--max-report") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      const std::optional<uint64_t> limit = oodb::ParseWhole<uint64_t>(v);
      if (!limit) return BadValue("--max-report", "an unsigned integer", v);
      report.limit = *limit;
    } else if (arg == "--allow-new-keys") {
      allow_new_keys = true;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage(argv[0]);
    } else {
      files.push_back(argv[i]);
    }
  }

  const bool baseline_mode = baseline_path != nullptr;
  const char* a_path;
  const char* b_path;
  if (baseline_mode) {
    if (files.size() != 1) return Usage(argv[0]);
    a_path = baseline_path;  // baseline drives the field set
    b_path = files[0];
  } else {
    if (files.size() != 2) return Usage(argv[0]);
    a_path = files[0];
    b_path = files[1];
  }

  std::vector<Record> a, b;
  if (!LoadRecords(a_path, a) || !LoadRecords(b_path, b)) return 2;

  std::map<std::string, const Record*> b_by_key;
  for (const Record& r : b) b_by_key[r.key] = &r;
  std::map<std::string, const Record*> a_by_key;
  for (const Record& r : a) a_by_key[r.key] = &r;

  for (const Record& ra : a) {
    const auto it = b_by_key.find(ra.key);
    if (it == b_by_key.end()) {
      report.Report(ra.key, "<record>", "present", "<missing>");
      continue;
    }
    CompareRecords(ra, *it->second, tol, baseline_mode, allow_new_keys,
                   report);
  }
  for (const Record& rb : b) {
    if (a_by_key.find(rb.key) == a_by_key.end()) {
      // A brand-new cell is a grid change either way: the baseline no
      // longer describes the bench.
      report.Report(rb.key, "<record>", "<missing>", "present");
    }
  }

  if (report.mismatches > 0) {
    std::fprintf(stderr,
                 "bench_diff: %llu mismatching field(s) between %s and %s "
                 "(rtol=%g)\n",
                 static_cast<unsigned long long>(report.mismatches), a_path,
                 b_path, tol.default_rtol);
    return 1;
  }
  if (report.new_keys > 0) {
    std::printf("bench_diff: %zu record(s) match within tolerance "
                "(%llu new key(s) allowed)\n",
                a.size(), static_cast<unsigned long long>(report.new_keys));
  } else {
    std::printf("bench_diff: %zu record(s) match within tolerance\n",
                a.size());
  }
  return 0;
}
