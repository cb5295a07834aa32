#ifndef SEMCLUST_UTIL_JSON_WRITER_H_
#define SEMCLUST_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

/// \file
/// Minimal hand-rolled JSON emission — enough for the benchmark harness's
/// machine-readable records and the observability trace exporter without
/// any external dependency. Doubles are printed with %.17g, so
/// bit-identical values always render to identical text (the property the
/// determinism CI diff relies on). Non-finite doubles render as `null`
/// (JSON has no NaN/Inf).

namespace oodb {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Bytes >= 0x20 — including multi-byte UTF-8 sequences — pass
/// through unchanged.
std::string JsonEscape(std::string_view s);

/// Renders a double the way every writer here does: %.17g, or `null` when
/// non-finite.
std::string JsonNumber(double value);

/// Builds one JSON object, key by key, in insertion order. Nested
/// objects/arrays are spliced in with AddRaw.
class JsonObjectWriter {
 public:
  JsonObjectWriter& Add(std::string_view key, std::string_view value);
  JsonObjectWriter& Add(std::string_view key, const char* value);
  JsonObjectWriter& Add(std::string_view key, double value);
  JsonObjectWriter& Add(std::string_view key, uint64_t value);
  JsonObjectWriter& Add(std::string_view key, int64_t value);
  JsonObjectWriter& Add(std::string_view key, int value);
  JsonObjectWriter& Add(std::string_view key, bool value);
  /// nullopt renders as `null` (zero-sample derived ratios).
  JsonObjectWriter& Add(std::string_view key, std::optional<double> value);
  JsonObjectWriter& AddNull(std::string_view key);
  /// Splices `raw_json` in verbatim as the key's value. The caller is
  /// responsible for `raw_json` being well-formed JSON.
  JsonObjectWriter& AddRaw(std::string_view key, std::string_view raw_json);

  /// The complete object, e.g. `{"a":1,"b":"x"}`.
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void AppendKey(std::string_view key);

  std::string body_;
};

/// Builds one JSON array, element by element.
class JsonArrayWriter {
 public:
  JsonArrayWriter& Add(double value);
  JsonArrayWriter& Add(uint64_t value);
  /// Splices well-formed JSON in verbatim (nested objects/arrays).
  JsonArrayWriter& AddRaw(std::string_view raw_json);

  bool empty() const { return body_.empty(); }

  /// The complete array, e.g. `[1,2.5,{"x":1}]`.
  std::string str() const { return "[" + body_ + "]"; }

 private:
  void Separate();

  std::string body_;
};

}  // namespace oodb

#endif  // SEMCLUST_UTIL_JSON_WRITER_H_
