#ifndef SEMCLUST_UTIL_JSON_READER_H_
#define SEMCLUST_UTIL_JSON_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

/// \file
/// Minimal hand-rolled JSON *reading* — the counterpart of
/// util/json_writer for the declarative scenario files, without any
/// external dependency. Parses one document into an ordered DOM
/// (object members keep source order, so serialize-parse round trips are
/// stable). Numbers keep their source text alongside the parsed double,
/// so 64-bit integers (seeds) survive a round trip exactly.

namespace oodb {

/// One parsed JSON value.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Arrays and objects nest at most this deep; deeper input is an error
  /// rather than a stack overflow.
  static constexpr int kMaxDepth = 64;

  /// Parses exactly one JSON document (trailing whitespace allowed,
  /// trailing garbage is an error). Errors carry a byte offset.
  static StatusOr<JsonValue> Parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const;
  double number_value() const;
  /// The number's source text, e.g. "12345678901234567"; empty for
  /// non-numbers. Integer fields parse this text (exact above 2^53).
  const std::string& number_text() const { return scalar_; }
  const std::string& string_value() const;

  const std::vector<JsonValue>& items() const { return items_; }
  /// Object members in source order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  /// First member named `key`, or nullptr.
  const JsonValue* Find(std::string_view key) const;

  JsonValue() = default;

 private:
  friend struct JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string scalar_;  // number source text or decoded string
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace oodb

#endif  // SEMCLUST_UTIL_JSON_READER_H_
