#include "util/json_reader.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace oodb {

bool JsonValue::bool_value() const {
  OODB_CHECK(is_bool());
  return bool_;
}

double JsonValue::number_value() const {
  OODB_CHECK(is_number());
  return number_;
}

const std::string& JsonValue::string_value() const {
  OODB_CHECK(is_string());
  return scalar_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

struct JsonParser {
  std::string_view s;
  size_t at = 0;
  int depth = 0;  // containers currently open

  Status Fail(const std::string& why) const {
    return Status::InvalidArgument("json: " + why + " at offset " +
                                   std::to_string(at));
  }

  void SkipWs() {
    while (at < s.size() &&
           std::isspace(static_cast<unsigned char>(s[at]))) {
      ++at;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (at < s.size() && s[at] == c) {
      ++at;
      return true;
    }
    return false;
  }

  Status ParseString(std::string& out) {
    SkipWs();
    if (at >= s.size() || s[at] != '"') return Fail("expected string");
    ++at;
    while (at < s.size() && s[at] != '"') {
      char c = s[at++];
      if (c == '\\') {
        if (at >= s.size()) return Fail("unterminated escape");
        const char esc = s[at++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'u': {
            // Decode the BMP code point to UTF-8 (scenario files are
            // ASCII in practice; surrogate pairs are out of scope).
            if (at + 4 > s.size()) return Fail("truncated \\u escape");
            char hex[5] = {s[at], s[at + 1], s[at + 2], s[at + 3], 0};
            char* end = nullptr;
            const unsigned long cp = std::strtoul(hex, &end, 16);
            if (end != hex + 4) return Fail("bad \\u escape");
            at += 4;
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            continue;
          }
          default:
            return Fail(std::string("unknown escape '\\") + esc + "'");
        }
      }
      out += c;
    }
    if (at >= s.size()) return Fail("unterminated string");
    ++at;  // closing quote
    return Status::Ok();
  }

  Status ParseObject(JsonValue& out) {
    out.kind_ = JsonValue::Kind::kObject;
    if (Consume('}')) return Status::Ok();
    do {
      std::string key;
      OODB_RETURN_IF_ERROR(ParseString(key));
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      OODB_RETURN_IF_ERROR(ParseValue(value));
      out.members_.emplace_back(std::move(key), std::move(value));
    } while (Consume(','));
    if (!Consume('}')) return Fail("expected '}'");
    return Status::Ok();
  }

  Status ParseArray(JsonValue& out) {
    out.kind_ = JsonValue::Kind::kArray;
    if (Consume(']')) return Status::Ok();
    do {
      JsonValue value;
      OODB_RETURN_IF_ERROR(ParseValue(value));
      out.items_.push_back(std::move(value));
    } while (Consume(','));
    if (!Consume(']')) return Fail("expected ']'");
    return Status::Ok();
  }

  Status ParseValue(JsonValue& out) {
    SkipWs();
    if (at >= s.size()) return Fail("unexpected end of input");
    const char c = s[at];
    if (c == '{' || c == '[') {
      if (depth == JsonValue::kMaxDepth) {
        return Fail("nesting deeper than " +
                    std::to_string(JsonValue::kMaxDepth) + " levels");
      }
      ++at;
      ++depth;
      const Status status = c == '{' ? ParseObject(out) : ParseArray(out);
      --depth;
      return status;
    }
    if (c == '"') {
      out.kind_ = JsonValue::Kind::kString;
      return ParseString(out.scalar_);
    }
    if (s.size() - at >= 4 && s.compare(at, 4, "true") == 0) {
      at += 4;
      out.kind_ = JsonValue::Kind::kBool;
      out.bool_ = true;
      return Status::Ok();
    }
    if (s.size() - at >= 5 && s.compare(at, 5, "false") == 0) {
      at += 5;
      out.kind_ = JsonValue::Kind::kBool;
      out.bool_ = false;
      return Status::Ok();
    }
    if (s.size() - at >= 4 && s.compare(at, 4, "null") == 0) {
      at += 4;
      out.kind_ = JsonValue::Kind::kNull;
      return Status::Ok();
    }
    // Number.
    const size_t begin = at;
    while (at < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[at])) ||
            s[at] == '-' || s[at] == '+' || s[at] == '.' || s[at] == 'e' ||
            s[at] == 'E')) {
      ++at;
    }
    if (at == begin) return Fail("unexpected character");
    out.kind_ = JsonValue::Kind::kNumber;
    out.scalar_ = std::string(s.substr(begin, at - begin));
    char* end = nullptr;
    out.number_ = std::strtod(out.scalar_.c_str(), &end);
    if (end != out.scalar_.c_str() + out.scalar_.size()) {
      at = begin;
      return Fail("malformed number \"" + out.scalar_ + "\"");
    }
    return Status::Ok();
  }
};

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  JsonParser parser{text};
  JsonValue value;
  OODB_RETURN_IF_ERROR(parser.ParseValue(value));
  parser.SkipWs();
  if (parser.at != text.size()) {
    return parser.Fail("trailing garbage after document");
  }
  return value;
}

namespace {

void FlattenInto(const JsonValue& v, const std::string& path,
                 std::map<std::string, JsonValue>& out) {
  if (v.is_object()) {
    for (const auto& [key, member] : v.members()) {
      FlattenInto(member, path.empty() ? key : path + "." + key, out);
    }
  } else if (v.is_array()) {
    for (size_t i = 0; i < v.items().size(); ++i) {
      FlattenInto(v.items()[i], path + "[" + std::to_string(i) + "]", out);
    }
  } else {
    out.insert_or_assign(path, v);
  }
}

}  // namespace

std::map<std::string, JsonValue> FlattenJson(const JsonValue& doc) {
  std::map<std::string, JsonValue> out;
  FlattenInto(doc, "", out);
  return out;
}

}  // namespace oodb
