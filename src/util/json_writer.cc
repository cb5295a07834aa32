#include "util/json_writer.h"

#include <cmath>
#include <cstdio>

namespace oodb {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObjectWriter::AppendKey(std::string_view key) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
}

JsonObjectWriter& JsonObjectWriter::Add(std::string_view key,
                                        std::string_view value) {
  AppendKey(key);
  body_ += '"';
  body_ += JsonEscape(value);
  body_ += '"';
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Add(std::string_view key,
                                        const char* value) {
  return Add(key, std::string_view(value));
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no inf/nan
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

JsonObjectWriter& JsonObjectWriter::Add(std::string_view key, double value) {
  AppendKey(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Add(std::string_view key,
                                        uint64_t value) {
  AppendKey(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Add(std::string_view key, int64_t value) {
  AppendKey(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Add(std::string_view key, int value) {
  return Add(key, static_cast<int64_t>(value));
}

JsonObjectWriter& JsonObjectWriter::Add(std::string_view key, bool value) {
  AppendKey(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Add(std::string_view key,
                                        std::optional<double> value) {
  return value.has_value() ? Add(key, *value) : AddNull(key);
}

JsonObjectWriter& JsonObjectWriter::AddNull(std::string_view key) {
  AppendKey(key);
  body_ += "null";
  return *this;
}

JsonObjectWriter& JsonObjectWriter::AddRaw(std::string_view key,
                                           std::string_view raw_json) {
  AppendKey(key);
  body_ += raw_json;
  return *this;
}

void JsonArrayWriter::Separate() {
  if (!body_.empty()) body_ += ',';
}

JsonArrayWriter& JsonArrayWriter::Add(double value) {
  Separate();
  body_ += JsonNumber(value);
  return *this;
}

JsonArrayWriter& JsonArrayWriter::Add(uint64_t value) {
  Separate();
  body_ += std::to_string(value);
  return *this;
}

JsonArrayWriter& JsonArrayWriter::AddRaw(std::string_view raw_json) {
  Separate();
  body_ += raw_json;
  return *this;
}

}  // namespace oodb
