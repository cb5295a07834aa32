#ifndef SEMCLUST_UTIL_ENV_H_
#define SEMCLUST_UTIL_ENV_H_

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>

/// \file
/// Whole-text parsing for command-line flag values and the SEMCLUST_*
/// environment knobs: a value parses completely or is rejected, never read
/// as its longest valid prefix (`strtol("4x")` is 4; here it is an error).

namespace oodb {

/// Parses all of `text` as a T with std::from_chars: no leading '+' or
/// whitespace, no trailing characters, no sign on an unsigned type, no
/// overflow. A floating-point T also accepts "nan" and "inf"; range checks
/// are the caller's.
template <class T>
std::optional<T> ParseWhole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// True when the environment variable `name` is set, non-empty, and does
/// not start with '0' (SEMCLUST_BENCH_FAST=1, SEMCLUST_SPANS=1).
bool EnvFlag(const char* name);

/// Prints "<name> must be <want>, not '<value>'" and exits with status 2.
[[noreturn]] void ExitBadEnv(const char* name, const char* want,
                             const char* value);

/// The environment variable `name` parsed whole as a T for which
/// `valid(value)` holds, or nullopt when it is unset. A set value that
/// fails either test exits through ExitBadEnv, so a typo never runs a
/// default.
template <class T>
std::optional<T> EnvNumber(const char* name, const char* want,
                           bool (*valid)(T) = nullptr) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  const std::optional<T> value = ParseWhole<T>(text);
  if (!value || (valid != nullptr && !valid(*value))) {
    ExitBadEnv(name, want, text);
  }
  return value;
}

/// SEMCLUST_BENCH_SEED: the base seed, an unsigned 64-bit integer.
std::optional<uint64_t> EnvSeed();

/// SEMCLUST_BENCH_SERIES_S: the telemetry sampling interval in simulated
/// seconds, finite and >= 0.
std::optional<double> EnvSeriesS();

}  // namespace oodb

#endif  // SEMCLUST_UTIL_ENV_H_
