#include "util/env.h"

#include <cmath>
#include <cstdio>

namespace oodb {

bool EnvFlag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

void ExitBadEnv(const char* name, const char* want, const char* value) {
  std::fprintf(stderr, "%s must be %s, not '%s'\n", name, want, value);
  std::exit(2);
}

std::optional<uint64_t> EnvSeed() {
  return EnvNumber<uint64_t>("SEMCLUST_BENCH_SEED",
                             "an unsigned 64-bit integer");
}

std::optional<double> EnvSeriesS() {
  return EnvNumber<double>(
      "SEMCLUST_BENCH_SERIES_S", "a finite number of seconds >= 0",
      [](double s) { return std::isfinite(s) && s >= 0; });
}

}  // namespace oodb
