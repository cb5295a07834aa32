#!/usr/bin/env bash
# Lists the out-of-line src/ functions that no production executable links.
#
# Usage: scripts/unreferenced_functions.sh [scan build dir]
#   (default: build-scan/ at the repo root; reused, so a rerun is
#   incremental)
#
# Builds the whole project at -O0 with -ffunction-sections -fdata-sections
# and links every executable with --gc-sections, so an executable keeps
# only the functions it can reach. A function counts as linked by an
# executable when its symbol survives in that executable.
#
# Callers:
#   production  every executable of the main build outside tests/ (tools,
#               bench, examples), plus perfbench/driver.cc, compiled here
#               from its unmodified source: the host-time benchmark builds
#               and links the libraries on its own, so a function only it
#               uses must not be deleted.
#   test        every executable under tests/.
#
# An out-of-line src/ function is one that a src/ static library defines
# as a global text symbol (nm type T). Inline and template functions (weak
# symbols) and file-local helpers are not listed; the compiler already
# warns about an unused file-local function.
#
# Output, one line per function, sorted:
#   test-only    <function>   only test executables link it
#   unreferenced <function>   no executable links it
# then one summary line. Not a CI gate: rerun it when the roadmap is
# re-anchored, and give each listed function a caller or delete it.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SCAN="${1:-${ROOT}/build-scan}"
mkdir -p "${SCAN}/project"
SCAN="$(cd "${SCAN}" && pwd)"

# A wrapper project: the main build plus the benchmark driver, linked the
# way perfbench/CMakeLists.txt links it.
cat > "${SCAN}/project/CMakeLists.txt" <<EOF
cmake_minimum_required(VERSION 3.16)
project(semclust_scan LANGUAGES CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)
add_subdirectory("${ROOT}" main)
add_executable(perfbench_driver "${ROOT}/perfbench/driver.cc")
target_include_directories(perfbench_driver PRIVATE "${ROOT}/src")
target_link_libraries(perfbench_driver PRIVATE semclust_exec semclust_core)
EOF

cmake -S "${SCAN}/project" -B "${SCAN}/out" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG=-O0 -DSEMCLUST_WERROR=OFF \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > "${SCAN}/configure.log"
cmake --build "${SCAN}/out" -j "$(nproc)" > "${SCAN}/build.log"

# Global text symbols, mangled (exact across overloads), one per line.
text_symbols() {
  nm --defined-only "$@" 2>/dev/null | awk '$2 == "T" { print $3 }'
}

# shellcheck disable=SC2046  # one argument per library archive
text_symbols $(find "${SCAN}/out/main/src" -name '*.a') | sort -u \
  > "${SCAN}/library.sym"
: > "${SCAN}/production.sym"
: > "${SCAN}/test.sym"
while IFS= read -r exe; do
  case "${exe}" in
    */CMakeFiles/*) ;;
    "${SCAN}/out/main/tests/"*) text_symbols "${exe}" >> "${SCAN}/test.sym" ;;
    *) text_symbols "${exe}" >> "${SCAN}/production.sym" ;;
  esac
done < <(find "${SCAN}/out" -type f -executable)
sort -u -o "${SCAN}/production.sym" "${SCAN}/production.sym"
sort -u -o "${SCAN}/test.sym" "${SCAN}/test.sym"

# Tag every library symbol with its widest caller, then demangle. The
# complete- and base-object variants of a constructor or destructor are
# two symbols of one source function: report by demangled name, and count
# the function as linked when any of its symbols is.
{
  comm -12 "${SCAN}/library.sym" "${SCAN}/production.sym" | sed 's/^/0 /'
  comm -23 "${SCAN}/library.sym" "${SCAN}/production.sym" \
    | comm -12 - "${SCAN}/test.sym" | sed 's/^/1 /'
  comm -23 "${SCAN}/library.sym" "${SCAN}/production.sym" \
    | comm -23 - "${SCAN}/test.sym" | sed 's/^/2 /'
} | c++filt | awk '
  { rank = $1; sub(/^[0-9] /, "")
    if (!($0 in best) || rank < best[$0]) best[$0] = rank }
  END {
    for (f in best) {
      ++total; ++count[best[f]]
      if (best[f] == 1) print "test-only    " f
      if (best[f] == 2) print "unreferenced " f
    }
    printf "summary: %d out-of-line src/ functions: %d unreferenced, " \
           "%d test-only\n", total, count[2] + 0, count[1] + 0 \
           > "'"${SCAN}/summary.txt"'"
  }' | LC_ALL=C sort
cat "${SCAN}/summary.txt"
