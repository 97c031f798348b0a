#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full ctest suite.
# Mirrors the command pinned in ROADMAP.md; CI and local runs share it.
# Environment knobs:
#   CMAKE_BUILD_TYPE  build type (CI runs Debug + Release + sanitizer
#                     legs); unset, CMakeLists.txt's RelWithDebInfo
#                     default applies.
#   SANITIZE          comma-separated sanitizer list passed through as
#                     -DADJ_SANITIZE (e.g. "address,undefined" or
#                     "thread" — TSan is incompatible with ASan, so it
#                     gets its own leg).
#   BUILD_TARGETS     space-separated cmake targets to build instead of
#                     everything (the TSan leg builds only the
#                     concurrency-heavy serve/dist/exec targets).
#   CTEST_FILTER      regex passed to ctest -R to run a subset.
#   BUILD_DIR, JOBS   build directory and parallelism.
# ccache is picked up automatically when installed (CI caches it).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${BUILD_DIR:-build}"
BUILD_TYPE="${CMAKE_BUILD_TYPE:-}"
SANITIZE="${SANITIZE:-}"
BUILD_TARGETS="${BUILD_TARGETS:-}"
CTEST_FILTER="${CTEST_FILTER:-}"

LAUNCHER=""
if command -v ccache > /dev/null 2>&1; then
  LAUNCHER=ccache
fi

# ADJ_SANITIZE is passed unconditionally (empty included) so a reused
# build dir cannot keep a stale cached sanitizer setting.
cmake -B "${BUILD_DIR}" -S . \
  ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="${BUILD_TYPE}"} \
  -DADJ_SANITIZE="${SANITIZE}" \
  ${LAUNCHER:+-DCMAKE_CXX_COMPILER_LAUNCHER="${LAUNCHER}"}
# shellcheck disable=SC2086  # BUILD_TARGETS is a deliberate word list
cmake --build "${BUILD_DIR}" -j "${JOBS}" \
  ${BUILD_TARGETS:+--target ${BUILD_TARGETS}}
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" \
  ${CTEST_FILTER:+-R "${CTEST_FILTER}"}
