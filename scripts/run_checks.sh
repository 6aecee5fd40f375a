#!/usr/bin/env bash
# One-shot pre-merge gate: build, unit tests, static analysis, clang-tidy.
#
#   scripts/run_checks.sh [build-dir]
#
# Runs, in order:
#   1. configure + build (exports compile_commands.json)
#   2. the full ctest suite (unit, tsan-labelled, asan-labelled — in this
#      plain build they run without sanitizer runtimes; use
#      scripts/run_tsan.sh / run_asan.sh for the instrumented versions)
#   3. the kernels + tsan labels again with HIGNN_SIMD=off (the scalar
#      fallback must stay bit-identical to the vector paths)
#   4. the `lint` label: hignn_lint fixture tests + whole-tree scan
#   5. the `serve` label
#   6. the end-to-end smokes in scripts/smoke/: serving (client verbs and
#      the retrieval index), chaos (fault-injected and SIGHUP reloads),
#      telemetry (fit artifacts, --obs-off parity) and introspection
#      (Prometheus scrape, event log -> hignn_obs, --obs-off parity over
#      the wire); each script's header says what it checks
#   7. clang-tidy over src/ via compile_commands.json, when clang-tidy is
#      installed (skipped with a notice otherwise, so the gate stays green
#      in minimal containers)
#   8. a Clang -Wthread-safety -Werror build of the hignn library, when
#      clang++ is installed — the compiler-checked half of the concurrency
#      contract (HIGNN_GUARDED_BY / HIGNN_REQUIRES annotations); skipped
#      with a notice under GCC-only toolchains, where hignn_lint's
#      lock-discipline and guard-annotation rules still gate the basics
#
# Exits non-zero on the first failing stage.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure + build"
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== unit tests"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== scalar-path parity (HIGNN_SIMD=off kernels + threading)"
# The SIMD dispatch knob must leave every result bit-identical: rerun the
# kernel-parity and determinism suites with the vector paths disabled.
HIGNN_SIMD=off ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "$(nproc)" -L "kernels|tsan"

echo "== static analysis (hignn_lint)"
ctest --test-dir "$BUILD_DIR" -L lint --output-on-failure -j "$(nproc)"

echo "== serving tests"
ctest --test-dir "$BUILD_DIR" -L serve --output-on-failure

# End-to-end smokes, one copy each in scripts/smoke/ (CI runs the same
# scripts).
for smoke in serving chaos telemetry introspection; do
  "scripts/smoke/$smoke.sh" "$BUILD_DIR"
done

echo "== clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  mapfile -t TIDY_SOURCES < <(git ls-files 'src/*.cc' 'tools/*.cc')
  clang-tidy -p "$BUILD_DIR" --quiet "${TIDY_SOURCES[@]}"
else
  echo "clang-tidy not installed; skipping (configs in .clang-tidy)"
fi

echo "== clang -Wthread-safety (concurrency contract)"
if command -v clang++ >/dev/null 2>&1; then
  # Separate tree: the thread-safety analysis only exists in Clang, and
  # -Werror turns every unguarded access to a HIGNN_GUARDED_BY field into
  # a build break. Also runs the compile-fail smoke proving the
  # annotations are live (tests/tsa_compile_fail.cc must NOT compile).
  cmake -B "$BUILD_DIR-tsa" -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DHIGNN_WERROR=ON >/dev/null
  cmake --build "$BUILD_DIR-tsa" --target hignn -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR-tsa" -R 'lint.tsa_compile_fail' \
    --output-on-failure
else
  echo "clang++ not installed; skipping (hignn_lint still enforces" \
    "lock-discipline and guard-annotation)"
fi

echo "== all checks passed"
