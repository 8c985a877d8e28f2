#!/usr/bin/env bash
# Canonical local CI gate: configure + build + ctest in Debug and Release.
# Run from anywhere; builds land in <repo>/build-ci-{debug,release}.
#
# Usage: tools/ci.sh [--werror] [extra cmake args...]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake_args=()
if [[ "${1:-}" == "--werror" ]]; then
  cmake_args+=(-DPIMECC_WERROR=ON)
  shift
fi
cmake_args+=("$@")

# Sanitizer stage: UBSan+ASan Debug build running the unit-label tests, so
# the shift-width / tail-word / gather-bounds classes of bug the SIMD
# kernels are hardened against abort CI instead of regressing silently.
# Skipped (with a notice) when the toolchain has no ASan runtime.
sanitize_dir="$repo/build-ci-sanitize"
if echo 'int main(){}' | c++ -x c++ -fsanitize=address,undefined -o /dev/null - 2>/dev/null; then
  echo "==== [Sanitize] configure ===="
  cmake -B "$sanitize_dir" -S "$repo" -DCMAKE_BUILD_TYPE=Debug -DPIMECC_SANITIZE=ON \
    "${cmake_args[@]+"${cmake_args[@]}"}"
  echo "==== [Sanitize] build ===="
  cmake --build "$sanitize_dir" -j "$jobs"
  echo "==== [Sanitize] test (unit label) ===="
  ctest --test-dir "$sanitize_dir" -L unit --output-on-failure -j "$jobs"
else
  echo "==== toolchain lacks ASan/UBSan runtime; skipping sanitize stage ===="
fi

# ThreadSanitizer stage: races the work-stealing executor, the fleet bulk
# operations, and the trial pools (the concurrency-label tests).  TSan can't
# coexist with ASan in one binary, so this is its own build tree.  Skipped
# (with a notice) when the toolchain has no TSan runtime.
tsan_dir="$repo/build-ci-tsan"
if echo 'int main(){}' | c++ -x c++ -fsanitize=thread -o /dev/null - 2>/dev/null; then
  echo "==== [TSan] configure ===="
  cmake -B "$tsan_dir" -S "$repo" -DCMAKE_BUILD_TYPE=Debug -DPIMECC_TSAN=ON \
    "${cmake_args[@]+"${cmake_args[@]}"}"
  echo "==== [TSan] build ===="
  cmake --build "$tsan_dir" -j "$jobs"
  echo "==== [TSan] test (concurrency label) ===="
  ctest --test-dir "$tsan_dir" -L concurrency --output-on-failure -j "$jobs"
  # The serve deadline/cancel/shutdown paths and the fleet quarantine
  # accounting race threads by design; run them under TSan explicitly.
  echo "==== [TSan] test (robustness label) ===="
  ctest --test-dir "$tsan_dir" -L robustness --output-on-failure -j "$jobs"
else
  echo "==== toolchain lacks TSan runtime; skipping tsan stage ===="
fi

release_dir=""
for config in Debug Release; do
  # tr, not ${config,,}: macOS ships bash 3.2 which lacks case expansion.
  build_dir="$repo/build-ci-$(tr '[:upper:]' '[:lower:]' <<<"$config")"
  if [[ "$config" == "Release" ]]; then release_dir="$build_dir"; fi
  echo "==== [$config] configure ===="
  cmake -B "$build_dir" -S "$repo" -DCMAKE_BUILD_TYPE="$config" "${cmake_args[@]+"${cmake_args[@]}"}"
  echo "==== [$config] build ===="
  cmake --build "$build_dir" -j "$jobs"
  echo "==== [$config] test ===="
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
  # Fault-tolerance gate: the chaos-injection + crash-recovery suites
  # (torn-write checkpoint resume, serve admission/deadline/shutdown,
  # fleet quarantine accounting) must pass standalone in every config.
  echo "==== [$config] test (robustness label) ===="
  ctest --test-dir "$build_dir" -L robustness --output-on-failure -j "$jobs"
done

# Engine perf tracking: smoke-configuration run of the throughput harness,
# archived next to the Release build (the committed BENCH_engine.json at the
# repo root is a full-configuration run; don't clobber it from CI).  Guarded:
# extra cmake args may disable the bench build entirely.
bench_bin="$release_dir/bench/bench_engine_throughput"
if [[ -n "$release_dir" && -x "$bench_bin" ]]; then
  echo "==== [Release] bench_engine_throughput (smoke) ===="
  "$bench_bin" --smoke --out="$release_dir/BENCH_engine.json"
  echo "archived $release_dir/BENCH_engine.json"
else
  echo "==== bench_engine_throughput not built; skipping smoke bench ===="
fi

# Same for the ECC codec layer: the smoke configuration also runs the
# fast-vs-reference differential cross-check (non-zero exit on divergence).
codec_bin="$release_dir/bench/bench_codec_throughput"
if [[ -n "$release_dir" && -x "$codec_bin" ]]; then
  echo "==== [Release] bench_codec_throughput (smoke) ===="
  "$codec_bin" --smoke --out="$release_dir/BENCH_codec.json"
  echo "archived $release_dir/BENCH_codec.json"
else
  echo "==== bench_codec_throughput not built; skipping smoke bench ===="
fi

# And the arch layer: the smoke configuration runs the full fast-vs-reference
# machine cross-check (identical protected program + fault injection; contents,
# check state, cycle counters and reports must all agree) and gates on it.
arch_bin="$release_dir/bench/bench_arch_throughput"
if [[ -n "$release_dir" && -x "$arch_bin" ]]; then
  echo "==== [Release] bench_arch_throughput (smoke) ===="
  "$arch_bin" --smoke --out="$release_dir/BENCH_arch.json"
  echo "archived $release_dir/BENCH_arch.json"
else
  echo "==== bench_arch_throughput not built; skipping smoke bench ===="
fi

# And the reliability layer: the smoke configuration runs the sparse-vs-dense
# Monte Carlo counter-equality check and the lifetime distribution gates
# (zero-rate scrub accounting, matched failure counts, analytic agreement)
# and exits non-zero on any divergence.
rel_bin="$release_dir/bench/bench_reliability_throughput"
if [[ -n "$release_dir" && -x "$rel_bin" ]]; then
  echo "==== [Release] bench_reliability_throughput (smoke) ===="
  "$rel_bin" --smoke --out="$release_dir/BENCH_reliability.json"
  echo "archived $release_dir/BENCH_reliability.json"
else
  echo "==== bench_reliability_throughput not built; skipping smoke bench ===="
fi

# And the fleet layer: the smoke configuration runs the fleet-vs-flat
# Monte Carlo bit-identity gate at every tested shard/worker count plus the
# fleet-vs-single-crossbar scrub differential, and exits non-zero on any
# divergence.
fleet_bin="$release_dir/bench/bench_fleet_throughput"
if [[ -n "$release_dir" && -x "$fleet_bin" ]]; then
  echo "==== [Release] bench_fleet_throughput (smoke) ===="
  "$fleet_bin" --smoke --out="$release_dir/BENCH_fleet.json"
  echo "archived $release_dir/BENCH_fleet.json"
else
  echo "==== bench_fleet_throughput not built; skipping smoke bench ===="
fi

# And the serving layer: the smoke configuration runs the serve-determinism
# gate (identical responses at every batch size and lane count), the machine
# checkpoint continuation identity, and the serialized chunked-lifetime
# resume bit-identity, and exits non-zero on any divergence.
serving_bin="$release_dir/bench/bench_serving"
if [[ -n "$release_dir" && -x "$serving_bin" ]]; then
  echo "==== [Release] bench_serving (smoke) ===="
  "$serving_bin" --smoke --out="$release_dir/BENCH_serving.json"
  echo "archived $release_dir/BENCH_serving.json"
else
  echo "==== bench_serving not built; skipping smoke bench ===="
fi

# And the scenario-diversity layer: the smoke configuration runs the
# thread-determinism gate (bit-identical campaigns at 1 vs 4 lanes), the
# exact zero-rate scrub-accounting cross-check against the lifetime engine,
# the iid statistical pin, and the stuck-at accounting invariants, and exits
# non-zero on any divergence.
scenarios_bin="$release_dir/bench/bench_scenarios"
if [[ -n "$release_dir" && -x "$scenarios_bin" ]]; then
  echo "==== [Release] bench_scenarios (smoke) ===="
  "$scenarios_bin" --smoke --out="$release_dir/BENCH_scenarios.json"
  echo "archived $release_dir/BENCH_scenarios.json"
else
  echo "==== bench_scenarios not built; skipping smoke bench ===="
fi

# The scenario engine's results are pinned: a full bench_scenarios run
# (about 1 s) must reproduce the committed BENCH_scenarios.json byte for
# byte, so any drift in the fault, scrub-policy or RNG streams fails CI.
if [[ -n "$release_dir" && -x "$scenarios_bin" ]]; then
  echo "==== [Release] bench_scenarios (full, pinned to BENCH_scenarios.json) ===="
  "$scenarios_bin" --out="$release_dir/BENCH_scenarios.full.json"
  cmp "$release_dir/BENCH_scenarios.full.json" "$repo/BENCH_scenarios.json"
  echo "BENCH_scenarios.json reproduced byte for byte"
fi

echo "==== CI gate passed (Debug + Release) ===="
