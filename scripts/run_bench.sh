#!/usr/bin/env bash
# Build Release and run the bench_json micro-benchmark harness (kernel,
# solver, sharded-array and driver-latency scenarios; end-to-end numbers come
# from perfbench/). The "metadata" object in the output records the
# CPU/compiler/flags the numbers belong to.
# Usage: scripts/run_bench.sh <output.json> [filter]
#   `filter` is an optional substring matched against scenario-family names;
#   only matching families run (e.g. `scripts/run_bench.sh /tmp/f.json
#   driver_latency_sweep`).
# Set QVG_THREADS=N to pin the thread-pool size (recorded per scenario).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: scripts/run_bench.sh <output.json> [filter]" >&2
  exit 1
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out="$1"
filter="${2:-}"
build_dir="$repo_root/build-release"

if ! cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release; then
  echo "error: cmake configure failed for $build_dir (is the toolchain" \
       "installed? delete the directory to reconfigure from scratch)" >&2
  exit 1
fi
if ! cmake --build "$build_dir" --target bench_json -j"$(nproc)"; then
  echo "error: building the bench_json target failed; see the compiler" \
       "output above" >&2
  exit 1
fi
bench_bin="$build_dir/bench_json"
if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin is missing or not executable after a successful" \
       "build; delete $build_dir and re-run to rebuild from scratch" >&2
  exit 1
fi

# Forward the filter in every path; bench_json itself rejects an unknown
# filter with the list of available families.
"$bench_bin" "$out" "$filter"
