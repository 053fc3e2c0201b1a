#!/usr/bin/env bash
# Smoke-runs every bench binary with a tiny workload (1 pass, small N) so
# perf code keeps building *and running* on every commit. Usage:
#   scripts/bench_smoke.sh [build_dir]   (default: build)
set -euo pipefail

build_dir=${1:-build}
bench_dir="$build_dir/bench"

if ! ls "$bench_dir"/bench_* >/dev/null 2>&1; then
  echo "error: no bench binaries under $bench_dir (build the 'bench' target)" >&2
  exit 1
fi

status=0
for bin in "$bench_dir"/bench_*; do
  name=$(basename "$bin")
  case "$name" in
    bench_micro_throughput)
      # Google Benchmark flags; one tiny repetition per benchmark.
      args=(--benchmark_min_time=0.01)
      ;;
    *)
      args=(--n 400 --passes 1 --domain 50)
      ;;
  esac
  if timeout 300 "$bin" "${args[@]}" >/dev/null; then
    echo "ok:   $name"
  else
    echo "FAIL: $name (${args[*]})" >&2
    status=1
  fi
done
exit $status
