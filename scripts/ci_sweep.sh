#!/usr/bin/env bash
# Re-runs the sweep-labelled test suites (tests/CMakeLists.txt) once per
# dispatch setting of an already-built tree:
#   scripts/ci_sweep.sh simd [build_dir]     simd_sweep at CATMARK_SIMD =
#                                            avx512, avx2, off
#   scripts/ci_sweep.sh threads [build_dir]  thread_sweep at CATMARK_THREADS =
#                                            1, 2, 8
#   scripts/ci_sweep.sh prf [build_dir]      prf_sweep at CATMARK_PRF =
#                                            siphash24
# A SIMD request above the hardware clamps to it (an AVX2-only host runs
# the avx512 leg as avx2), so each SIMD leg first prints the hardware and
# active levels. Outputs must be bit-identical at every setting; the
# suites assert that. Exits non-zero on the first failing leg.
set -euo pipefail

mode=${1:-}
build_dir=${2:-build}

case "$mode" in
  simd)
    for level in avx512 avx2 off; do
      echo "== CATMARK_SIMD=$level =="
      CATMARK_SIMD=$level "$build_dir/tests/simd_prf_test" \
        --gtest_filter=SimdDispatchTest.EnvironmentRequestClampsToHardware
      (cd "$build_dir" && CATMARK_SIMD=$level ctest -L simd_sweep --output-on-failure)
    done
    ;;
  threads)
    for threads in 1 2 8; do
      echo "== CATMARK_THREADS=$threads =="
      (cd "$build_dir" && CATMARK_THREADS=$threads ctest -L thread_sweep --output-on-failure)
    done
    ;;
  prf)
    echo "== CATMARK_PRF=siphash24 =="
    (cd "$build_dir" && CATMARK_PRF=siphash24 ctest -L prf_sweep --output-on-failure)
    ;;
  *)
    echo "usage: $0 simd|threads|prf [build_dir]" >&2
    exit 2
    ;;
esac
