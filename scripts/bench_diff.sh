#!/usr/bin/env bash
# Diffs the numeric rows of two BENCH_throughput.json reports:
#   scripts/bench_diff.sh <baseline.json> <current.json> [regression-pct]
#
# Compares every numeric key present in either report (the union, in a
# preferred pipeline order: embed, detect, PRF breakdown, load/e2e/save
# format rows, streaming grid — unknown keys trail alphabetically), so newly added
# rows such as load_catm_tps / e2e_format_gain are picked up without
# touching this script. Emits a GitHub warning annotation when a key
# regresses by more than `regression-pct` (default 25%), and another when a
# row present in the baseline is missing from the current report — a
# silently dropped bench row is a coverage regression, not noise.
#
# By default the diff is informational (shared CI runners are noisy) and
# never fails. With BENCH_DIFF_GATE=1 it becomes a soft gate: regressions
# beyond the CLI threshold and dropped rows are emitted as ::error
# annotations and the script exits 1 — unless BENCH_DIFF_WAIVE is set
# non-empty (CI sets it when the commit message carries a BENCH_WAIVE
# token), which downgrades the gate back to warnings. The tighter 10% bars
# on sweep_/embed_prf_/stream_prf_ rows stay warnings either way: the gate
# fires only past the CLI-level threshold.
#
# A missing or unparseable baseline (first run, expired or truncated
# artifact) is skipped silently — the gate only fires on real measurements.
set -euo pipefail

baseline=${1:?usage: bench_diff.sh <baseline.json> <current.json> [pct]}
current=${2:?usage: bench_diff.sh <baseline.json> <current.json> [pct]}
threshold=${3:-25}

if [ ! -f "$baseline" ]; then
  echo "bench_diff: no baseline at $baseline — skipping comparison"
  exit 0
fi
if [ ! -f "$current" ]; then
  echo "bench_diff: current report $current missing" >&2
  exit 1
fi

python3 - "$baseline" "$current" "$threshold" <<'EOF'
import json
import os
import sys

baseline_path, current_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
# A truncated or corrupt baseline artifact is "no baseline", not a failure:
# the gate must only ever fire on a real measured regression.
try:
    with open(baseline_path) as f:
        baseline = json.load(f)
except (OSError, ValueError) as error:
    print(f"bench_diff: unreadable baseline {baseline_path} ({error}) — "
          f"skipping comparison")
    sys.exit(0)
with open(current_path) as f:
    current = json.load(f)

gate = os.environ.get("BENCH_DIFF_GATE", "") not in ("", "0")
waived = os.environ.get("BENCH_DIFF_WAIVE", "") != ""

# Configuration fields — identity, not performance; excluded from the diff.
CONFIG_KEYS = {"bench", "n", "domain", "passes", "threads", "stream_n",
               "sweep_keys", "sweep_n", "host_cores"}

# Throughput only compares on one machine: say so when the reports name
# different hosts (or one names none), then diff anyway.
HOST_KEYS = ("host_cpu_model", "host_cores")
hosts = [tuple(report.get(k, "unknown") for k in HOST_KEYS)
         for report in (baseline, current)]
if hosts[0] != hosts[1]:
    print(f"::warning title=different bench hosts::baseline ran on "
          f"{hosts[0][0]} ({hosts[0][1]} cores), this run on "
          f"{hosts[1][0]} ({hosts[1][1]} cores) — deltas mix host and code")

def numeric_keys(report):
    return {k for k, v in report.items()
            if k not in CONFIG_KEYS and isinstance(v, (int, float))
            and not isinstance(v, bool)}

union = numeric_keys(baseline) | numeric_keys(current)

# Preferred ordering groups rows by pipeline stage; anything the prefixes
# don't cover (future rows) trails alphabetically rather than vanishing.
PREFIX_ORDER = ["embed_map_", "embed_prf_", "embed_", "detect_prf_",
                "detect_simd_", "detect_oneshot_", "detect_plan_", "detect_",
                "index_", "load_", "e2e_", "save_", "csv_", "catm_",
                "stream_prf_", "stream_", "sweep_"]

def sort_key(key):
    for rank, prefix in enumerate(PREFIX_ORDER):
        if key.startswith(prefix):
            return (rank, key)
    return (len(PREFIX_ORDER), key)

# Rows guarding a specific amortization story get a tighter 10% bar:
# sweep_ (detect-engine per-key cost), embed_prf_ (the fused embed
# pipeline) and stream_prf_ (steady-state streaming inserts). Everything
# else uses the CLI-level default.
TIGHT_PREFIXES = ("sweep_", "embed_prf_", "stream_prf_")

def row_threshold(key):
    return min(threshold, 10.0) if key.startswith(TIGHT_PREFIXES) else threshold

failures = 0

def annotate(title, message, gating):
    global failures
    # A gating finding becomes ::error (and a nonzero exit) only when the
    # gate is armed and not waived; otherwise it stays a warning.
    if gating and gate and not waived:
        failures += 1
        print(f"::error title={title}::{message}")
    else:
        print(f"::warning title={title}::{message}")

print(f"{'bench row':<40}{'baseline':>14}{'current':>14}{'delta':>10}")
for key in sorted(union, key=sort_key):
    old, new = baseline.get(key), current.get(key)
    if old is None or new is None:
        print(f"{key:<40}{'-' if old is None else old:>14}"
              f"{'-' if new is None else new:>14}{'n/a':>10}")
        if new is None:
            annotate("bench row dropped",
                     f"{key} present in the baseline report but missing from "
                     f"this run's — a bench row was removed or the bench is "
                     f"truncating output", gating=True)
        continue
    delta = 0.0 if old == 0 else (new - old) / old * 100.0
    print(f"{key:<40}{old:>14}{new:>14}{delta:>+9.1f}%")
    # "_ms" rows are durations (lower is better); everything else is a rate
    # or gain where a drop is the regression.
    regressed = (delta > row_threshold(key) if key.endswith("_ms")
                 else delta < -row_threshold(key))
    if regressed:
        direction = "rose" if key.endswith("_ms") else "fell"
        # Gate only past the CLI threshold — tightened 10% bars stay
        # advisory so shared-runner noise cannot fail the leg.
        past_gate = (delta > threshold if key.endswith("_ms")
                     else delta < -threshold)
        annotate("throughput regression",
                 f"{key} {direction} {abs(delta):.1f}% vs baseline "
                 f"({old} -> {new})", gating=past_gate)

if failures:
    if gate:
        print(f"bench_diff: {failures} gating regression(s) — failing the "
              f"bench leg (waive with BENCH_WAIVE in the commit message)")
    sys.exit(1)
EOF
