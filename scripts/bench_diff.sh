#!/usr/bin/env bash
# Compares two end-to-end benchmark reports (scripts/bench_report.py):
#   scripts/bench_diff.sh <baseline.json> <current.json>
#
# Every `<workload>.<metric>` row of an end-to-end metric in BENCHMARK.json
# is compared against that metric's `bound` there (0.25 = 25%), in the
# direction its `better` names. A row past its bound, or a row of the
# baseline missing from this run's report, is a finding: a GitHub warning
# annotation, or with BENCH_DIFF_GATE=1 an ::error and exit 1, unless
# BENCH_DIFF_WAIVE is set non-empty (CI sets it when the commit message
# carries a BENCH_WAIVE token), which turns findings back into warnings.
#
# A workload whose result says `correct: false` or `failed > 0` fails the
# step whatever the gate and the waiver say, with or without a baseline.
#
# A missing or unreadable baseline, or one without this report format
# (an older kernel-row report), is no comparable baseline: the comparison
# is skipped. Reports from different hosts are compared with a warning.
set -euo pipefail

baseline=${1:?usage: bench_diff.sh <baseline.json> <current.json>}
current=${2:?usage: bench_diff.sh <baseline.json> <current.json>}
spec="$(dirname "$0")/../BENCHMARK.json"

if [ ! -f "$current" ]; then
  echo "bench_diff: current report $current missing" >&2
  exit 1
fi

python3 - "$baseline" "$current" "$spec" <<'EOF'
import json
import math
import os
import sys

FORMAT = "perfbench-e2e-v1"
HOST_KEYS = ("host_cpu_model", "host_nproc", "host_hardware_simd_level")

baseline_path, current_path, spec_path = sys.argv[1:4]
with open(spec_path) as f:
    spec = json.load(f)
with open(current_path) as f:
    current = json.load(f)
if current.get("format") != FORMAT:
    print(f"::error title=bench report::{current_path} is not a {FORMAT} "
          f"report")
    sys.exit(1)

gate = os.environ.get("BENCH_DIFF_GATE", "") not in ("", "0")
waived = os.environ.get("BENCH_DIFF_WAIVE", "") != ""
workloads = [w["name"] for w in spec["workloads"]]
metrics = {m["name"]: m for m in spec["end_to_end"]}

# A wrong or failed job is not a performance trade-off: no waiver covers it.
broken = 0
for w in workloads:
    correct, failed = current.get(f"{w}.correct"), current.get(f"{w}.failed")
    if correct is not True or failed != 0:
        broken += 1
        print(f"::error title=benchmark workload failed::{w}: correct="
              f"{correct}, failed={failed} of "
              f"{current.get(f'{w}.attempted')} jobs")

baseline = None
try:
    with open(baseline_path) as f:
        baseline = json.load(f)
except OSError:
    print(f"bench_diff: no baseline at {baseline_path} — skipping comparison")
except ValueError as error:
    print(f"bench_diff: unreadable baseline {baseline_path} ({error}) — "
          f"skipping comparison")
if baseline is not None and (not isinstance(baseline, dict) or
                             baseline.get("format") != FORMAT):
    print(f"bench_diff: baseline {baseline_path} is not a {FORMAT} report "
          f"— no comparable baseline, skipping comparison")
    baseline = None
if baseline is None:
    sys.exit(1 if broken else 0)

hosts = [tuple(report.get(k, "unknown") for k in HOST_KEYS)
         for report in (baseline, current)]
if hosts[0] != hosts[1]:
    print(f"::warning title=different bench hosts::baseline ran on "
          f"{hosts[0]}, this run on {hosts[1]} — deltas mix host and code")

findings = 0

def annotate(title, message):
    global findings
    if gate and not waived:
        findings += 1
        print(f"::error title={title}::{message}")
    else:
        print(f"::warning title={title}::{message}")

def is_row(key):
    return key.split(".", 1)[0] in workloads

rows = sorted(k for k in set(baseline) | set(current) if is_row(k))
print(f"{'row':<36}{'baseline':>14}{'current':>14}{'delta':>9}{'bound':>8}")
for key in rows:
    old, new = baseline.get(key), current.get(key)
    metric = metrics.get(key.split(".", 1)[1])
    if old is None or new is None:
        print(f"{key:<36}{'-' if old is None else old:>14}"
              f"{'-' if new is None else new:>14}")
        if new is None:
            annotate("bench row dropped",
                     f"{key} is in the baseline report but not in this "
                     f"run's")
        continue
    if metric is None:
        print(f"{key:<36}{old!s:>14}{new!s:>14}")
        continue
    if old == 0:
        delta = 0.0 if new == 0 else math.copysign(math.inf, new)
    else:
        delta = (new - old) / old
    bound = metric["bound"]
    print(f"{key:<36}{old:>14.4g}{new:>14.4g}{delta:>+8.1%}{bound:>8.0%}")
    worse = -delta if metric["better"] == "higher" else delta
    if worse > bound:
        annotate("end-to-end regression",
                 f"{key} is {worse:.1%} worse than the baseline ({old} -> "
                 f"{new} {metric['unit']}), past its {bound:.0%} bound")

if findings:
    print(f"bench_diff: {findings} finding(s) — failing the step (waive "
          f"with BENCH_WAIVE in the commit message)")
sys.exit(1 if findings or broken else 0)
EOF
