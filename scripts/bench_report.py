#!/usr/bin/env python3
"""Runs the end-to-end benchmark and writes BENCH_throughput.json.

Run from anywhere inside a source checkout:

    python3 scripts/bench_report.py

It runs `perfbench/run.py --smoke` (every workload at small n, traced and
untraced, so trace_replay has to build and run too), then each workload in
BENCHMARK.json once with --seed 1 --trace 0 --seconds <run_seconds>, and
writes BENCH_throughput.json at the checkout's root. The report is flat:
one `<workload>.<metric>` row per end-to-end metric of BENCHMARK.json, plus
`<workload>.attempted`, `<workload>.failed` and `<workload>.correct`, and
`host_*` fields naming the machine. scripts/bench_diff.sh compares two
reports, each metric against its BENCHMARK.json bound.

perfbench/run.py reuses an existing build directory whatever source tree its
CMake cache names, so this script refuses to run when that cache belongs to
another checkout: remove the directory and run again.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMAT = "perfbench-e2e-v1"
SEED = 1
# Host fields that say what the numbers ran on; the rest of run.py's host
# record (revision, digest, environment) names the code, not the machine.
HOST_FIELDS = ("cpu_model", "nproc", "hardware_simd_level", "simd_level",
               "default_threads", "compiler", "build_type",
               "work_filesystem")


def fail(msg):
    sys.exit(f"bench_report: {msg}")


def check_build_dir():
    """Refuses a build directory configured from another source tree."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                       ".bench_build")
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return
    want = os.path.realpath(os.path.join(ROOT, "perfbench"))
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                home = line.split("=", 1)[1].strip()
                if os.path.realpath(home) != want:
                    fail(f"{cache} was configured from {home}, not {want}; "
                         f"remove {out} and run again")
                return


def run_bench(*args):
    """Runs perfbench/run.py; returns its standard output lines."""
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args]
    print("+ " + " ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(args)} printed nothing")
    return lines


def main():
    check_build_dir()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = [m["name"] for m in spec["end_to_end"]]

    if json.loads(run_bench("--smoke")[-1]).get("smoke") != "ok":
        fail("perfbench smoke failed")

    report = {"format": FORMAT, "seed": SEED, "run_seconds": seconds}
    for workload in (w["name"] for w in spec["workloads"]):
        lines = run_bench("--workload", workload, "--seed", str(SEED),
                          "--trace", "0", "--seconds", str(seconds))
        result = json.loads(lines[-1])
        record = next((json.loads(line[len("record "):]) for line in lines
                       if line.startswith("record ")), {})
        host = record.get("host", {})
        for k in HOST_FIELDS:
            report.setdefault(f"host_{k}", host.get(k))
        report.setdefault("git_revision", host.get("git_revision"))
        report[f"{workload}.correct"] = result["correct"]
        report[f"{workload}.attempted"] = result["attempted"]
        report[f"{workload}.failed"] = result["failed"]
        for name in metrics:
            report[f"{workload}.{name}"] = result["metrics"][name]["value"]

    path = os.path.join(ROOT, "BENCH_throughput.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
