#!/usr/bin/env python3
"""End-to-end benchmark of the `catmark` command-line tool.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mark_catm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The script builds catmark_cli and trace_replay from source (perfbench/
CMakeLists.txt, into $CARGO_TARGET_DIR or .bench_build), generates the
workload's inputs from --seed through the CLI's own gen/embed/attack
commands, then runs the real binary as one closed-loop client: the next job
starts when the previous one has exited. Every job's exit code, verdict and
output are checked; a miss counts in `failed`, never silently.

--trace 0 reports the end-to-end metrics (no tracing). --trace 1 runs the CLI
for half the time and trace_replay for the other half, and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".perfbench_work")

KEYED_SCHEMA = "K:int:pk,A:str:cat"
SALES_SCHEMA = ("Visit_Nbr:int:pk,Item_Nbr:int:cat,Store_Nbr:int:cat,"
                "Dept_Desc:str:cat,Unit_Qty:int,Sale_Amount:double")
WM_BITS = 16
SWEEP_BITS = 32

# Input sizes. FULL is what the benchmark measures; SMOKE exercises every
# workload and the failure accounting in seconds.
FULL = dict(rows=2_000_000, domain=500, sales_items=8000, candidates=4000,
            stream_rows=500_000, batch=1024, setups=3)
SMOKE = dict(rows=100_000, domain=500, sales_items=8000, candidates=40,
             stream_rows=5_000, batch=1024, setups=1)

END_TO_END_UNITS = {
    "wall_ms_p50": "ms",
    "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB",
    "out_bytes_per_row": "B",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "relation.ms": "ms",
    "relation.load_ms": "ms",
    "relation.load_mb_per_s": "MB/s",
    "relation.release_ms": "ms",
    "core.ms": "ms",
    "core.cert_ms": "ms",
    "op.ms": "ms",
    "op.rows_per_s": "1/s",
    "crypto.messages_hashed": "count",
    "crypto.messages_per_row": "ratio",
    "process.unattributed_ms": "ms",
    "process.minor_faults": "count",
    "trace.wall_ms": "ms",
    "trace.coverage": "ratio",
}
# The span that does each subcommand's watermark work (`op.*`).
OP_SPANS = {"embed": "core.embed", "detect": "core.detect",
            "sweep": "service.sweep", "stream": "service.insert"}


class BenchError(Exception):
    """A build, set-up or harness failure: the run reports no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configures (once) and builds both binaries; returns their paths."""
    for need in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/catmark_cli.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"no catmark sources here: {need} is missing")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, out)
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    with open(os.path.join(out, "build.lock"), "w") as lock, \
            open(os.path.join(out, "build.log"), "w") as blog:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", out, "-j", jobs,
                  "--target", "catmark_cli", "trace_replay"]]
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", out,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=blog, stderr=subprocess.STDOUT,
                              env=env, cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed, see {blog.name}")
    return (os.path.join(out, "catmark", "tools", "catmark_cli"),
            os.path.join(out, "trace_replay"))


# -------------------------------------------------------------- processes

class Outcome:
    """One finished child: exit code, stdout, wall time and rusage."""

    def __init__(self, rc, stdout, wall_ms, rusage):
        self.rc = rc
        self.stdout = stdout
        self.wall_ms = wall_ms
        self.cpu_ms = (rusage.ru_utime + rusage.ru_stime) * 1e3
        self.rss_mb = rusage.ru_maxrss / 1024.0
        self.minflt = rusage.ru_minflt


def spawn(argv, workdir):
    """Runs argv to completion; times spawn to exit and reads its rusage."""
    out_path = os.path.join(workdir, "job.stdout")
    err_path = os.path.join(workdir, "job.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err, \
            open(os.devnull, "rb") as null:
        actions = [(os.POSIX_SPAWN_DUP2, null.fileno(), 0),
                   (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        try:
            _, status, rusage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall_ms = (time.perf_counter_ns() - start) / 1e6
    with open(out_path, "r", errors="replace") as f:
        stdout = f.read()
    return Outcome(os.waitstatus_to_exitcode(status), stdout, wall_ms, rusage)


def file_digest(path):
    h = hashlib.sha1()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def catm_rows(path):
    """num_rows from a .catm header (u64 little-endian at byte 24)."""
    with open(path, "rb") as f:
        head = f.read(32)
    if len(head) < 32 or head[1:5] != b"CATM":
        return -1
    return int.from_bytes(head[24:32], "little")


# ------------------------------------------------------------- workloads

class Job:
    """One catmark invocation and what its result must be."""

    def __init__(self, argv, rc, patterns, outputs=(), verify=None):
        self.argv = argv
        self.rc = rc
        self.patterns = patterns
        self.outputs = list(outputs)
        self.verify = verify  # extra check on the outputs: () -> error or None

    def check(self, outcome):
        """Returns None when the job's result is right, else what is wrong."""
        if outcome.rc != self.rc:
            return f"exit {outcome.rc}, want {self.rc}"
        for pattern in self.patterns:
            if not re.search(pattern, outcome.stdout, re.M):
                return f"output lacks /{pattern}/"
        return self.verify() if self.verify else None


class Plan:
    """A workload's generated inputs: the jobs to cycle through, the rows one
    job reads, an untimed end-of-run check, and the traced replay's check."""

    def __init__(self, jobs, rows_in, final=None, trace_check=None):
        self.jobs = jobs
        self.rows_in = rows_in
        self.final = final
        self.trace_check = trace_check


class Setup:
    """Runs the CLI's own commands to build a workload's inputs in `d`."""

    def __init__(self, cli, d, sizes, seed):
        self.cli = cli
        self.d = d
        self.sizes = sizes
        self.rng = random.Random(f"catmark-perfbench-{seed}")

    def path(self, name):
        return os.path.join(self.d, name)

    def seed(self):
        return str(self.rng.randrange(1, 1 << 31))

    def secret(self, who):
        return f"{who}-{self.rng.getrandbits(64):016x}"

    def bits(self, n=WM_BITS):
        return "".join(self.rng.choice("01") for _ in range(n))

    def run(self, *args):
        argv = [self.cli, *args]
        proc = subprocess.run(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=self.d)
        if proc.returncode != 0:
            raise BenchError(f"set-up step failed ({proc.returncode}): "
                             f"{' '.join(args)}\n{proc.stderr}")

    def gen_keyed(self, name, rows):
        self.run("gen", "--out", self.path(name), "--n", str(rows),
                 "--items", str(self.sizes["domain"]), "--seed", self.seed())

    def embed(self, src, out, cert, key, wm, *attrs, schema=KEYED_SCHEMA):
        self.run("embed", "--in", self.path(src), "--out", self.path(out),
                 "--schema", schema, "--key", key, "--wm", wm,
                 "--prf", "siphash24", *attrs,
                 "--certificate-out", self.path(cert))

    def attack(self, src, out, kind, *extra):
        self.run("attack", "--in", self.path(src), "--out", self.path(out),
                 "--schema", KEYED_SCHEMA, "--type", kind, *extra,
                 "--seed", self.seed())


def detect_job(s, suspect, cert, key, owner):
    argv = [s.cli, "detect", "--in", s.path(suspect), "--schema", KEYED_SCHEMA,
            "--key", key, "--certificate", s.path(cert)]
    if owner:
        return Job(argv, 0, [rf"matched {WM_BITS}/{WM_BITS} bits",
                             r"^ownership claim: SUPPORTED$"])
    return Job(argv, 2, [r"key commitment verified",
                         r"^ownership claim: NOT SUPPORTED$"])


def same_output(path):
    """Each job must write byte-identical output: marking is deterministic."""
    state = {}

    def verify():
        if not os.path.isfile(path):
            return f"{os.path.basename(path)} missing"
        digest = file_digest(path)
        state.setdefault("digest", digest)
        return None if digest == state["digest"] else "output differs"
    return verify


def setup_mark_catm(s):
    """Owner marks a 2M-row .catm and writes a .catm plus certificate."""
    rows = s.sizes["rows"]
    s.gen_keyed("base.catm", rows)
    key, wm = s.secret("owner"), s.bits()
    out, cert = s.path("marked.catm"), s.path("owner.cert")
    argv = [s.cli, "embed", "--in", s.path("base.catm"), "--out", out,
            "--schema", KEYED_SCHEMA, "--key", key, "--wm", wm,
            "--prf", "siphash24", "--certificate-out", cert]
    job = Job(argv, 0, [rf"^embedded {WM_BITS}-bit mark"], [out, cert],
              same_output(out))
    final = detect_job(s, "marked.catm", "owner.cert", key, owner=True)

    def trace_check(job_args):
        return None if job_args.get("fit_tuples", 0) > 0 else "nothing fit"
    return Plan([job], rows, final, trace_check)


def setup_verify_csv(s):
    """Owner and rival claims, alternating, on a leaked and attacked CSV."""
    rows = s.sizes["rows"]
    s.gen_keyed("base.catm", rows)
    owner, rival = s.secret("owner"), s.secret("rival")
    s.embed("base.catm", "owner.catm", "owner.cert", owner, s.bits())
    s.embed("base.catm", "rival.catm", "rival.cert", rival, s.bits())
    s.attack("owner.catm", "subset.catm", "subset", "--fraction", "0.2")
    s.attack("subset.catm", "altered.catm", "alter", "--column", "A",
             "--fraction", "0.1")
    s.attack("altered.catm", "suspect.csv", "shuffle")
    for name in ("rival.catm", "subset.catm", "altered.catm"):
        os.remove(s.path(name))
    suspect_rows = rows - round(rows * 0.2)
    jobs = [detect_job(s, "suspect.csv", "owner.cert", owner, owner=True),
            detect_job(s, "suspect.csv", "rival.cert", rival, owner=False)]

    def trace_check(job_args):
        owned = job_args.get("owned") == 1
        full = job_args.get("matched_bits") == WM_BITS
        # Replays alternate like the CLI jobs: even jobs are the owner's.
        if job_args["job"] % 2 == 0:
            return None if owned and full else "owner claim not supported"
        return None if not owned else "rival claim supported"
    return Plan(jobs, suspect_rows, None, trace_check)


def setup_sweep_catm(s):
    """One certificate, 4000 claimed keys, a 2M-row marked sales .catm.

    At the CLI's default alpha of 1e-3, a 16-bit mark lets a wrong key pass
    with probability 2.6e-4 (15 of 16 bits by chance), so about one of 3999
    wrong candidates would be "supported" in a typical sweep. The sweep
    therefore decides at alpha / candidates (Bonferroni), with a 32-bit mark
    and e = 40 so the owner's mark stays decidable at that level (about 6
    fit items per bit)."""
    rows, n = s.sizes["rows"], s.sizes["candidates"]
    # A boolean flag swallows the next token, so --sales must come last.
    s.run("gen", "--out", s.path("sales.catm"), "--n", str(rows),
          "--items", str(s.sizes["sales_items"]), "--seed", s.seed(),
          "--sales")
    owner = s.secret("owner")
    s.embed("sales.catm", "marked.catm", "owner.cert", owner,
            s.bits(SWEEP_BITS), "--e", "40", "--key-attr", "Item_Nbr",
            "--target-attr", "Dept_Desc", schema=SALES_SCHEMA)
    os.remove(s.path("sales.catm"))
    lines = [f"cand{i:05d}:{s.secret('cand')}" for i in range(n - 1)]
    lines.insert(s.rng.randrange(n), f"owner:{owner}")
    with open(s.path("keys.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    argv = [s.cli, "sweep", "--in", s.path("marked.catm"), "--schema",
            SALES_SCHEMA, "--certificate", s.path("owner.cert"), "--keys",
            s.path("keys.txt"), "--top", "2", "--alpha", str(1e-3 / n)]
    # Ranked owners first: rank 1 is the owner, rank 2 is not supported, so
    # no other candidate is.
    job = Job(argv, 0, [rf"^swept {n} candidates over {rows} tuples",
                        rf"^1 +owner +SUPPORTED +\d+/{SWEEP_BITS} .* verified$",
                        r"^2 +cand\d+ +not supported "])

    def trace_check(job_args):
        if job_args.get("top_id") != "owner" or job_args.get("owned") != 1:
            return "owner not the only supported candidate"
        return None
    return Plan([job], rows, None, trace_check)


def setup_stream_append(s):
    """500k new rows with distinct keys, in 1024-row batches, onto the
    marked 2M-row .catm base."""
    rows, new = s.sizes["rows"], s.sizes["stream_rows"]
    s.gen_keyed("base.catm", rows)
    owner = s.secret("owner")
    s.embed("base.catm", "marked.catm", "owner.cert", owner, s.bits())
    os.remove(s.path("base.catm"))
    s.gen_keyed("new.csv", new)
    out = s.path("grown.catm")
    argv = [s.cli, "stream", "--in", s.path("new.csv"), "--schema",
            KEYED_SCHEMA, "--key", owner, "--certificate",
            s.path("owner.cert"), "--base", s.path("marked.catm"), "--out",
            out, "--batch", str(s.sizes["batch"])]
    same = same_output(out)

    def verify():
        got = catm_rows(out) if os.path.isfile(out) else -1
        return same() if got == rows + new else f"{got} rows, want {rows + new}"
    job = Job(argv, 0, [rf"^streamed {new} rows",
                        rf"^relation now {rows + new} tuples"], [out], verify)

    def trace_check(job_args):
        if job_args.get("rows") != rows + new:
            return "wrong row count after stream"
        return None
    return Plan([job], new, None, trace_check)


WORKLOADS = {
    "mark_catm": setup_mark_catm,
    "verify_csv": setup_verify_csv,
    "sweep_catm": setup_sweep_catm,
    "stream_append": setup_stream_append,
}


# ------------------------------------------------------------ measuring

class Tally:
    """Attempted and failed operations; every miss is logged."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, error):
        self.attempted += 1
        if error:
            self.failed += 1
            log(f"FAILED {what}: {error}")


def run_checked(job, workdir, tally, what):
    # Each job writes fresh files: overwriting in place would time the
    # filesystem's flush-on-truncate of the previous job's output instead.
    for path in job.outputs:
        if os.path.exists(path):
            os.remove(path)
    outcome = spawn(job.argv, workdir)
    tally.record(what, job.check(outcome))
    return outcome


def closed_loop(plan, seconds, workdir, tally, between=None):
    """Runs passes over the plan's jobs for `seconds`, after one untimed
    warm-up pass, calling `between()` after each timed pass; returns the timed
    outcomes and the bytes each job wrote."""
    for i, job in enumerate(plan.jobs):
        run_checked(job, workdir, tally, f"warm-up job {i}")
    outcomes, written = [], []
    deadline = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < deadline:
        for job in plan.jobs:
            outcome = run_checked(job, workdir, tally, f"job {len(outcomes)}")
            outcomes.append(outcome)
            written.append(len(outcome.stdout.encode()) +
                           sum(os.path.getsize(p) for p in job.outputs
                               if os.path.isfile(p)))
        if between:
            between()
    return outcomes, written


def do_setup(name, cli, work, sizes, seed, repeats):
    """Builds the inputs `repeats` times (the last set is kept); returns the
    plan and the median set-up time."""
    times = []
    for _ in range(repeats):
        d = os.path.join(work, "inputs")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        start = time.perf_counter()
        plan = WORKLOADS[name](Setup(cli, d, sizes, seed))
        times.append(time.perf_counter() - start)
    return plan, statistics.median(times)


def end_to_end(plan, outcomes, written, setup_s):
    return {
        "wall_ms_p50": statistics.median(o.wall_ms for o in outcomes),
        "cpu_ms_per_job": statistics.median(o.cpu_ms for o in outcomes),
        "peak_rss_mb": statistics.median(o.rss_mb for o in outcomes),
        "out_bytes_per_row": statistics.median(written) / plan.rows_in,
        "setup_s": setup_s,
    }


def load_trace(path):
    """Groups a trace_replay trace into per-job records: the job span's args
    plus a total duration in ms per span name."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    jobs = {}
    for e in events:
        if e["name"] == "job":
            jobs[e["args"]["job"]] = dict(args=e["args"], wall=e["dur"] / 1e3,
                                          spans={})
    for e in events:
        if e["name"] != "job":
            spans = jobs[e["args"]["job"]]["spans"]
            spans[e["name"]] = spans.get(e["name"], 0.0) + e["dur"] / 1e3
    return [jobs[k] for k in sorted(jobs)]


def layer_metrics(jobs, cli_outcomes):
    """Per-layer metrics: medians over the traced jobs."""
    def med(fn):
        return statistics.median(fn(j) for j in jobs)

    def total(j, prefix):
        return sum(v for k, v in j["spans"].items() if k.startswith(prefix))

    def op_ms(j):
        return j["spans"][OP_SPANS[j["args"]["command"]]]

    wall = med(lambda j: j["wall"])
    cli_wall = statistics.median(o.wall_ms for o in cli_outcomes)
    return {
        "relation.ms": med(lambda j: total(j, "relation.")),
        "relation.load_ms": med(lambda j: j["spans"]["relation.load"]),
        "relation.load_mb_per_s": med(
            lambda j: j["args"]["in_bytes"] / 1e3 / j["spans"]["relation.load"]),
        "relation.release_ms": med(lambda j: j["spans"]["relation.release"]),
        "core.ms": med(lambda j: total(j, "core.")),
        "core.cert_ms": med(lambda j: j["spans"].get("core.cert", 0.0) +
                            j["spans"].get("core.keys", 0.0)),
        "op.ms": med(op_ms),
        "op.rows_per_s": med(lambda j: j["args"]["rows_scanned"] * 1e3 / op_ms(j)),
        "crypto.messages_hashed": med(lambda j: j["args"]["messages_hashed"]),
        "crypto.messages_per_row": med(
            lambda j: j["args"]["messages_hashed"] / j["args"]["rows_scanned"]),
        "process.unattributed_ms": cli_wall - wall,
        "process.minor_faults": statistics.median(o.minflt for o in cli_outcomes),
        "trace.wall_ms": wall,
        "trace.coverage": med(lambda j: sum(j["spans"].values()) / j["wall"]),
    }


def span_profile(jobs):
    """Median ms per job of every span name, for the record."""
    names = sorted({n for j in jobs for n in j["spans"]})
    return {n: statistics.median(j["spans"].get(n, 0.0) for j in jobs)
            for n in names}


def traced(name, plan, seconds, replay, workdir, tally):
    """The --trace 1 run: passes of CLI jobs alternate with in-process replay
    passes of the same jobs, so both see the same machine conditions."""
    jobs_file = os.path.join(workdir, "jobs.tsv")
    with open(jobs_file, "w") as f:
        for job in plan.jobs:
            f.write("\t".join(job.argv[1:]) + "\n")
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    trace_path = os.path.join(WORK, "traces", f"{name}.json")
    err_path = os.path.join(workdir, "trace_replay.stderr")
    with open(err_path, "w") as err:
        proc = subprocess.Popen([replay, "--jobs", jobs_file, "--trace-out",
                                 trace_path], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            def replay_pass():
                proc.stdin.write("pass\n")
                proc.stdin.flush()
                if not proc.stdout.readline().startswith("done"):
                    raise BenchError("trace_replay failed, see " + err_path)
            cli_outcomes, _ = closed_loop(plan, seconds, workdir, tally,
                                          replay_pass)
        finally:
            proc.communicate()  # end of input: the replay writes its trace
    if proc.returncode != 0:
        raise BenchError("trace_replay failed, see " + err_path)
    jobs = load_trace(trace_path)
    for j in jobs:
        tally.record(f"traced job {j['args']['job']}",
                     plan.trace_check(j["args"]))
    return layer_metrics(jobs, cli_outcomes), span_profile(jobs)


# ---------------------------------------------------------------- record

def host_record(replay, work):
    """What the numbers were measured on and with."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    work_real = os.path.realpath(work)
    fs, best = "unknown", -1
    with open("/proc/mounts") as f:
        for line in f:
            _, mount, fstype = line.split()[:3]
            inside = work_real == mount or work_real.startswith(
                mount.rstrip("/") + "/")
            if inside and len(mount) > best:
                fs, best = fstype, len(mount)
    lib = json.loads(subprocess.run([replay, "--host"], stdout=subprocess.PIPE,
                                    text=True, check=True).stdout)
    rev = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        rev = proc.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "simd_level": lib["simd"],
        "hardware_simd_level": lib["hardware_simd"],
        "default_threads": lib["threads"],
        "env": {k: os.environ.get(k) for k in
                ("CATMARK_THREADS", "CATMARK_SIMD", "CATMARK_PRF")},
        "build_type": lib["build_type"],
        "compiler": lib["compiler"],
        "work_filesystem": fs,
        "git_revision": rev,
        "source_digest": source_digest(),
    }


def source_digest():
    """sha256 over the sources the binaries are built from, so records from
    a checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def result_line(correct, tally, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


# ------------------------------------------------------------------ main

def measure(name, seed, seconds, trace, cli, replay, sizes, work):
    """One benchmark run of one workload; returns (tally, metrics, record)."""
    tally = Tally()
    repeats = sizes["setups"] if not trace else 1
    plan, setup_s = do_setup(name, cli, work, sizes, seed, repeats)
    workdir = os.path.join(work, "inputs")
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "sizes": sizes}
    if trace:
        metrics, record["spans_ms"] = traced(name, plan, seconds, replay,
                                             workdir, tally)
    else:
        outcomes, written = closed_loop(plan, seconds, workdir, tally)
        metrics = end_to_end(plan, outcomes, written, setup_s)
        # Too few samples for the p90 to be a bounded metric (fewer than ten
        # lie beyond it); kept in the record with its sample count.
        walls = [o.wall_ms for o in outcomes]
        record["samples"] = len(walls)
        record["wall_ms_p90"] = (statistics.quantiles(
            walls, n=10, method="inclusive")[8] if len(walls) > 1 else walls[0])
        record["wall_ms"] = [round(w, 3) for w in walls]
    if plan.final:
        run_checked(plan.final, workdir, tally, "end-of-run detect")
    return tally, metrics, record


def smoke(cli, replay):
    """Every workload at small n, traced and untraced, then a check that a
    wrong result is counted as failed."""
    work = os.path.join(WORK, f"smoke-{os.getpid()}")
    ok = True
    try:
        for name in WORKLOADS:
            for trace in (0, 1):
                tally, metrics, _ = measure(name, 1, 1.0, trace, cli, replay,
                                            SMOKE, work)
                units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
                line = json.loads(result_line(tally.failed == 0, tally,
                                              metrics, units))
                good = line["correct"] and all(
                    m["value"] > 0 for k, m in line["metrics"].items()
                    if k != "process.unattributed_ms")
                ok &= good
                log(f"smoke {name} trace={trace}: attempted={tally.attempted} "
                    f"failed={tally.failed} {'ok' if good else 'BAD'}")
            # Failure accounting: the same job, expecting the other exit code,
            # must be counted as a miss.
            plan = WORKLOADS[name](Setup(cli, os.path.join(work, "inputs"),
                                         SMOKE, 1))
            wrong = plan.jobs[0]
            wrong.rc = 2 if wrong.rc == 0 else 0
            tally = Tally()
            run_checked(wrong, os.path.join(work, "inputs"), tally,
                        "deliberately wrong expectation")
            counted = tally.attempted == 1 and tally.failed == 1
            ok &= counted
            log(f"smoke {name} failure accounting: "
                f"{'ok' if counted else 'BAD'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at small n, in seconds")
    args = parser.parse_args()
    # On SIGTERM, unwind so that running children are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    try:
        cli, replay = build()
        if args.smoke:
            return smoke(cli, replay)
        work = os.path.join(WORK, f"run-{args.workload}-{args.seed}-"
                                  f"{os.getpid()}")
        try:
            tally, metrics, record = measure(args.workload, args.seed,
                                             args.seconds, args.trace, cli,
                                             replay, FULL, work)
            record["host"] = host_record(replay, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    record.update(attempted=tally.attempted, failed=tally.failed,
                  metrics=metrics)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print("record " + json.dumps(record))
    correct = tally.failed == 0 and tally.attempted > 0
    print(result_line(correct, tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
