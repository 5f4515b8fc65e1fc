#!/usr/bin/env python3
"""fracasym benchmark: three workloads, end-to-end metrics from untraced
runs and a per-layer split from a separate traced run.

    python3 perfbench/run.py --workload battery|profile-sweep|potentials \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every set-up, pass and microbenchmark runs in
a fresh worker process (perfbench/worker.py), so the in-process W-table and
Hankel-engine caches are never warm across repetitions; each worker gets a
cache directory of its own through FRACASYM_CACHE and BLAS/OpenMP threads
capped at nproc.  Inputs, reports, spans and the full result (with the
machine, the versions and the source digest) go to perfbench/runs/<run>/.

--trace 0: set up twice (setup_s is the median), then run passes until
    --seconds have elapsed (at least one) and report medians over passes.
--trace 1: set up once, run one untraced and one traced pass and the
    microbenchmarks, and report the per-layer metrics; the traced pass must
    spend at least 90% of its wall time under top-level layer spans.

The last line of stdout is the JSON result; the lines before it list every
metric with its unit.  Exit status is 0 when the run completed, whatever its
verdicts; any other status means no result was produced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import BATTERY_LABELS, END_TO_END, PER_LAYER, UNITS  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS, make_inputs  # noqa: E402

RUN_BUDGET_S = 170.0  # a run must end within 180 s
# A battery set-up includes a 6-7 s cold profile build, so every further
# set-up adds that much to each battery run.
SETUP_REPEATS = 2
MIN_COVERAGE = 0.9
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


class Run:
    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.started = time.perf_counter()
        self.dir = os.path.join(
            HERE, "runs", f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}"
        )
        os.makedirs(self.dir)
        self.threads = len(os.sched_getaffinity(0))
        self.n = 0

    def left(self):
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def worker(self, mode, cache, trace=False):
        """Run one worker to completion; returns (seconds, its JSON result)."""
        self.n += 1
        out_dir = os.path.join(self.dir, f"{self.n:02d}-{mode}")
        os.makedirs(out_dir)
        out = os.path.join(out_dir, "result.json")
        env = dict(os.environ, FRACASYM_CACHE=cache)
        env.update({var: str(self.threads) for var in THREAD_VARS})
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", self.workload, "--run-dir", self.dir,
               "--cache", cache, "--out", out] + (["--trace"] if trace else [])
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                                  timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise WorkerError(f"{mode} worker exceeded the run budget") from exc
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise WorkerError(f"{mode} worker exited with status {proc.returncode}")
        with open(out) as fh:
            return seconds, json.load(fh)

    def cache(self, name):
        return os.path.join(self.dir, f"cache-{name}")


def environment(threads):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None  # a checkout without .git is identified by the digest alone
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for sub in ("src", "scripts"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, sub))):
            dirnames.sort()
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "thread_cap": threads,
        "python": platform.python_version(), "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def tally(passes):
    """(attempted, failed, unexpected failures, largest oracle error of the
    ops that passed) over the ops of all passes."""
    ops = [rec for p in passes for rec in p["ops"]]
    failed = [rec for rec in ops if not rec["ok"]]
    unexpected = [rec for rec in failed if rec["op"] not in KNOWN_FAILURES]
    errs = [err for rec in ops if rec["ok"] for err, _ in rec["oracles"].values()]
    return len(ops), len(failed), unexpected, max(errs) if errs else 1.0


def untraced(run, seconds):
    setup = []
    for i in range(SETUP_REPEATS):
        secs, _ = run.worker("setup", run.cache(f"setup{i}"))
        setup.append(secs)
    passes, t0 = [], time.perf_counter()
    while True:
        i = len(passes)
        cache = run.cache(f"setup{SETUP_REPEATS - 1}") if run.workload == "battery" \
            else run.cache(f"pass{i}")
        secs, result = run.worker("pass", cache)
        passes.append(result)
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds or secs > run.left() - 5.0:
            break
    attempted, failed, _, oracle = tally(passes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
        "oracle_rel_err": oracle,
    }
    return metrics, passes, [], {"setup_seconds": setup, "passes": passes}


def traced(run):
    cache = run.cache("setup0")
    run.worker("setup", cache)
    fresh = run.workload != "battery"
    _, plain = run.worker("pass", run.cache("untraced") if fresh else cache)
    _, trace = run.worker("pass", run.cache("traced") if fresh else cache, trace=True)
    _, micro = run.worker("micro", run.cache("micro"))
    problems = []
    if "trace_error" in trace:
        problems.append(trace["trace_error"])
        layer, check_s = {}, {}
    else:
        layer, check_s = trace["layer"], trace["check_s"]
    metrics = {name: 0.0 for name, *_ in PER_LAYER}
    metrics.update(layer)
    metrics.update(micro)
    for label in BATTERY_LABELS:
        metrics[f"verify.check_s.{label}"] = check_s.get(label, 0.0)
    metrics["trace.overhead_frac"] = trace["wall_s"] / plain["wall_s"] - 1.0
    if metrics["trace.coverage"] < MIN_COVERAGE:
        problems.append(
            f"top-level layer spans cover {metrics['trace.coverage']:.3f} of wall_s, "
            f"below {MIN_COVERAGE}"
        )
    return metrics, [plain, trace], problems, {
        "untraced": plain, "traced": trace, "micro": micro}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/fracasym/__init__.py", "scripts/run_all_checks.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}; run from a fracasym "
                  "source checkout", file=sys.stderr)
            return 2

    run = Run(args.workload, args.seed, args.trace)
    inputs = make_inputs(args.workload, args.seed)
    with open(os.path.join(run.dir, "inputs.json"), "w") as fh:
        json.dump(inputs, fh, indent=1)
    try:
        metrics, passes, problems, detail = (
            traced(run) if args.trace else untraced(run, args.seconds))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, unexpected, _ = tally(passes)
    problems += [f"{rec['op']}: {rec['error']}" for rec in unexpected]
    names = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    env = {**environment(run.threads), **passes[0]["versions"]}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }
    with open(os.path.join(run.dir, "result.json"), "w") as fh:
        json.dump({**result, "all_metrics": metrics, "environment": env,
                   "inputs": inputs, "problems": problems,
                   "known_failures": KNOWN_FAILURES, **detail}, fh, indent=1)

    print(f"{env['cpu']}, {env['nproc']} CPUs, threads capped at {env['thread_cap']}; "
          f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}; "
          f"commit {env['commit']}, source sha256 {env['source_sha256'][:12]}")
    for p in problems:
        print(f"FAIL {p}")
    known = {rec["op"]: rec["error"] for p in passes for rec in p["ops"]
             if not rec["ok"] and rec["op"] in KNOWN_FAILURES}
    for op, error in known.items():
        print(f"KNOWN FAILURE {op}: {error} ({KNOWN_FAILURES[op]})")
    moves = {name: moves for name, _, _, moves in PER_LAYER}
    for n in names:
        hint = f"  [{moves[n]}]" if n in moves else ""
        print(f"{n:44s} {metrics[n]:.6g} {UNITS[n]}{hint}")
    print(f"{attempted - failed}/{attempted} operations passed; results in "
          f"{os.path.relpath(run.dir, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
