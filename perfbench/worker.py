"""One fresh process per set-up, pass or microbenchmark of a benchmark run.

    python3 perfbench/worker.py setup --workload W --run-dir D --cache C --out F
    python3 perfbench/worker.py pass  --workload W --run-dir D --cache C --out F [--trace]
    python3 perfbench/worker.py micro --workload W --run-dir D --cache C --out F

Started by run.py with the thread caps and FRACASYM_CACHE already in its
environment, so numpy sees them at import and ~/.cache/fracasym is never read.
A pass runs the workload's operations once and writes their outcomes, its
wall time and its peak RSS to the --out JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (after the source path is set)


def _load_script(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _import_layers():
    import fracasym  # noqa: F401  (the package imports every layer)

    return _load_script("run_all_checks")


def setup(args):
    _import_layers()
    if args.workload == "battery":
        from fracasym import kernels

        for triple in workloads.BATTERY_PROFILES:
            kernels.build_y_profile(workloads.frac_params(triple), cache_dir=args.cache)
    return {}


def run_pass(args):
    import numpy
    import scipy

    script = _import_layers()
    with open(os.path.join(args.run_dir, "inputs.json")) as fh:
        inputs = json.load(fh)
    if args.workload == "battery":
        ops = workloads.battery_ops(script, args.cache, os.path.join(args.out_dir, "reports"))
    elif args.workload == "profile-sweep":
        ops = workloads.sweep_ops(inputs, args.cache)
    else:
        ops = workloads.potential_ops(inputs)

    tracer = None
    result = {"versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.cache)
        try:
            result["rebound_references"] = tracer.instrument(extra_modules=[script])
        except RuntimeError as exc:
            result["trace_error"] = str(exc)
            tracer = None

    records = []
    t0 = time.perf_counter()
    for op in ops:
        if tracer:
            tracer.op = op.name
        records.append(workloads.run_op(op))
    wall = time.perf_counter() - t0

    result.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=records,
    )
    if tracer:
        layer, check_s = tracer.layer_metrics(wall)
        layer["radialtransform.extrapolations"] = sum(r["extrapolations"] for r in records)
        result["layer"] = layer
        result["check_s"] = check_s
        tracer.dump(os.path.join(args.out_dir, "spans.json"))
    return result


def micro(args):
    import micro as mb

    _import_layers()
    x = mb.capture_transform_args(args.cache)
    return {**mb.ml_metrics(x), **mb.hankel_metrics()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("setup", "pass", "micro"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--cache", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    args.out_dir = os.path.dirname(args.out)
    os.makedirs(args.cache, exist_ok=True)
    result = {"setup": setup, "pass": run_pass, "micro": micro}[args.mode](args)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
