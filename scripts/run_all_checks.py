#!/usr/bin/env python3
"""Run every limit-theorem check for the reference parameter set and write the
JSON/CSV reports.

Covers all forcing regimes: compact sets (gamma = 2), the intermediate scale
classes S and F at phi(t) = t^{theta/2}, the exterior comparisons for
gamma > 1 (limit mass), gamma = 1 (log law, taken near the classical exponent
where the correction converges fast enough to observe), gamma < 1
(coherence of the inner limit), plus the constant identity and the kernel
bound/decay estimates.

Usage:
    python scripts/run_all_checks.py --out reports/

configs(cache_dir) is the one definition of the battery: this script, the
benchmark's battery workload, the acceptance criteria (through the tests'
`battery` fixture) and the batching test all run its configs.  Profiles are
built in the process; cache_dir is for callers that keep them on disk.
"""

import argparse
import math
import os
import sys

from fracasym.params import FracParams, ScaleSpec
from fracasym.solver import ForcingSpec
from fracasym.verify import VerifyConfig, run_check


def configs(cache_dir=None):
    ref = FracParams(0.5, 0.5, 3)
    mk = lambda gamma: ForcingSpec("gaussian", gamma=gamma, dim=3)
    short = (1e2, 1e3, 1e4)
    long = (1e4, 1e6, 1e8)
    yield "compact", VerifyConfig(
        params=ref, forcing=mk(2.0), theorem="compact", p=math.inf,
        scale=ScaleSpec(kind="compact", radius=1.0), times=short,
        cache_dir=cache_dir,
    )
    # phi(t) = t^{theta/2}; convergence on these scales is slow (the kernel
    # leaves its kappa power law at xi ~ t^{-theta/2}), so the checkpoints
    # extend to t = 1e8
    for label, gamma in (("intermediate-S", 0.5), ("intermediate-F", 2.0)):
        yield label, VerifyConfig(
            params=ref, forcing=mk(gamma), theorem="intermediate", p=1.0,
            scale=ScaleSpec(kind="intermediate", exponent=0.25, nu=1.0, mu=2.0),
            times=long, cache_dir=cache_dir,
        )
    yield "outer-general", VerifyConfig(
        params=ref, forcing=mk(0.5), theorem="outer-general", p=1.0,
        scale=ScaleSpec(kind="outer", nu=1.0), times=short, cache_dir=cache_dir,
    )
    yield "outer-mass", VerifyConfig(
        params=ref, forcing=mk(2.0), theorem="outer-mass", p=1.0,
        scale=ScaleSpec(kind="outer", nu=1.0), times=short, cache_dir=cache_dir,
    )
    # scalar quadrature only; the log correction converges at rate 1/log t,
    # so the subdiffusive exponent is taken near the classical end, where the
    # prefactor is small enough to clear the tolerance at t = 1e6
    yield "outer-log", VerifyConfig(
        params=FracParams(0.9, 0.5, 3), forcing=mk(1.0), theorem="outer-log",
        scale=ScaleSpec(kind="outer", nu=1.0), times=(1e4, 1e5, 1e6),
        cache_dir=cache_dir,
    )
    yield "coherence", VerifyConfig(
        params=ref, forcing=mk(0.5), theorem="coherence",
        scale=ScaleSpec(kind="outer"),
        times=short,  # paired with xi = 1e-1, 1e-1.5, 1e-2
        cache_dir=cache_dir,
    )
    yield "constant", VerifyConfig(
        params=ref, forcing=mk(0.5), theorem="constant", times=short,
        tolerance=1e-2, cache_dir=cache_dir,
    )
    yield "kernel-bounds", VerifyConfig(
        params=ref, forcing=mk(0.5), theorem="kernel-bounds", p=1.0,
        times=short, cache_dir=cache_dir,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="reports", help="report output directory")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    failures = 0
    total = 0.0
    for label, cfg in configs():
        report = run_check(cfg)
        path = os.path.join(args.out, f"report_{label}.json")
        report.save(path)
        errs = ", ".join(f"{e:.3e}" for e in report.normalized_errors)
        # milliseconds: a check takes 0.1-0.2 s, which tenths of a second hide
        print(f"{label:16s} {report.verdict:14s} [{errs}] "
              f"({1e3 * report.runtime_seconds:.0f} ms)")
        total += report.runtime_seconds
        if not report.passed:
            failures += 1
    print(f"{'total':16s} {1e3 * total:.0f} ms")
    print(f"{failures} failing check(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
