#!/usr/bin/env python3
"""Build and cache the self-similar kernel profiles F and G for one or more
parameter sets, print kappa (a closed form), the constant A and the bound
report, and emit plot-ready CSVs.

Usage:
    python scripts/build_profiles.py --out profiles/ [--cache ~/.cache/fracasym]
        [--params 0.5,0.5,3] [--params 0.5,1,5]
"""

import argparse
import os
import sys

from fracasym import kernels
from fracasym.params import FracParams
from fracasym.potentials import riesz_constant


def parse_params(raw):
    alpha, beta, dim = raw.split(",")
    alpha, beta, dim = float(alpha), float(beta), int(dim)
    validation = alpha == 1.0
    return FracParams(alpha=alpha, beta=beta, dim=dim, validation_mode=validation)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="profiles", help="output directory")
    ap.add_argument("--cache", default=None, help="profile cache directory")
    ap.add_argument(
        "--params",
        action="append",
        default=None,
        help="alpha,beta,dim triple (repeatable); default: 0.5,0.5,3 and 0.5,1,5",
    )
    args = ap.parse_args(argv)
    triples = args.params or ["0.5,0.5,3", "0.5,1,5"]
    os.makedirs(args.out, exist_ok=True)

    for raw in triples:
        params = parse_params(raw)
        tag = f"a{params.alpha:g}_b{params.beta:g}_N{params.dim}"
        print(f"== ({params.alpha:g}, {params.beta:g}, {params.dim}) ==")
        for which, builder in (
            ("G", kernels.build_y_profile),
            ("F", kernels.build_z_profile),
        ):
            profile = builder(params, cache_dir=args.cache)
            path = os.path.join(args.out, f"profile_{which}_{tag}.csv")
            profile.save(path)
            print(f"  wrote {path}")
            if which == "G":
                c2b = riesz_constant(2.0 * params.beta, params.dim)
                print(f"  kappa       = {profile.kappa}")
                print(f"  constant A  = {profile.constant_A}")
                print(f"  c_2beta     = {c2b}")
                if profile.constant_A is not None:
                    print(f"  |A/c - 1|   = {abs(profile.constant_A / c2b - 1.0):.3e}")
                if profile.bound_report:
                    print(f"  bounds      = {profile.bound_report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
