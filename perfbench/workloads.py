"""Workload inputs (drawn from a seed) and the operations each workload runs.

An operation is one limit-theorem check, one profile build or one potential.
It fails when it raises, returns an unexpected verdict, or misses its
closed-form oracle; a failure is recorded and never aborts the pass.

Oracle tolerances come from the repository's own gates:

* ``|A/c_2beta - 1|``: 1e-3 (``verify_constant_identity`` and acceptance
  criterion 06); 1e-6 in validation mode (alpha = 1), as criterion 06 gates
  the classical-kernel identity.
* ``int F = 1`` and ``int G = 1/Gamma(alpha)``: 1e-6 (acceptance criterion 03
  and ``test_g_profile_mass_*``).
* mass in a tail-check report against ``ForcingSpec.mass_g``: 1e-6, the
  quadrature/transform mass cross-check gate in ``potential_deviation``.
* Newtonian potential of the Gaussian against ``pi^{3/2} erf(rho)/rho``:
  1e-5 (``test_potential_without_closed_form_transform``).

run.py imports this module for the menus alone, before any worker starts, so
numpy, scipy and fracasym are imported inside the functions that use them.
"""

from __future__ import annotations

import math
import os
import random
import time
import warnings
from collections import namedtuple

WORKLOADS = ("battery", "profile-sweep", "potentials")

# --- battery ------------------------------------------------------------------

# The only profile the battery's checks read (compact, intermediate-F,
# constant and kernel-bounds use G at the reference set); built cold during
# set-up so the timed pass only loads it.
BATTERY_PROFILES = ((0.5, 0.5, 3),)

# --- profile-sweep --------------------------------------------------------------

# scripts/build_profiles.py defaults, always built.
SWEEP_DEFAULTS = ((0.5, 0.5, 3), (0.5, 1.0, 5))

# Vetted menus for the seeded extra triples.  Each entry builds G and F
# without error and meets every oracle at the parent commit.  The fractional
# entries share beta = 0.5 and N = 3 with the first default, so they cost
# about the same (9-10 s for G+F on 2 cores), and stay below the defaults'
# largest oracle error (3.1e-6 on A at (0.5,0.5,3)): the draw moves neither
# wall_s nor oracle_rel_err beyond run-to-run noise, while its alpha is one
# no other build of the pass uses.
# Left out, with the reason measured at the parent commit:
#   (0.9,0.25,5): G raises the documented KernelError (kappa plateau
#       variation 0.266) after 8.4 s.
#   (0.8,0.6,3), (0.4,0.6,3): G raises KernelError (plateau variation 0.058).
#   beta = 0.4 at N = 3: int G misses 1/Gamma(alpha) by 1.1e-4 to 1.4e-4.
#   (0.3,0.5,3), (0.4,0.5,3), (0.5,0.6,3), (0.6,0.6,3), (0.7,0.6,3),
#       (0.6,0.5,5): int G misses by 1.0e-6 to 1.7e-6, over the 1e-6 gate.
#   (0.45,0.5,3), (0.65,0.5,3), (0.7,0.5,3): pass, but |A/c - 1| of
#       3.8e-6 to 5.8e-6 would set the workload's oracle maximum by the draw.
#   (0.5,0.75,5), (0.7,0.5,5): pass, but after the defaults their G+F cost
#       about 6.5 s and 11.5 s, so the draw would move wall_s.
SWEEP_FRACTIONAL_MENU = ((0.55, 0.5, 3), (0.6, 0.5, 3))
SWEEP_VALIDATION_MENU = (
    (1.0, 0.5, 3), (1.0, 0.6, 3), (1.0, 0.7, 3),
    (1.0, 0.5, 5), (1.0, 0.75, 5), (1.0, 1.0, 5),
)

# --- potentials -----------------------------------------------------------------

# Grids for the sampled forcing profiles: the heavy family's rho^{-4} tail
# needs the wider grid (as in tests/test_potentials.py).
POT_GRIDS = {
    "gaussian": (1e-2, 50.0, 512),
    "bump": (1e-2, 50.0, 512),
    "heavy": (1e-2, 1e3, 640),
}
POT_MUS = (0.5, 1.0, 1.5, 2.0, 2.5)
TAIL_R = {"gaussian": (4.0, 40.0, 400.0), "heavy": (1e2, 1e3, 1e4)}
TAIL_TOL = {"gaussian": 1e-6, "heavy": 1e-2}
# Tail-check cases that pass at the parent commit with the numerical forward
# transform.  Left out: gaussian at mu = 1, 1.5, 2.5 (the normalized
# deviation floors at 7e-6 to 5e-5, above the 1e-6 tolerance), and every bump
# case (the sampled bump's mass misses mass_g by 7.1e-6, over the 1e-6 mass
# gate; the kink at rho = 1 falls between log-grid nodes).
TAIL_MENU = {
    "gaussian": tuple((mu, p) for mu in (0.5, 2.0) for p in (1.0, 2.0, math.inf)),
    "heavy": tuple((mu, p) for mu in POT_MUS for p in (1.0, 2.0, math.inf)),
}
# Draws per pass, stratified by family and kind so every seed costs the same.
POT_DRAWS = {"gaussian": 3, "heavy": 3, "bump": 3}
TAIL_DRAWS = {"gaussian": 3, "heavy": 4}

# Failures known at the parent commit, counted in failed and ok_frac like any
# other but not turning the run's `correct` false.  A fix is a later change.
KNOWN_FAILURES = {
    # the beta = 1 trim in kernels._build clamps 281 of 768 samples below
    # 1e-13 of the origin-singular peak: int F = 0.9646 (untrimmed: 1 - 1.3e-13)
    "F(0.5,1,5)": "int F = 0.9646 after the beta = 1 trim",
}

MASS_TOL = 1e-6
A_TOL = 1e-3
A_TOL_VALIDATION = 1e-6
ERF_TOL = 1e-5


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one run; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "battery":
        # the nine checks of run_all_checks.configs() take no drawn inputs
        return {"workload": workload, "seed": seed}
    if workload == "profile-sweep":
        triples = list(SWEEP_DEFAULTS)
        triples += rng.sample(SWEEP_FRACTIONAL_MENU, 1)
        triples += rng.sample(SWEEP_VALIDATION_MENU, 2)
        return {"workload": workload, "seed": seed, "triples": triples}
    if workload == "potentials":
        cases = [{"kind": "potential", "family": "gaussian", "mu": 2.0,
                  "oracle": "erf"}]
        for family, n in POT_DRAWS.items():
            for mu in rng.sample(POT_MUS, n):
                cases.append({"kind": "potential", "family": family, "mu": mu})
        for family, n in TAIL_DRAWS.items():
            for mu, p in rng.sample(TAIL_MENU[family], n):
                cases.append({"kind": "tail", "family": family, "mu": mu,
                              "p": "inf" if math.isinf(p) else p})
        return {"workload": workload, "seed": seed, "cases": cases}
    raise ValueError(f"unknown workload {workload!r}")


def c_mu(mu: float, dim: int) -> float:
    """Closed-form Riesz constant Gamma((N-mu)/2) / (pi^{N/2} 2^mu Gamma(mu/2)),
    computed here so the oracle does not rest on the code under test."""
    return math.gamma((dim - mu) / 2.0) / (
        math.pi ** (dim / 2.0) * 2.0**mu * math.gamma(mu / 2.0)
    )


def _rel(got: float, want: float) -> float:
    return abs(got / want - 1.0)


# One operation: a name, and a callable returning (verdict_ok, oracles) where
# oracles maps an oracle name to (relative error, tolerance).
Op = namedtuple("Op", "name fn")


def run_op(op: Op) -> dict:
    """Run one operation, catching its failure and its warnings."""
    from fracasym.radialtransform import ExtrapolationWarning

    rec = {"op": op.name, "ok": False, "error": None, "oracles": {}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            verdict_ok, oracles = op.fn()
        except Exception as exc:  # an op that raises is a failed op
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            rec["oracles"] = {k: [err, tol] for k, (err, tol) in oracles.items()}
            missed = [k for k, (err, tol) in oracles.items() if not err <= tol]
            if not verdict_ok:
                rec["error"] = "unexpected verdict"
            elif missed:
                rec["error"] = "oracle miss: " + ", ".join(missed)
            rec["ok"] = verdict_ok and not missed
    rec["seconds"] = time.perf_counter() - t0
    rec["extrapolations"] = sum(
        issubclass(w.category, ExtrapolationWarning) for w in caught
    )
    rec["other_warnings"] = len(caught) - rec["extrapolations"]
    return rec


# --- operations ----------------------------------------------------------------


def battery_ops(script, cache_dir, out_dir):
    """The checks of ``script.configs(cache_dir)``, each report saved as
    ``run_all_checks.main`` does."""
    from fracasym import verify

    os.makedirs(out_dir, exist_ok=True)

    def check(label, cfg):
        def fn():
            report = verify.run_check(cfg)
            report.save(os.path.join(out_dir, f"report_{label}.json"))
            oracles = {}
            if "A" in report.notes:
                p = cfg.params
                oracles["A/c_2beta"] = (
                    _rel(report.notes["A"], c_mu(2.0 * p.beta, p.dim)), A_TOL
                )
            return report.passed, oracles

        return Op(label, fn)

    return [check(label, cfg) for label, cfg in script.configs(cache_dir)]


def frac_params(triple):
    from fracasym.params import FracParams

    a, b, n = triple
    return FracParams(a, b, int(n), validation_mode=(a == 1.0))


def sweep_ops(inputs, cache_dir):
    from fracasym import kernels
    from fracasym import radialtransform as rt

    ops = []
    for triple in inputs["triples"]:
        params = frac_params(triple)
        tag = f"({params.alpha:g},{params.beta:g},{params.dim})"

        def build_g(params=params):
            prof = kernels.build_y_profile(params, cache_dir=cache_dir)
            a, b, n = params.alpha, params.beta, params.dim
            a_tol = A_TOL_VALIDATION if a == 1.0 else A_TOL
            return True, {
                "int G": (_rel(rt.radial_integral(prof.values, n),
                               1.0 / math.gamma(a)), MASS_TOL),
                "A/c_2beta": (_rel(prof.constant_A, c_mu(2.0 * b, n)), a_tol),
            }

        def build_f(params=params):
            prof = kernels.build_z_profile(params, cache_dir=cache_dir)
            return True, {
                "int F": (_rel(rt.radial_integral(prof.values, params.dim), 1.0),
                          MASS_TOL),
            }

        ops.append(Op(f"G{tag}", build_g))
        ops.append(Op(f"F{tag}", build_f))
    return ops


def _sampled(family, dim=3):
    import numpy as np

    from fracasym.radialtransform import RadialFunction, RadialGrid
    from fracasym.solver import ForcingSpec

    fs = ForcingSpec(family, gamma=2.0, dim=dim)
    grid = RadialGrid(*POT_GRIDS[family])
    return fs, grid, RadialFunction(grid, np.asarray(fs.g(grid.nodes), dtype=float))


def potential_ops(inputs):
    import numpy as np
    from scipy.special import erf

    from fracasym import potentials

    ops = []
    for case in inputs["cases"]:
        family, mu = case["family"], case["mu"]
        if case["kind"] == "potential":

            def fn(family=family, mu=mu, case=case):
                fs, grid, g = _sampled(family)
                pot = potentials.riesz_potential(g, mu, 3, grid=grid)
                # I_mu of a positive function is positive everywhere
                ok = bool(np.all(np.isfinite(pot.samples)) and np.all(pot.samples > 0))
                oracles = {}
                if case.get("oracle") == "erf":
                    rho = np.geomspace(0.2, 20.0, 40)
                    ref = math.pi**1.5 * erf(rho) / rho
                    oracles["erf"] = (float(np.max(np.abs(pot(rho) - ref) / ref)),
                                      ERF_TOL)
                return ok, oracles

            ops.append(Op(f"riesz_potential[{family},mu={mu:g}]", fn))
        else:
            p = math.inf if case["p"] == "inf" else float(case["p"])

            def fn(family=family, mu=mu, p=p):
                fs, grid, g = _sampled(family)
                rep = potentials.riesz_tail_check(
                    g, mu, 3, p, nu=1.0, mu_outer=2.0, R_list=TAIL_R[family],
                    tolerance=TAIL_TOL[family],
                )
                return rep.passed, {
                    "mass": (_rel(rep.params["mass"], fs.mass_g), MASS_TOL)
                }

            ops.append(Op(f"riesz_tail_check[{family},mu={mu:g},p={case['p']}]", fn))
    return ops
