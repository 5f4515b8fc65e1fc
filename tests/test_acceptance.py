"""Acceptance gate: fifteen end-to-end criteria, one printed verdict line each.

Each criterion states a property of the engine (special functions, transforms,
kernel constants, solver gates, limit-theorem checks) with an explicit
tolerance; expected values come from closed forms or independent oracles,
never from the code under test.
"""

import math
import sys

import numpy as np
import pytest
from scipy.special import erf, erfcx

from fracasym import kernels
from fracasym.params import FracParams, ScaleSpec
from fracasym.potentials import riesz_constant, riesz_potential, riesz_tail_check
from fracasym.radialtransform import (
    ExtrapolationWarning,
    RadialFunction,
    RadialGrid,
    radial_fourier_forward,
    radial_fourier_inverse,
    radial_integral,
)
from fracasym.solver import ForcingSpec, _build_w_table, time_weight
from fracasym.special import mittag_leffler, ml_tail_coefficient
from fracasym.verify import VerifyConfig, run_check


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    # Verdict lines must reach the real stdout even under fd-level capture.
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(num, label, ok, detail):
    line = f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _decreasing(series):
    return all(
        b < a or (a == 0.0 and b == 0.0) for a, b in zip(series[:-1], series[1:])
    )


def test_criterion_01_special_functions():
    x = np.geomspace(1e-3, 50.0, 200)
    err_half = np.max(np.abs(mittag_leffler(0.5, 1.0, -x) - erfcx(x)) / erfcx(x))
    err_one = np.max(np.abs(mittag_leffler(1.0, 1.0, -x) - np.exp(-x)))
    ok = err_half <= 1e-10 and err_one <= 1e-12
    _verdict(1, "special-functions", ok,
             f"E_1/2 rel err {err_half:.2e}, E_1 abs err {err_one:.2e}")


def test_criterion_02_transform_round_trip():
    errs = []
    for dim in (3, 5):
        grid = RadialGrid(1e-3, 40.0, 512)
        symbol = lambda r: np.exp(-0.5 * np.asarray(r) ** 2)
        h = radial_fourier_inverse(symbol, dim, grid)
        fwd = radial_fourier_forward(h, dim)
        r = np.geomspace(1e-2, 8.0, 60)
        ref = symbol(r)
        mask = ref > 1e-8 * ref.max()  # information floor of the round trip
        errs.append(np.max(np.abs(fwd(r[mask]) - ref[mask]) / ref[mask]))
    # closed-form heat-kernel inverse: symbol e^{-r^2}, N = 5
    grid = RadialGrid(1e-3, 50.0, 512)
    h = radial_fourier_inverse(lambda r: np.exp(-np.asarray(r) ** 2), 5, grid)
    spots = np.geomspace(1e-2, 6.0, 20)
    ref = (4.0 * math.pi) ** -2.5 * np.exp(-0.25 * spots**2)
    heat_err = np.max(np.abs(h(spots) - ref) / ref)
    ok = max(errs) <= 1e-6 and heat_err <= 1e-6
    _verdict(2, "transform-round-trip", ok,
             f"round-trip rel {max(errs):.2e}, heat inverse rel {heat_err:.2e}")


def test_criterion_03_kernel_mass(g_profile_ref):
    mass = radial_integral(g_profile_ref.values, 3)
    target = 1.0 / math.gamma(0.5)
    err = abs(mass / target - 1.0)
    ok = err <= 1e-6
    _verdict(3, "kernel-mass", ok, f"mass {mass:.10f}, rel err {err:.2e}")


def test_criterion_04_kappa_limit(g_profile_ref):
    grid = g_profile_ref.values.grid
    sel = (grid.nodes >= 1e-3) & (grid.nodes <= 1e-2)
    # N - 4 beta = 1 for (0.5, 0.5, 3)
    window = grid.nodes[sel] ** 1.0 * g_profile_ref.values.samples[sel]
    mean = float(window.mean())
    variation = float((window.max() - window.min()) / mean)
    oracle = ml_tail_coefficient(0.5) * riesz_constant(2.0, 3)
    err = abs(mean / oracle - 1.0)
    ok = variation < 1e-2 and err < 1e-2
    _verdict(4, "kappa-limit", ok,
             f"plateau {mean:.7f} vs oracle {oracle:.7f} (rel {err:.2e}), "
             f"variation {variation:.2e}")


def test_criterion_05_exterior_decay(g_profile_ref):
    grid = g_profile_ref.values.grid
    sel = (grid.nodes >= 5.0) & (grid.nodes <= 500.0)
    slope = float(
        np.polyfit(np.log(grid.nodes[sel]), np.log(g_profile_ref.values.samples[sel]), 1)[0]
    )
    err = abs(slope / -4.0 - 1.0)
    ok = err < 0.03
    _verdict(5, "exterior-decay", ok, f"slope {slope:.4f} vs -4 (rel {err:.2e})")


def test_criterion_06_constant_identity(g_profile_ref, g_profile_beta1, g_profile_heat):
    e1 = abs(g_profile_ref.constant_A / riesz_constant(1.0, 3) - 1.0)
    e2 = abs(g_profile_beta1.constant_A / riesz_constant(2.0, 5) - 1.0)
    e3 = abs(g_profile_heat.constant_A / (1.0 / (8.0 * math.pi**2)) - 1.0)
    ok = e1 <= 1e-3 and e2 <= 1e-3 and e3 <= 1e-6
    _verdict(6, "constant-identity", ok,
             f"A/c rel errs: {e1:.2e} (0.5,0.5,3), {e2:.2e} (0.5,1,5), "
             f"{e3:.2e} (validation)")


def test_criterion_07_time_integral(params_ref, cache_dir):
    cfg = VerifyConfig(
        params=params_ref,
        forcing=ForcingSpec("gaussian", gamma=0.5, dim=3),
        theorem="constant",
        times=(1e2, 1e3, 1e4),
        tolerance=1e-2,
        cache_dir=cache_dir,
    )
    rep = run_check(cfg)
    series = rep.normalized_errors
    ok = _decreasing(series) and series[-1] <= 1e-2 and rep.verdict == "pass"
    _verdict(7, "time-integral", ok,
             "T-series " + ", ".join(f"{e:.3e}" for e in series))


def test_criterion_08_norm_law(params_ref, cache_dir):
    details, ok = [], True
    for p in (1.0, 1.2):
        cfg = VerifyConfig(
            params=params_ref,
            forcing=ForcingSpec("gaussian", gamma=0.5, dim=3),
            theorem="kernel-bounds",
            p=p,
            times=(1e2, 1e3, 1e4),
            cache_dir=cache_dir,
        )
        with pytest.warns(ExtrapolationWarning):  # [1e-9, 1e9] beyond the grid
            rep = run_check(cfg)
        err = rep.notes["slope_relative_error"]
        details.append(f"p={p:g}: slope {rep.slope:.5f} (rel {err:.2e})")
        ok = ok and err < 1e-2 and rep.verdict == "pass"
    _verdict(8, "norm-law", ok, "; ".join(details))


def test_criterion_09_duhamel_gate():
    alpha = 0.5
    worst = 0.0
    for t in (1.0, 1e2, 1e4):
        lam_lo, lam_hi, _, _, spline = _build_w_table(alpha, 0.0, t)
        exact = time_weight(alpha, 0.0, t)
        lam = np.geomspace(lam_lo, lam_hi, 1200)
        rel = np.max(np.abs(np.exp(spline(np.log(lam))) / exact(lam) - 1.0))
        worst = max(worst, float(rel))
    ok = worst <= 1e-6
    _verdict(9, "duhamel-gate", ok, f"max rel err vs closed form {worst:.2e}")


def test_criterion_10_compact_sets(params_ref, cache_dir):
    cfg = VerifyConfig(
        params=params_ref,
        forcing=ForcingSpec("gaussian", gamma=2.0, dim=3),
        theorem="compact",
        p=math.inf,
        scale=ScaleSpec(kind="compact", radius=1.0),
        times=(1e2, 1e3, 1e4),
        tolerance=5e-2,
        cache_dir=cache_dir,
    )
    rep = run_check(cfg)
    series = rep.normalized_errors
    ok = rep.verdict == "pass" and _decreasing(series) and series[-1] <= 5e-2
    _verdict(10, "compact-sets", ok,
             "errors " + ", ".join(f"{e:.3e}" for e in series))


def test_criterion_11_intermediate(params_ref, cache_dir):
    # phi(t) = t^{theta/2}; convergence on these scales is slow (the kernel
    # leaves its kappa power law at xi ~ t^{-theta/2}), so the checkpoints
    # extend to t = 1e8
    details, ok = [], True
    power_law_err = 0.0
    for gamma, label in ((0.5, "S"), (2.0, "F")):
        cfg = VerifyConfig(
            params=params_ref,
            forcing=ForcingSpec("gaussian", gamma=gamma, dim=3),
            theorem="intermediate",
            p=1.0,
            scale=ScaleSpec(kind="intermediate", exponent=0.25, nu=1.0, mu=2.0),
            times=(1e4, 1e6, 1e8),
            tolerance=5e-2,
            cache_dir=cache_dir,
        )
        rep = run_check(cfg)
        series = rep.normalized_errors
        ok = ok and rep.verdict == "pass" and series[-1] <= 5e-2
        details.append(f"{label}: " + ", ".join(f"{e:.3e}" for e in series))
        for entry in rep.notes["annulus_power_law"].values():
            power_law_err = max(power_law_err, abs(entry["measured"] - entry["exact"]))
    ok = ok and power_law_err <= 1e-3
    _verdict(11, "intermediate-scales", ok,
             "; ".join(details) + f"; annulus exponent err {power_law_err:.1e}")


def test_criterion_12_outer(params_ref, cache_dir):
    cfg = VerifyConfig(
        params=params_ref,
        forcing=ForcingSpec("gaussian", gamma=2.0, dim=3),
        theorem="outer-mass",
        p=1.0,
        scale=ScaleSpec(kind="outer", nu=1.0),
        times=(1e2, 1e3, 1e4),
        tolerance=5e-2,
        cache_dir=cache_dir,
    )
    rep = run_check(cfg)
    series = rep.normalized_errors
    scalar_final = rep.notes["scalar_series"][-1]
    ok = (
        rep.verdict == "pass"
        and _decreasing(series)
        and series[-1] <= 5e-2
        and scalar_final <= 1e-2
    )
    _verdict(12, "outer-scales", ok,
             "kernel " + ", ".join(f"{e:.3e}" for e in series)
             + f"; scalar at 1e4 {scalar_final:.3e}")


def test_criterion_13_log_law(cache_dir):
    # scalar quadrature only; the log correction converges at rate 1/log t, so
    # the subdiffusive exponent is taken near the classical end where the
    # prefactor is small enough to clear the tolerance at t = 1e6
    params = FracParams(0.9, 0.5, 3)
    cfg = VerifyConfig(
        params=params,
        forcing=ForcingSpec("gaussian", gamma=1.0, dim=3),
        theorem="outer-log",
        scale=ScaleSpec(kind="outer", nu=1.0),
        times=(1e4, 1e5, 1e6),
        tolerance=5e-2,
        cache_dir=cache_dir,
    )
    rep = run_check(cfg)
    series = rep.normalized_errors
    ok = rep.verdict == "pass" and series[-1] <= 5e-2
    _verdict(13, "log-law", ok, "scalar " + ", ".join(f"{e:.3e}" for e in series))


def test_criterion_14_coherence(params_ref, cache_dir):
    cfg = VerifyConfig(
        params=params_ref,
        forcing=ForcingSpec("gaussian", gamma=0.5, dim=3),
        theorem="coherence",
        scale=ScaleSpec(kind="outer"),
        times=(1e2, 1e3, 1e4),  # paired with xi = 1e-1, 1e-1.5, 1e-2
        tolerance=5e-2,
        cache_dir=cache_dir,
    )
    rep = run_check(cfg)
    final = rep.normalized_errors[-1]
    ok = rep.verdict == "pass" and final <= 5e-2
    _verdict(14, "coherence", ok,
             "ratio errors " + ", ".join(f"{e:.3e}" for e in rep.normalized_errors))


def test_criterion_15_riesz_tails():
    grid = RadialGrid(1e-2, 200.0, 640)
    g = RadialFunction(grid, np.exp(-grid.nodes**2))
    ghat = lambda r: math.pi**1.5 * np.exp(-np.asarray(r, dtype=float) ** 2 / 4.0)
    pot = riesz_potential(g, 2.0, 3, grid=grid, ghat=ghat)
    # far field: r I_2[g](r) -> mass = pi^{3/2}
    far = 50.0 * float(pot(50.0))
    far_err = abs(far / math.pi**1.5 - 1.0)
    # near/mid field: the erf closed form
    r = np.geomspace(0.1, 50.0, 120)
    ref = math.pi**1.5 * erf(r) / r
    erf_err = float(np.max(np.abs(pot(r) - ref) / ref))
    rep = riesz_tail_check(
        g, 2.0, 3, 1.0, nu=1.0, mu_outer=2.0, R_list=[5.0, 10.0, 20.0], ghat=ghat
    )
    ok = (
        far_err <= 1e-2
        and erf_err <= 1e-5
        and _decreasing(rep.normalized_errors)
        and rep.verdict == "pass"
    )
    _verdict(15, "riesz-tails", ok,
             f"r*I2 rel {far_err:.2e}, erf match {erf_err:.2e}, annulus "
             + ", ".join(f"{e:.2e}" for e in rep.normalized_errors))
