import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import run_all_checks
from fracasym import kernels, radialtransform, solver, special, verify
from fracasym.params import (
    FracParams,
    ScaleSpec,
    classify_scale,
    rate_at,
    sharp_rate,
)
from fracasym.potentials import riesz_constant, riesz_potential
from fracasym.radialtransform import (
    ExtrapolationWarning,
    RadialGrid,
    radial_fourier_inverse,
    radial_integral,
)
from fracasym.solver import ForcingSpec, solution_mass, time_weight
from fracasym.special import mittag_leffler
from fracasym.verify import (
    VerifyConfig,
    VerifyError,
    run_check,
)


def _cfg(**kw):
    defaults = dict(
        params=FracParams(0.5, 0.5, 3),
        forcing=ForcingSpec("gaussian", gamma=0.5, dim=3),
        theorem="compact",
        scale=ScaleSpec(kind="compact"),
    )
    defaults.update(kw)
    return VerifyConfig(**defaults)


def test_config_validation():
    with pytest.raises(VerifyError):
        _cfg(times=(100.0,))  # need at least two checkpoints
    with pytest.raises(VerifyError):
        _cfg(times=(100.0, 500.0))  # ratio below 10
    with pytest.raises(VerifyError):
        _cfg(forcing=ForcingSpec("gaussian", gamma=0.5, dim=5))  # dim mismatch
    with pytest.raises(VerifyError):
        _cfg(p=0.5)  # L^p norms need p >= 1
    with pytest.raises(VerifyError):
        _cfg(times=(1.0, 10.0, 100.0))  # log t = 0 at the first checkpoint
    # a NaN fails every comparison, so it passed the ratio and t > 1 tests
    for times in ((1e2, math.nan, 1e4), (1e2, 1e3, math.inf), (math.nan, 1e3)):
        with pytest.raises(VerifyError, match="finite"):
            _cfg(times=times)
    # a NaN or non-positive tolerance fails every check, an infinite one
    # passes every check
    for tolerance in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(VerifyError, match="tolerance must be finite and positive"):
            _cfg(tolerance=tolerance)


def test_coherence_refusals(monkeypatch):
    # coherence pairs its three xi values with as many checkpoints, and reads
    # the reference at xi t^theta, which must lie on the grid: each is
    # refused before any transform
    def no_transform(*args, **kwargs):
        raise AssertionError("transform reached")

    monkeypatch.setattr(radialtransform._HankelEngine, "integrate", no_transform)
    coherence = lambda **kw: _cfg(theorem="coherence", scale=ScaleSpec(kind="outer"), **kw)
    for times in ((1e2, 1e3), (1e2, 1e3, 1e4, 1e5)):
        with pytest.raises(VerifyError, match="pairs 3 xi-values with as many times"):
            run_check(coherence(times=times))
    # theta = 1/2: the radii are 1e4 (beyond rho_max = 1e3), and 1 (below
    # rho_min = 10)
    for times, grid in (((1e10, 1e11, 1e12), RadialGrid()),
                        ((1e2, 1e3, 1e4), RadialGrid(10.0, 1e3, 64))):
        with pytest.raises(VerifyError, match="outside the grid"):
            run_check(coherence(times=times, grid=grid))


def test_kernel_bounds_refuses_alpha_one():
    # in validation mode G is bounded and has no kappa: nothing to bound
    cfg = _cfg(params=FracParams(1.0, 0.5, 3, validation_mode=True), theorem="kernel-bounds")
    with pytest.raises(VerifyError, match="alpha < 1 only"):
        run_check(cfg)


def test_unknown_theorem():
    cfg = _cfg()
    cfg.theorem = "bogus"
    # the library's own refusal, which the command line's parse never reaches
    with pytest.raises(VerifyError, match="unknown theorem 'bogus'; options: "):
        run_check(cfg)


def test_zero_forcing_trivial_reports(monkeypatch):
    # f = 0 has no profile and every normalized statement is vacuous or 0/0:
    # each check that reads the forcing refuses it before any transform.  The
    # engine's integrate is guarded too, since the checks transform through
    # radial_fourier_inverses
    def no_transform(*args, **kwargs):
        raise AssertionError("transform run before the precondition")

    monkeypatch.setattr(solver, "radial_fourier_inverse", no_transform)
    monkeypatch.setattr(radialtransform._HankelEngine, "integrate", no_transform)
    # the guard fires on a check that does transform
    with pytest.raises(AssertionError, match="transform run"):
        run_check(_cfg(grid=RadialGrid(1e-3, 1e3, 128)))
    for theorem, gamma, scale in [
        ("compact", 0.5, ScaleSpec(kind="compact")),
        ("intermediate", 0.5, ScaleSpec(kind="intermediate", exponent=0.25)),
        ("outer-general", 0.5, ScaleSpec(kind="outer")),
        ("outer-mass", 2.0, ScaleSpec(kind="outer")),
        ("outer-log", 1.0, ScaleSpec(kind="outer")),
        ("coherence", 0.5, ScaleSpec(kind="outer")),
    ]:
        zero = ForcingSpec("gaussian", gamma=gamma, amplitude=0.0, dim=3)
        with pytest.raises(VerifyError, match="nonzero forcing"):
            run_check(_cfg(forcing=zero, theorem=theorem, scale=scale))


def test_constant_runs_with_zero_forcing(cache_dir):
    # the constant identity never reads the forcing
    zero = ForcingSpec("gaussian", gamma=0.5, amplitude=0.0, dim=3)
    assert run_check(_cfg(forcing=zero, theorem="constant", cache_dir=cache_dir)).passed


@pytest.mark.parametrize("theorem", ["constant", "kernel-bounds"])
def test_kernel_profile_checks_use_the_config_grid(theorem, monkeypatch):
    class Built(Exception):
        pass

    seen = []

    def record(params, grid=None, cache_dir=None):
        seen.append(grid)
        raise Built

    monkeypatch.setattr(kernels, "build_y_profile", record)
    grid = RadialGrid(1e-3, 1e3, 128)
    with pytest.raises(Built):
        run_check(_cfg(theorem=theorem, grid=grid))
    assert seen == [grid]


def test_gamma_preconditions():
    with pytest.raises(VerifyError):
        run_check(_cfg(theorem="outer-mass", scale=ScaleSpec(kind="outer")))  # gamma=0.5
    with pytest.raises(VerifyError):
        run_check(_cfg(theorem="outer-log", scale=ScaleSpec(kind="outer")))
    with pytest.raises(VerifyError):
        run_check(
            _cfg(
                theorem="coherence",
                forcing=ForcingSpec("gaussian", gamma=2.0, dim=3),
                scale=ScaleSpec(kind="outer"),
            )
        )


@pytest.mark.parametrize("theorem, gamma",
                         [("outer-general", 0.5), ("outer-mass", 2.0), ("outer-log", 1.0)])
def test_exterior_checks_need_an_outer_scale(monkeypatch, theorem, gamma):
    # their norms are divided by the sharp rate of their scale, so a compact
    # one is refused before the transform.  outer-log runs at the battery's
    # point, where no exterior starts inside the grid and its kernel
    # comparison is empty: it once passed there on a compact scale
    def no_transform(*args, **kwargs):
        raise AssertionError("transformed before the precondition")

    monkeypatch.setattr(verify, "radial_fourier_inverses", no_transform)
    forcing = ForcingSpec("gaussian", gamma=gamma, dim=3)
    point = (dict(params=FracParams(0.9, 0.5, 3), times=(1e4, 1e5, 1e6))
             if theorem == "outer-log" else {})
    with pytest.raises(VerifyError, match="outer scale"):
        run_check(_cfg(theorem=theorem, forcing=forcing, grid=RadialGrid(1e-3, 1e3, 128),
                       **point))


def _forbid_transforms(monkeypatch):
    """Fail the test on any inverse transform: the refusal must come first."""
    def no_transform(*args, **kwargs):
        raise AssertionError("transformed before the precondition")

    monkeypatch.setattr(verify, "radial_fourier_inverses", no_transform)
    monkeypatch.setattr(radialtransform._HankelEngine, "integrate", no_transform)


@pytest.mark.parametrize("radius", [1e-4, 1e-3])
def test_compact_ball_inside_the_grid_start_is_refused(monkeypatch, radius):
    # the ball [rho_min, K] is empty for K <= rho_min = 1e-3; it once ran a
    # full transform pass and then failed in the norm (need 0 <= a < b)
    _forbid_transforms(monkeypatch)
    with pytest.raises(VerifyError, match="compact region .* misses the grid"):
        run_check(_cfg(scale=ScaleSpec(kind="compact", radius=radius)))


# the scale record each annulus check writes: (gamma, scale, its items in
# key order); the outer ones add the truncation radius rho_max
_RECORDS = {
    "compact": (0.5, ScaleSpec(kind="compact", radius=2.0),
                [("kind", "compact"), ("radius", 2.0)]),
    "intermediate": (0.5, ScaleSpec(kind="intermediate", exponent=0.25, nu=1.5, mu=3.0),
                     [("kind", "intermediate"), ("class", "S"), ("exponent", 0.25),
                      ("log_exponent", 0.0), ("nu", 1.5), ("mu", 3.0)]),
    "outer-general": (0.5, ScaleSpec(kind="outer", nu=1.5), [("kind", "outer"), ("nu", 1.5)]),
    "outer-mass": (2.0, ScaleSpec(kind="outer", nu=1.5), [("kind", "outer"), ("nu", 1.5)]),
    "outer-log": (1.0, ScaleSpec(kind="outer", nu=1.5), [("kind", "outer"), ("nu", 1.5)]),
}


@pytest.mark.parametrize("theorem", sorted(_RECORDS))
def test_annulus_check_scale_record(monkeypatch, theorem):
    gamma, scale, items = _RECORDS[theorem]
    grid = RadialGrid(1e-3, 1e3, 128)
    forcing = ForcingSpec("gaussian", gamma=gamma, dim=3)
    rep = run_check(_cfg(theorem=theorem, forcing=forcing, scale=scale, grid=grid))
    assert list(rep.scale.items()) == items
    assert rep.truncation_radius == (1e3 if scale.kind == "outer" else None)
    assert list(rep.to_dict()["scale"].items()) == items
    # a scale of either other kind is refused before any transform
    _forbid_transforms(monkeypatch)
    for kind in {"compact", "intermediate", "outer"} - {scale.kind}:
        other = ScaleSpec(kind=kind, exponent=0.25)
        with pytest.raises(VerifyError, match=f"{theorem} requires the {scale.kind} scale"):
            run_check(_cfg(theorem=theorem, forcing=forcing, scale=other, grid=grid))


class _Norms:
    """A stand-in for kernel-bounds' transform at time t, whose L^p norm is
    t^{-sigma_p} exactly."""

    def __init__(self, t):
        self.t = t

    def tail(self, inner):
        return None


def _clause_case(monkeypatch, theorem, holds):
    """A config of `theorem` whose series passes, with the check's own
    clause made to hold or not."""
    times = (1e2, 1e3, 1e4)
    if theorem == "outer-mass":
        scalar = [3e-1, 2e-1, 1e-1] if holds else [1e-1, 2e-1, 1e-3]
        monkeypatch.setattr(verify, "_mass_law", lambda cfg, kt: (scalar, [1.0] * 3,
                                                                   [1e-1, 1e-2, 1e-3]))
        return _cfg(theorem=theorem, forcing=ForcingSpec("gaussian", gamma=2.0, dim=3),
                    scale=ScaleSpec(kind="outer"))
    c2b = riesz_constant(1.0, 3)
    bounds = {f"{b}_pass": True for b in ("interior", "exterior", "global")}
    bounds["kappa_pass"] = holds
    profile = type("Profile", (), dict(constant_A=c2b * (1.0 if holds else 1.002),
                                       bound_report=bounds, kappa=0.0))
    monkeypatch.setattr(verify, "_y_profile", lambda cfg: profile)
    monkeypatch.setattr(verify, "_y_time_integral", lambda profile, T: c2b * (1.0 + 1.0 / T))
    monkeypatch.setattr(verify, "radial_fourier_inverses",
                        lambda symbols, n, grid: [_Norms(t) for t in times])
    monkeypatch.setattr(verify, "lp_norm_annulus", lambda u, p, n, a, b: u.t**-0.5)
    return _cfg(theorem=theorem, times=times)


@pytest.mark.parametrize("holds", [True, False])
@pytest.mark.parametrize("theorem", ["outer-mass", "constant", "kernel-bounds"])
def test_a_checks_own_clause_decides_with_its_series(monkeypatch, theorem, holds):
    # outer-mass's decreasing scalar law, constant's |A/c_{2b} - 1| < 1e-3 and
    # kernel-bounds' profile bounds join the series rule in make_report
    rep = run_check(_clause_case(monkeypatch, theorem, holds))
    assert rep.verdict == ("pass" if holds else "fail")


def test_compact_check_passes(cache_dir):
    rep = run_check(_cfg(theorem="compact", cache_dir=cache_dir))
    assert rep.verdict == "pass"
    assert rep.normalized_errors[-1] < rep.tolerance
    assert rep.normalized_errors[0] > rep.normalized_errors[-1]


def test_coherence_check_passes(battery, battery_reports, cache_dir):
    # the battery's config, whose report the session holds
    cfg = _cfg(theorem="coherence", scale=ScaleSpec(kind="outer"), cache_dir=cache_dir)
    assert cfg == battery["coherence"]
    assert battery_reports["coherence"].verdict == "pass"


def test_outer_log_kernel_comparison_runs(cache_dir):
    # the exterior comparison runs where t <= 1e4 and nu t^theta <= rho_max/2
    rep = run_check(
        _cfg(
            theorem="outer-log",
            forcing=ForcingSpec("gaussian", gamma=1.0, dim=3),
            scale=ScaleSpec(kind="outer"),
            times=(1e2, 1e3),
            grid=RadialGrid(1e-3, 1e3, 128),
            cache_dir=cache_dir,
        )
    )
    assert rep.notes["kernel_times"] == [1e2, 1e3]
    series = rep.notes["kernel_series"]
    assert all(math.isfinite(v) and v > 0 for v in series)
    assert all(b < a for a, b in zip(series[:-1], series[1:]))


def test_constant_identity(battery, battery_reports, cache_dir):
    # the battery's config, whose report the session holds
    cfg = _cfg(theorem="constant", tolerance=1e-2, cache_dir=cache_dir)
    assert cfg == battery["constant"]
    rep = battery_reports["constant"]
    assert rep.verdict == "pass"
    assert rep.notes["A_relative_error"] < 1e-3
    assert rep.notes["c_2beta"] == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-12)


def test_kernel_bounds(battery, battery_reports, cache_dir):
    # the battery's config, whose report the session holds; the norms
    # integrate over [1e-9, 1e9], beyond the [1e-3, 1e5] grid, and the
    # fixture holds the ExtrapolationWarning that says so
    cfg = _cfg(theorem="kernel-bounds", p=1.0, cache_dir=cache_dir)
    assert cfg == battery["kernel-bounds"]
    rep = battery_reports["kernel-bounds"]
    assert rep.verdict == "pass"
    # L^1 norm of the kernel decays like t^{alpha-1}: slope -(1 - alpha)
    assert rep.slope == pytest.approx(-0.5, abs=1e-2)
    assert rep.notes["bounds"]["interior_pass"]
    assert rep.notes["bounds"]["exterior_pass"]
    # the report says what each norm takes from the fitted tails: 2.26e-4,
    # 7.14e-4 and 2.26e-3 of it at t = 1e2, 1e3, 1e4, with the exponents of
    # G(., t), rho^{-1} at the origin and rho^{-4} at infinity
    beyond = rep.notes["beyond_grid"]
    assert [b["t"] for b in beyond] == [1e2, 1e3, 1e4]
    assert [b["share"] for b in beyond] == pytest.approx([2.26e-4, 7.14e-4, 2.26e-3], rel=5e-3)
    for b in beyond:
        assert b["tails"] == "fitted"
        assert b["inner_exponent"] == pytest.approx(-1.0, abs=1e-3)
        assert b["outer_exponent"] == pytest.approx(-4.0, abs=1e-3)


def _exact_slope(x, y):
    """The least-squares slope of the float data, in rational arithmetic."""
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return float(sum((a - mx) * (b - my) for a, b in zip(xs, ys))
                 / sum((a - mx) ** 2 for a in xs))


def test_every_straight_line_fit_is_polyfit_to_rounding(
        battery, battery_reports, run_battery, g_profile_ref, monkeypatch):
    # each fit the package makes, on the data it makes it on: the bounds'
    # two, the tails', the annulus power law, kernel-bounds' norm law and
    # every report's slope.  The closed form is within a few ulp of numpy's
    # LAPACK least squares and within 1 ulp of the exact slope, where polyfit
    # was up to 10 ulp from it
    fit, fits = special.lsq_slope, []

    def recorded(x, y):
        fits.append((sys._getframe(1).f_code.co_name, np.array(x, float), np.array(y, float)))
        return fit(x, y)

    for module in (special, kernels, radialtransform, verify):
        monkeypatch.setattr(module, "lsq_slope", recorded)
    kernels.validate_bounds(g_profile_ref)
    run_battery([(label, battery[label]) for label in ("intermediate-S", "kernel-bounds")])
    monkeypatch.undo()
    assert {name for name, _, _ in fits} == {
        "validate_bounds", "make_report", "_annulus_power_law", "_fit_exponent",
        "verify_kernel_estimates"}
    series = {label: (np.log(rep.checkpoints), np.log(rep.normalized_errors))
              for label, rep in battery_reports.items()
              if rep.slope is not None and len(rep.normalized_errors) > 1}
    assert {label: battery_reports[label].slope for label in series} == {
        label: fit(*xy) for label, xy in series.items()}
    fits += [(label, *xy) for label, xy in series.items()]
    eps = np.finfo(float).eps
    for name, x, y in fits:
        got, ref = fit(x, y), np.polyfit(x, y, 1)[0]
        scale = max(abs(ref), math.sqrt(np.sum((y - y.mean()) ** 2) / np.sum((x - x.mean()) ** 2)))
        assert abs(got - ref) <= 16 * eps * scale, name
        exact = _exact_slope(x, y)
        assert abs(got - exact) <= math.ulp(exact), name


@pytest.mark.parametrize("p", [3.0, math.inf])
def test_kernel_bounds_rejects_p_at_or_above_p_star(p, monkeypatch):
    # G ~ kappa rho^{4b-N} is not in L^p for p >= p_* = N/(N - 4b) = 3 at
    # (0.5, 0.5, 3); the check refuses before it builds any profile
    def no_build(*args, **kwargs):
        raise AssertionError("profile built before the precondition")

    monkeypatch.setattr(kernels, "build_y_profile", no_build)
    with pytest.raises(VerifyError, match="p_"):
        run_check(_cfg(theorem="kernel-bounds", p=p))


def test_intermediate_normalization_bounded(cache_dir, g_profile_ref):
    # the normalized error divides by the sharp rate; the reported profile
    # norms confirm the rate has the same size as the profile itself (no
    # accidental normalization blow-up)
    cfg = _cfg(
        theorem="intermediate",
        scale=ScaleSpec(kind="intermediate", exponent=0.25),
        cache_dir=cache_dir,
    )
    rep = run_check(cfg)
    for t, pn in zip(cfg.times, rep.notes["profile_norms"]):
        rate = rate_at(cfg.params, cfg.p, cfg.forcing.gamma, cfg.scale, t)
        assert 1e-3 < pn / rate < 1e3
    # annulus norms of the Riesz kernels follow the exact power law
    for entry in rep.notes["annulus_power_law"].values():
        assert entry["measured"] == pytest.approx(entry["exact"], abs=1e-10)


def test_normalization_is_the_params_rate(cache_dir):
    # each annulus check divides its raw norm by the sharp rate of params
    grid = RadialGrid(1e-3, 1e3, 128)
    params = FracParams(0.5, 0.5, 3)
    for theorem, gamma, scale in (
        ("intermediate", 0.5, ScaleSpec(kind="intermediate", exponent=0.25)),
        ("outer-general", 0.5, ScaleSpec(kind="outer")),
        ("outer-mass", 2.0, ScaleSpec(kind="outer")),
    ):
        cfg = _cfg(
            theorem=theorem, forcing=ForcingSpec("gaussian", gamma=gamma, dim=3),
            scale=scale, grid=grid, cache_dir=cache_dir,
        )
        rep = run_check(cfg)
        assert all(e > 0 for e in rep.raw_errors)
        for t, raw, norm in zip(cfg.times, rep.raw_errors, rep.normalized_errors):
            rate = rate_at(params, cfg.p, gamma, scale, t)
            assert norm == pytest.approx(raw / rate, rel=1e-14)


def test_compact_and_intermediate_take_kappa_from_params(monkeypatch):
    # the kappa of the E_{4b} profiles is the closed form: compact at
    # gamma = 2 > 1 + alpha and intermediate class F build no G profile
    def no_profile(*args, **kwargs):
        raise AssertionError("G profile built")

    monkeypatch.setattr(kernels, "build_y_profile", no_profile)
    grid = RadialGrid(1e-3, 1e3, 128)
    forcing = ForcingSpec("gaussian", gamma=2.0, dim=3)
    for theorem, scale in (
        ("compact", ScaleSpec(kind="compact", radius=1.0)),
        ("intermediate", ScaleSpec(kind="intermediate", exponent=0.25, nu=1.0, mu=2.0)),
    ):
        rep = run_check(_cfg(theorem=theorem, forcing=forcing, scale=scale, grid=grid))
        assert all(math.isfinite(e) and e > 0 for e in rep.raw_errors)
    assert rep.scale["class"] == "F"


def _compact_limit(cfg):
    """The compact limit L that verify_compact compares against: amplitude
    g-hat times the check's own Riesz symbol, inverted."""
    fs = cfg.forcing
    riesz = verify._compact_limit_symbol(cfg.params, fs.gamma)
    return radial_fourier_inverse(
        lambda r: fs.amplitude * fs.ghat(r) * riesz(r), cfg.params.dim, cfg.grid)


def test_cross_regime_coherence_of_compact_profile(cache_dir):
    # for gamma < 1 + alpha the compact limit is c_{2b} I_{2b}[g]; far out it
    # must match the inner edge of the outer description:
    # rho^{N-2b} L(rho) -> M0 c_{2b}
    cfg = _cfg(cache_dir=cache_dir, grid=RadialGrid(1e-3, 1e3, 768))
    L = _compact_limit(cfg)
    rho = 50.0
    c2b = riesz_constant(1.0, 3)
    got = rho**2.0 * float(L(rho)) / (cfg.forcing.M0 * c2b)
    assert got == pytest.approx(1.0, abs=5e-2)


@pytest.mark.parametrize("gamma", [1.2, 1.5, 2.0])
def test_compact_limit_matches_riesz_potentials(gamma):
    # an independent route to the compact limit: the Riesz potentials of
    # amplitude g, c_{2b} I_{2b}[g] below 1 + alpha, plus (kappa/alpha)
    # I_{4b}[g] at it, and (kappa/(gamma-1)) I_{4b}[g] above
    fs = ForcingSpec("gaussian", gamma=gamma, dim=3, amplitude=1.7)
    cfg = _cfg(forcing=fs)
    params = cfg.params
    kappa = kernels.estimate_kappa(params)
    ghat = lambda r: fs.amplitude * fs.ghat(r)
    I2, I4 = (riesz_potential(None, k * params.beta, 3, cfg.grid, ghat=ghat).samples
              for k in (2.0, 4.0))
    c2b = riesz_constant(2.0 * params.beta, 3)
    if gamma < 1.5:
        want = c2b * I2
    elif gamma == 1.5:
        want = c2b * I2 + (kappa / params.alpha) * I4
    else:
        want = (kappa / (gamma - 1.0)) * I4
    got = _compact_limit(cfg).samples
    assert np.array_equal(got == 0.0, want == 0.0)
    nonzero = want != 0.0
    assert np.all(np.abs(got[nonzero] / want[nonzero] - 1.0) <= 1e-15)


def test_mass_convolution_reference_mass():
    # coherence's reference, the Duhamel symbol with amplitude g-hat replaced
    # by M0, carries the same total mass as u
    fs = ForcingSpec("gaussian", gamma=1.5, dim=3)
    cfg = _cfg(forcing=fs, grid=RadialGrid(1e-3, 1e3, 512))
    symbols = solver.duhamel_symbols(fs, cfg.params, (100.0,), spatial=lambda r: fs.M0)
    ref = radial_fourier_inverse(lambda r: next(symbols(r)), 3, cfg.grid)
    assert radial_integral(ref, 3) == pytest.approx(
        solution_mass(fs, cfg.params, 100.0), rel=1e-3
    )


# --- one engine pass per check ------------------------------------------------

# the battery's checks that transform: the constant check runs no transform,
# and outer-log's kernel comparison has no checkpoint at the battery point
_BATCHED = {label: cfg for label, cfg in run_all_checks.configs()
            if cfg.theorem not in ("constant", "outer-log")}


def _per_t_symbol(cfg, t):
    """The check's symbol at checkpoint t alone, as each check formed it one
    t at a time: a reference for the batched symbols."""
    fs, params = cfg.forcing, cfg.params
    a, two_b, n = params.alpha, 2.0 * params.beta, params.dim
    w = time_weight(a, fs.gamma, t)
    y_hat = lambda r: t ** (a - 1.0) * mittag_leffler(a, a, r**two_b * -(t**a))

    def difference(profile):
        def symbol(r):
            ag = fs.amplitude * fs.ghat(r)
            p = profile(r, ag)
            ag *= w(r**two_b)
            ag -= p
            return ag
        return symbol

    def riesz(c2, c4):
        terms = [(c / riesz_constant(k * params.beta, n), k * params.beta)
                 for c, k in ((c2, 2.0), (c4, 4.0)) if c]
        return lambda r: sum(c * r**-mu for c, mu in terms)

    theorem = cfg.theorem
    if theorem == "compact":
        limit = verify._riesz_profiles(
            params, [verify._limit_profile(params, fs.gamma, 1.0, 1.0, "compact")])[0]
        tm = t ** -sharp_rate(params, cfg.p, fs.gamma, cfg.scale)[0]
        return difference(lambda r, ag: ag * next(limit(r)) / tm)
    if theorem == "intermediate":
        klass = classify_scale(fs.gamma, params, cfg.scale)
        profile = riesz(*verify._limit_profile(params, fs.gamma, fs.M0, t, klass))
        return difference(lambda r, ag: profile(r))
    if theorem == "outer-general":
        return lambda r: fs.amplitude * (fs.ghat(r) - fs.mass_g) * w(r**two_b)
    if theorem == "outer-mass":
        amp = fs.M0 / (fs.gamma - 1.0)
        return difference(lambda r, ag: amp * y_hat(r))
    if theorem == "coherence":
        return lambda r: fs.M0 * w(r**two_b)
    return y_hat  # kernel-bounds


@pytest.mark.parametrize("label", sorted(_BATCHED))
def test_check_transforms_all_checkpoints_in_one_pass(label, monkeypatch):
    # one engine pass serves every checkpoint, and each of its outputs has
    # the bits of that checkpoint's symbol transformed on its own
    cfg = _BATCHED[label]
    kernels.build_y_profile(cfg.params, grid=cfg.grid)  # kernel-bounds reads G
    passes, batches = [], []
    integrate = radialtransform._HankelEngine.integrate
    inverses = verify.radial_fourier_inverses

    def counted(self, symbol, rho):
        passes.append(rho.size)
        return integrate(self, symbol, rho)

    def recorded(symbols, dim, grid=None):
        out = inverses(symbols, dim, grid)
        batches.append((out, grid))
        return out

    monkeypatch.setattr(radialtransform._HankelEngine, "integrate", counted)
    monkeypatch.setattr(verify, "radial_fourier_inverses", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)  # kernel-bounds
        run_check(cfg)
    assert len(passes) == 1 and len(batches) == 1
    monkeypatch.undo()
    batched, grid = batches[0]
    assert len(batched) == len(cfg.times)
    for t, u in zip(cfg.times, batched):
        single = radial_fourier_inverse(_per_t_symbol(cfg, t), 3, grid)
        assert np.array_equal(u.samples, single.samples)


def test_report_serialization(tmp_path, battery_reports):
    rep = battery_reports["coherence"]
    path = str(tmp_path / "report.json")
    rep.save(path)
    import json

    with open(path) as fh:
        data = json.load(fh)
    assert data["verdict"] == rep.verdict
    assert data["checkpoints"] == list(rep.checkpoints)
    assert (tmp_path / "report.csv").exists()
