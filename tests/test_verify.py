import math

import numpy as np
import pytest

from fracasym import kernels
from fracasym.params import (
    FracParams,
    ScaleSpec,
    classify_scale,
    rate_intermediate,
    rate_outer,
)
from fracasym.potentials import riesz_constant
from fracasym.radialtransform import ExtrapolationWarning, RadialGrid
from fracasym.solver import ForcingSpec
from fracasym.verify import (
    VerifyConfig,
    VerifyError,
    limit_profile_compact,
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


def test_unknown_theorem():
    cfg = _cfg()
    cfg.theorem = "bogus"
    with pytest.raises(VerifyError):
        run_check(cfg)


def test_zero_forcing_trivial_reports(cache_dir):
    zero = ForcingSpec("gaussian", gamma=0.5, amplitude=0.0, dim=3)
    for theorem, scale in [
        ("compact", ScaleSpec(kind="compact")),
        ("intermediate", ScaleSpec(kind="intermediate", exponent=0.25)),
        ("outer-general", ScaleSpec(kind="outer")),
    ]:
        rep = run_check(
            _cfg(forcing=zero, theorem=theorem, scale=scale, cache_dir=cache_dir)
        )
        assert rep.passed
        assert all(e == 0.0 for e in rep.normalized_errors)
    rep = run_check(_cfg(forcing=zero, theorem="coherence", scale=ScaleSpec(kind="outer")))
    assert rep.verdict == "not-applicable"


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


def test_compact_check_passes(cache_dir):
    rep = run_check(_cfg(theorem="compact", cache_dir=cache_dir))
    assert rep.verdict == "pass"
    assert rep.normalized_errors[-1] < rep.tolerance
    assert rep.normalized_errors[0] > rep.normalized_errors[-1]


def test_coherence_check_passes(cache_dir):
    rep = run_check(
        _cfg(theorem="coherence", scale=ScaleSpec(kind="outer"), cache_dir=cache_dir)
    )
    assert rep.verdict == "pass"


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


def test_constant_identity(cache_dir, g_profile_ref):
    rep = run_check(
        _cfg(theorem="constant", tolerance=1e-2, cache_dir=cache_dir)
    )
    assert rep.verdict == "pass"
    assert rep.notes["A_relative_error"] < 1e-3
    assert rep.notes["c_2beta"] == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-12)


def test_kernel_bounds(cache_dir, g_profile_ref):
    # the norms integrate over [1e-9, 1e9], beyond the [1e-3, 1e5] grid
    with pytest.warns(ExtrapolationWarning):
        rep = run_check(_cfg(theorem="kernel-bounds", p=1.0, cache_dir=cache_dir))
    assert rep.verdict == "pass"
    # L^1 norm of the kernel decays like t^{alpha-1}: slope -(1 - alpha)
    assert rep.slope == pytest.approx(-0.5, abs=1e-2)
    assert rep.notes["bounds"]["interior_pass"]
    assert rep.notes["bounds"]["exterior_pass"]


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
    from fracasym.params import rate_intermediate, classify_scale

    cfg = _cfg(
        theorem="intermediate",
        scale=ScaleSpec(kind="intermediate", exponent=0.25),
        cache_dir=cache_dir,
    )
    rep = run_check(cfg)
    klass = classify_scale(cfg.forcing.gamma, cfg.params, cfg.scale)
    for t, pn in zip(cfg.times, rep.notes["profile_norms"]):
        rate = rate_intermediate(cfg.params, cfg.p, cfg.forcing.gamma, klass, cfg.scale.phi(t), t)
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
            if theorem == "intermediate":
                klass = classify_scale(gamma, params, scale)
                rate = rate_intermediate(params, cfg.p, gamma, klass, scale.phi(t), t)
            else:
                rate = rate_outer(params, cfg.p, gamma, t)
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


def test_cross_regime_coherence_of_compact_profile(cache_dir):
    # for gamma < 1 + alpha the compact limit is c_{2b} I_{2b}[g]; far out it
    # must match the inner edge of the outer description:
    # rho^{N-2b} L(rho) -> M0 c_{2b}
    cfg = _cfg(cache_dir=cache_dir, grid=RadialGrid(1e-3, 1e3, 768))
    L = limit_profile_compact(cfg)
    rho = 50.0
    c2b = riesz_constant(1.0, 3)
    got = rho**2.0 * float(L(rho)) / (cfg.forcing.M0 * c2b)
    assert got == pytest.approx(1.0, abs=5e-2)


def test_report_serialization(tmp_path, cache_dir):
    rep = run_check(_cfg(theorem="coherence", scale=ScaleSpec(kind="outer"), cache_dir=cache_dir))
    path = str(tmp_path / "report.json")
    rep.save(path)
    import json

    with open(path) as fh:
        data = json.load(fh)
    assert data["verdict"] == rep.verdict
    assert data["checkpoints"] == list(rep.checkpoints)
    assert (tmp_path / "report.csv").exists()
