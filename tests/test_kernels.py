import json
import math
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracasym import kernels, radialtransform, special, spline
from fracasym.params import FracParams
from fracasym.potentials import riesz_constant
from fracasym.radialtransform import RadialFunction, RadialGrid, _moment, radial_integral
from fracasym.special import mittag_leffler, ml_tail_coefficient

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_g_profile_mass_ref(g_profile_ref):
    # total integral of G equals its transform at 0: E_{a,a}(0) = 1/Gamma(a)
    mass = radial_integral(g_profile_ref.values, 3)
    assert mass == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-6)


def test_g_profile_mass_beta1(g_profile_beta1):
    mass = radial_integral(g_profile_beta1.values, 5)
    assert mass == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-9)


def test_f_profile_mass_beta1(params_beta1, cache_dir):
    # E_alpha(0) = 1; the exponential-type tail must survive the beta = 1 trim
    f = kernels.build_z_profile(params_beta1, cache_dir=cache_dir)
    assert radial_integral(f.values, 5) == pytest.approx(1.0, rel=1e-6)


def test_kappa_ref(g_profile_ref):
    # kappa = C * c_{4 beta} with C the Mittag-Leffler tail coefficient:
    # 0.2820948 / (4 pi) ~ 0.0224489 for (alpha, beta, N) = (0.5, 0.5, 3)
    expected = ml_tail_coefficient(0.5) * riesz_constant(2.0, 3)
    assert expected == pytest.approx(0.022448390, rel=1e-6)
    assert g_profile_ref.kappa == pytest.approx(expected, rel=1e-14)
    # rho^{N-4b} G / kappa - 1 at the first node: G's regular part, O(rho)
    assert abs(g_profile_ref.bound_report["kappa_error"]) < 2e-3


def test_kappa_beta1(g_profile_beta1):
    # 0.2820948 / (16 pi^2) ~ 0.0017865 for (0.5, 1, 5)
    expected = ml_tail_coefficient(0.5) * riesz_constant(4.0, 5)
    assert expected == pytest.approx(0.00178650, rel=1e-4)
    assert g_profile_beta1.kappa == pytest.approx(expected, rel=1e-14)
    assert abs(g_profile_beta1.bound_report["kappa_error"]) < 1e-3


def test_g_profile_without_a_flat_decade(cache_dir):
    # at (0.8, 0.6, 3) the symbol minus its r^{-4b} tail decays like r^{-6b},
    # integrable in N = 3, so G = kappa rho^{4b-N} + O(1) and rho^{N-4b} G /
    # kappa - 1 is O(rho^{0.6}): no decade is flat to 1%, yet G builds, as
    # kappa is a closed form
    params = FracParams(0.8, 0.6, 3)
    g = kernels.build_y_profile(params, cache_dir=cache_dir)
    mass = radial_integral(g.values, 3)
    assert abs(math.gamma(0.8) * mass - 1.0) < 1e-6
    assert abs(g.constant_A / riesz_constant(1.2, 3) - 1.0) < 1e-3
    assert g.bound_report["kappa_order"] == pytest.approx(0.6, abs=0.05)


def test_constant_A_ref(g_profile_ref):
    assert g_profile_ref.constant_A == pytest.approx(
        riesz_constant(1.0, 3), rel=1e-3
    )


def test_constant_A_beta1(g_profile_beta1):
    assert g_profile_beta1.constant_A == pytest.approx(
        riesz_constant(2.0, 5), rel=1e-3
    )


def test_constant_A_closed_form(params_ref):
    # planted G = exp(-rho^2) at (0.5, 0.5, 3): theta = 1/2 and
    # A = 2 int_0^inf rho exp(-rho^2) drho = 1 exactly
    grid = RadialGrid(1e-4, 50.0, 512)
    planted = kernels.KernelProfile(
        params=params_ref,
        which="G",
        values=RadialFunction(grid, np.exp(-grid.nodes**2)),
    )
    assert abs(kernels.constant_A(planted) - 1.0) < 1e-11


def test_constant_A_validation_mode(g_profile_heat):
    # alpha = beta = 1, N = 5: the identity A = c_2 = 1/(8 pi^2) holds with
    # classical kernels and is reproduced to quadrature accuracy
    assert g_profile_heat.constant_A == pytest.approx(
        1.0 / (8.0 * math.pi**2), rel=1e-6
    )


def test_validate_bounds_ref(g_profile_ref):
    report = g_profile_ref.bound_report
    assert report["interior_pass"]
    assert report["global_pass"]
    assert report["exterior_pass"]
    # algebraic tail G ~ rho^{-(N + 2 beta)} = rho^{-4}
    assert report["exterior_slope"] == pytest.approx(-4.0, rel=0.03)
    # interior two-sided bound: rho^{N-4b} G stays within a modest ratio
    assert report["interior_ratio"] < 3.0


def test_validate_bounds_beta1(g_profile_beta1):
    report = g_profile_beta1.bound_report
    assert report["interior_pass"]
    assert report["exterior_pass"]  # exponential-type tail: no slope clause
    assert report["exterior_slope"] is None


def test_heat_profiles(f_profile_heat, g_profile_heat):
    # alpha = 1: F-hat = G-hat = e^{-r^2}, so both slices are the Gaussian
    # (4 pi)^{-5/2} e^{-rho^2/4} with F(0+) ~ 0.0017865 and unit mass
    v = float(f_profile_heat.values(1e-3))
    assert v == pytest.approx((4.0 * math.pi) ** -2.5, rel=1e-6)
    assert radial_integral(f_profile_heat.values, 5) == pytest.approx(1.0, rel=1e-6)
    assert g_profile_heat.kappa is None  # singular-profile limit not applicable


def test_evaluate_Y_self_similarity(g_profile_ref):
    # Y(rho, t) = t^{-sigma_*} G(rho t^{-theta}) by definition; check the
    # scaling collapses two times onto the same profile point
    rho = 2.0
    t1, t2 = 4.0, 9.0
    y1 = kernels.evaluate_Y(g_profile_ref, rho, t1)
    # same similarity variable at the second time
    rho2 = rho * (t2 / t1) ** g_profile_ref.params.theta
    y2 = kernels.evaluate_Y(g_profile_ref, rho2, t2)
    ratio = (t2 / t1) ** -g_profile_ref.params.sigma_star
    assert float(y2) == pytest.approx(float(y1) * ratio, rel=1e-12)


def test_evaluate_Y_l1_law(g_profile_ref, params_ref):
    # int Y(., t) = t^{alpha-1}/Gamma(alpha): at t = 100, alpha = 1/2 this is
    # 0.1/sqrt(pi)
    t = 100.0
    grid = g_profile_ref.values.grid
    from fracasym.radialtransform import RadialFunction

    y = RadialFunction(grid, kernels.evaluate_Y(g_profile_ref, grid.nodes, t))
    got = radial_integral(y, 3)
    # the rescaled profile leans on the fitted power-law tails of G outside
    # the grid, so the accuracy here is tail-fit limited
    assert got == pytest.approx(0.1 / math.sqrt(math.pi), rel=2e-3)


def _g_half_half_3(rho):
    """G at (alpha, beta, N) = (1/2, 1/2, 3) in closed form, at 50 digits.

    The contour formula gives E_{1/2,1/2}(-y) = (1/pi) int_0^inf e^{-s}
    s^{1/2} / (s + y^2) ds, and in N = 3 the inverse transform of
    1/(|w|^2 + s) is e^{-sqrt(s) rho} / (4 pi rho).  With s = u^2 this is
    G = I_2 / (2 pi^2 rho), I_k = int_0^inf u^k e^{-u^2 - rho u} du, and
    integration by parts gives I_1 and I_2 from I_0.  No Hankel quadrature
    and no Mittag-Leffler evaluation: float64 would lose 2.5e-5 to
    cancellation at rho = 1e3, so it runs in mpmath."""
    with mpmath.workdps(50):
        r = mpmath.mpf(float(rho))
        i0 = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(r * r / 4) * mpmath.erfc(r / 2)
        i1 = (1 - r * i0) / 2
        i2 = (i0 - r * i1) / 2
        return i2 / (2 * mpmath.pi**2 * r)


def test_g_profile_closed_form_half_half_3(params_ref, g_profile_ref):
    # every default-grid node against the closed form: the one G route, to
    # rounding near the origin and to the Hankel sum's accuracy far out
    nodes = g_profile_ref.values.grid.nodes
    assert nodes.size == 768  # the default grid
    exact = np.array([float(_g_half_half_3(r)) for r in nodes])
    rel = np.abs(g_profile_ref.values.samples / exact - 1.0)
    assert rel[nodes <= 10.0].max() < 1e-13
    assert rel.max() < 1e-9
    # rho G -> I_2(0) / (2 pi^2) = sqrt(pi) / (8 pi^2), the closed-form kappa
    kappa = math.sqrt(math.pi) / (8.0 * math.pi**2)
    assert kernels.estimate_kappa(params_ref) == pytest.approx(kappa, rel=1e-15, abs=0.0)


def test_g_closed_form_integral_half_half_3():
    # the closed-form G samples through RadialFunction's log-log spline and
    # fitted tails: the integral is G-hat(0) = E_{1/2,1/2}(0) = 1/sqrt(pi),
    # within the same 1e-6 as the built profile (8.6e-7)
    grid = RadialGrid()
    g = RadialFunction(grid, [float(_g_half_half_3(r)) for r in grid.nodes])
    assert radial_integral(g, 3) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-6)


@pytest.mark.parametrize("alpha, beta, dim, gates", [
    # |relative error| of G at s = 0.3 and 0.7, then of F
    (0.5, 0.5, 3, (9.7e-8, 2.3e-7, 5.6e-7, 3.0e-5)),
    (0.5, 1.0, 5, (2.1e-14, 1.2e-12, 2.7e-13, 4.6e-10)),
    (0.5, 0.4, 3, (2.1e-5, 2.4e-6, 1.4e-5, 1.8e-4)),
    (0.5, 0.7, 3, (1.7e-8, 9.4e-8, 5.9e-8, 1.2e-5)),
])
def test_profile_mellin_moments(alpha, beta, dim, gates, cache_dir):
    # G's symbol is E_{a,a}(-lam), lam = r^{2 beta}, whose Mellin transform in
    # lam is Gamma(s) Gamma(1-s) / Gamma(a - a s); with the Riesz pair
    # |x|^{z-N} <-> r^{-z} / c_z that gives G's moment in closed form,
    #   int_0^inf G rho^{z-1} drho
    #     = (2 pi)^{-N} (2 beta c_z)^{-1} Gamma(s) Gamma(1-s) / Gamma(a - a s)
    # with s = (N - z) / (2 beta), and F's with Gamma(1 - a s) for E_a.  No
    # quadrature in the oracle; the error tracks the share of the moment that
    # lies beyond the grid, in the fitted tails, so each is gated at its
    # achieved level
    params = FracParams(alpha, beta, dim)
    errors = []
    for build, b in ((kernels.build_y_profile, alpha), (kernels.build_z_profile, 1.0)):
        profile = build(params, cache_dir=cache_dir)
        for s in (0.3, 0.7):
            z = dim - 2.0 * beta * s
            want = (math.gamma(s) * math.gamma(1.0 - s) / math.gamma(b - alpha * s)
                    / ((2.0 * math.pi) ** dim * 2.0 * beta * riesz_constant(z, dim)))
            errors.append(_moment(profile.values, z, 0.0, math.inf) / want - 1.0)
    assert np.all(np.abs(errors) < gates)


@given(
    a=st.floats(0.2, 0.9),
    lam=st.floats(0.05, 20.0),
    T=st.floats(0.5, 20.0),
)
@settings(max_examples=10)
def test_time_integral_identity(a, lam, T):
    # int_0^T t^{a-1} E_{a,a}(-lam t^a) dt = (1 - E_a(-lam T^a)) / lam,
    # cross-checked against adaptive quadrature of the left-hand side in the
    # substituted variable tau = t^a (removes the endpoint singularity)
    lhs, err = quad(
        lambda tau: mittag_leffler(a, a, -lam * tau) / a,
        0.0,
        T**a,
        limit=200,
    )
    rhs = (1.0 - mittag_leffler(a, 1.0, -lam * T**a)) / lam
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_cache_reuse(params_ref, tmp_path):
    cdir = str(tmp_path)
    p1 = kernels.build_y_profile(params_ref, cache_dir=cdir)
    p2 = kernels.build_y_profile(params_ref, cache_dir=cdir)  # loaded from disk
    assert np.array_equal(p1.values.samples, p2.values.samples)
    assert p2.kappa == pytest.approx(p1.kappa, rel=1e-14)
    assert p2.constant_A == pytest.approx(p1.constant_A, rel=1e-14)
    assert p2.bound_report["exterior_slope"] == pytest.approx(
        p1.bound_report["exterior_slope"], rel=1e-12
    )


def test_float_dim_names_and_records_as_the_int(params_ref, tmp_path):
    # N = 3.0 is the problem N = 3: one cache file pair, and "dim": 3 in
    # every record, not 3.0
    real = FracParams(0.5, 0.5, 3.0)
    assert real == params_ref and type(real.dim) is int
    assert json.dumps(real.as_dict()) == json.dumps(params_ref.as_dict())
    cdir = str(tmp_path)
    assert kernels._cache_path(real, "G", RadialGrid(), cdir) == kernels._cache_path(
        params_ref, "G", RadialGrid(), cdir)
    kernels.build_y_profile(params_ref, cache_dir=cdir)
    kernels.build_y_profile(real, cache_dir=cdir)
    assert len(os.listdir(cdir)) == 2
    with open(kernels._cache_path(real, "G", RadialGrid(), cdir)[: -len(".csv")] + ".json") as fh:
        assert '"dim": 3,' in fh.read()


class Rebuilt(Exception):
    pass


def _planted_profile(params, monkeypatch):
    """A profile to plant in a cache in place of a build; from here on any
    transform raises Rebuilt, so a cache miss shows without running one.  The
    in-process memo is emptied, so that a disk miss reaches the transform."""

    def no_transform(*args, **kwargs):
        raise Rebuilt

    monkeypatch.setattr(kernels, "radial_fourier_inverse", no_transform)
    kernels._profile.cache_clear()
    grid = RadialGrid()
    return kernels.KernelProfile(
        params=params,
        which="G",
        values=RadialFunction(grid, np.exp(-grid.nodes)),
    )


def test_cache_keys_exact_parameters(params_ref, tmp_path, monkeypatch):
    planted = _planted_profile(params_ref, monkeypatch)
    near = FracParams(0.5000001, 0.5, 3)
    cdir = str(tmp_path)
    ref_path = kernels._cache_path(params_ref, "G", RadialGrid(), cdir)
    near_path = kernels._cache_path(near, "G", RadialGrid(), cdir)
    assert near_path != ref_path
    assert "_a0.5_b0.5_N3_" in ref_path  # names of short decimals are unchanged

    planted.save(ref_path)
    hit = kernels.build_y_profile(params_ref, cache_dir=cdir)
    assert np.array_equal(hit.values.samples, planted.values.samples)
    # the same files under another request's name: the sidecar's alpha differs
    planted.save(near_path)
    with pytest.raises(Rebuilt):
        kernels.build_y_profile(near, cache_dir=cdir)


def test_cache_hit_matches_the_grid(params_ref, tmp_path, monkeypatch):
    # a profile on another grid saved under the default grid's file name: the
    # sidecar's identity matches, the grid does not
    _planted_profile(params_ref, monkeypatch)
    grid = RadialGrid(1e-2, 1e2, 256)
    other = kernels.KernelProfile(params_ref, "G", RadialFunction(grid, np.exp(-grid.nodes)))
    cdir = str(tmp_path)
    other.save(kernels._cache_path(params_ref, "G", RadialGrid(), cdir))
    with pytest.raises(Rebuilt):
        kernels.build_y_profile(params_ref, cache_dir=cdir)


def test_default_build_writes_no_file(params_heat, tmp_path, monkeypatch):
    # without cache_dir a profile lives in the process: nothing appears under
    # the home or the working directory, and a repeated call is a memo hit
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    kernels._profile.cache_clear()
    g = kernels.build_y_profile(params_heat)
    f = kernels.build_z_profile(params_heat)
    assert list(tmp_path.rglob("*")) == []
    assert kernels.build_y_profile(params_heat) is g
    assert kernels.build_z_profile(params_heat) is f


def test_cache_stale_engine_or_corrupt_file_is_a_miss(params_ref, tmp_path, monkeypatch):
    planted = _planted_profile(params_ref, monkeypatch)
    cdir = str(tmp_path)
    csv_path = kernels._cache_path(params_ref, "G", RadialGrid(), cdir)
    sidecar = pathlib.Path(csv_path).with_suffix(".json")
    planted.save(csv_path)
    hit = kernels.build_y_profile(params_ref, cache_dir=cdir)
    assert np.array_equal(hit.values.samples, planted.values.samples)
    stale = {**json.loads(sidecar.read_text()), "engine": "0" * 64}
    other = {**json.loads(sidecar.read_text()), "precision_bits": special.precision_bits() + 1}
    for path, text in [
        (sidecar, json.dumps(stale)),  # a profile built by other engine code
        (sidecar, json.dumps(other)),  # or in another extended precision
        (sidecar, "{"),  # truncated sidecar
        (csv_path, "rho,value\n1,"),  # truncated values
        (csv_path, ""),  # empty values file
        (csv_path, "rho,value\n0.001,x\n"),  # a value that is not a number
        (csv_path, "rho,value\n0.001,1,2\n0.002\n"),  # ragged rows
    ]:
        planted.save(csv_path)
        pathlib.Path(path).write_text(text)
        with pytest.raises(Rebuilt):
            kernels.build_y_profile(params_ref, cache_dir=cdir)


def test_engine_checksum_follows_each_source_and_file_names_the_exact_grid(
        params_ref, tmp_path, monkeypatch):
    # one byte appended to any engine source changes the checksum, so a
    # profile saved under the old one is a miss; and the file name keeps
    # every digit of the grid
    planted = _planted_profile(params_ref, monkeypatch)
    cdir = str(tmp_path)
    planted.save(kernels._cache_path(params_ref, "G", RadialGrid(), cdir))
    kernels._engine.cache_clear()
    unedited = kernels._engine()
    read_bytes = pathlib.Path.read_bytes
    try:
        for module in (special, spline, radialtransform, kernels):
            edited = pathlib.Path(module.__file__).resolve()
            monkeypatch.setattr(pathlib.Path, "read_bytes", lambda self, edited=edited:
                                read_bytes(self) + (b" " if self.resolve() == edited else b""))
            kernels._engine.cache_clear()
            assert kernels._engine() != unedited, module.__name__
            with pytest.raises(Rebuilt):
                kernels.build_y_profile(params_ref, cache_dir=cdir)
    finally:
        monkeypatch.setattr(pathlib.Path, "read_bytes", read_bytes)
        kernels._engine.cache_clear()
    assert kernels._engine() == unedited
    hit = kernels.build_y_profile(params_ref, cache_dir=cdir)
    assert np.array_equal(hit.values.samples, planted.values.samples)

    near = RadialGrid(rho_max=math.nextafter(1e3, math.inf))  # 1000.0000000000001
    assert kernels._cache_path(params_ref, "G", near, cdir) != kernels._cache_path(
        params_ref, "G", RadialGrid(), cdir)


def test_cache_read_imports_no_network_stack(tmp_path):
    # a disk miss (build and save) and then a hit (load) read and write the
    # profile with open() alone: np.loadtxt would import numpy's DataSource
    # and with it urllib, http, ssl and email.  Nor does naming or checking
    # a cache entry load _hashlib: OpenSSL's libcrypto is 3.7 MB of RSS
    code = f"""
import sys
from fracasym import kernels
from fracasym.params import FracParams

params = FracParams(1.0, 1.0, 5, validation_mode=True)
built = kernels.build_y_profile(params, cache_dir={str(tmp_path)!r})
kernels._profile.cache_clear()
loaded = kernels.build_y_profile(params, cache_dir={str(tmp_path)!r})
assert loaded is not built
assert (loaded.values.samples == built.values.samples).all()
print(sorted(m for m in ("urllib.request", "http.client", "ssl", "email", "_hashlib")
             if m in sys.modules))
"""
    src = str(pathlib.Path(kernels.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_path_runs_lapack_or_imports_numpy_polynomial(tmp_path):
    # the quadrature rules are constants and every straight-line fit is a
    # closed form: importing the package, a G and an F build and a Duhamel
    # check look up no LAPACK gufunc (leggauss would call eigvalsh, polyfit
    # lstsq) and import no numpy.polynomial
    code = f"""
import sys
import numpy.linalg._linalg as linalg

class NoLapack:
    def __getattr__(self, name):
        raise RuntimeError("LAPACK gufunc looked up: " + name)

linalg._umath_linalg = NoLapack()
import fracasym
import run_all_checks
from fracasym import kernels
from fracasym.params import FracParams
from fracasym.verify import run_check

params = FracParams(0.5, 0.5, 3)
g = kernels.build_y_profile(params, cache_dir={str(tmp_path)!r})
assert g.bound_report["kappa_pass"] and g.values.tail(True) and g.values.tail(False)
kernels.build_z_profile(params, cache_dir={str(tmp_path)!r})
report = run_check(dict(run_all_checks.configs({str(tmp_path)!r}))["compact"])
assert report.verdict == "pass" and report.slope is not None
print("numpy.polynomial" in sys.modules)
"""
    paths = [str(pathlib.Path(kernels.__file__).parents[1]), str(PERFBENCH.parent / "scripts")]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _count_transforms(monkeypatch):
    """Empty the memo and count the transforms that kernels runs from here."""
    calls = []
    inverse = kernels.radial_fourier_inverse

    def counted(*args, **kwargs):
        calls.append(args)
        return inverse(*args, **kwargs)

    monkeypatch.setattr(kernels, "radial_fourier_inverse", counted)
    kernels._profile.cache_clear()
    return calls


def test_one_transform_per_distinct_symbol(monkeypatch):
    # at alpha = 1 both symbols are exp(-r^{2 beta}): G is F, in either order
    validation = FracParams(1.0, 0.5, 3, validation_mode=True)
    for first, second in [(kernels.build_y_profile, kernels.build_z_profile),
                          (kernels.build_z_profile, kernels.build_y_profile)]:
        calls = _count_transforms(monkeypatch)
        a, b = first(validation), second(validation)
        assert len(calls) == 1
        assert np.array_equal(a.values.samples, b.values.samples)
        assert {a.which, b.which} == {"G", "F"}
        f = a if a.which == "F" else b
        assert f.kappa is None
    # below alpha = 1 the symbols E_{a,a} and E_{a,1} differ: two transforms
    calls = _count_transforms(monkeypatch)
    g = kernels.build_y_profile(FracParams(0.5, 0.5, 3))
    f = kernels.build_z_profile(FracParams(0.5, 0.5, 3))
    assert len(calls) == 2
    assert not np.array_equal(g.values.samples, f.values.samples)


@pytest.mark.parametrize("t", [1.0, 1e2, 1e4])
def test_symbol_bits(t):
    # one symbol builder, the same bits as the form E_{a,b}(-(r^{2b}) t^a)
    # times t^{a-1} (G) or nothing (F, and G at t = 1): multiplying by 1.0
    # is exact, and p (-ta) is -(p ta) since rounding is sign-symmetric
    lam = np.geomspace(1e-6, 1e6, 4001)  # r^{2b} at 2b = 1
    validation = FracParams(1.0, 0.5, 3, validation_mode=True)
    assert np.array_equal(next(kernels._symbol(validation, "G", (t,))(lam)),
                          next(kernels._symbol(validation, "F", (t,))(lam)))
    p = FracParams(0.5, 0.5, 3)
    a = p.alpha
    g = mittag_leffler(a, a, -lam * t**a)
    if t != 1.0:
        g = t ** (a - 1.0) * g
    assert np.array_equal(next(kernels._symbol(p, "G", (t,))(lam)), g)
    assert np.array_equal(next(kernels._symbol(p, "F", (t,))(lam)),
                          mittag_leffler(a, 1.0, -lam * t**a))
    # the batched symbol's outputs are the single-t symbols
    times = (1.0, 1e2, 1e4)
    for which in ("G", "F"):
        batched = list(kernels._symbol(p, which, times)(lam))
        assert len(batched) == len(times)
        for s, tk in zip(batched, times):
            assert np.array_equal(s, next(kernels._symbol(p, which, (tk,))(lam)))


def test_validation_g_holds_the_f_samples(params_heat):
    # at alpha = 1 G is F: a G build holds the F build's values object, in
    # either order
    builds = {"G": kernels.build_y_profile, "F": kernels.build_z_profile}
    for order in ("GF", "FG"):
        kernels._profile.cache_clear()
        built = {which: builds[which](params_heat) for which in order}
        assert (built["G"].which, built["F"].which) == ("G", "F")
        assert built["G"].values is built["F"].values


def test_perfbench_traces_the_kernels(tmp_path):
    # the benchmark's tracer rebinds every traced function in every fracasym
    # namespace and refuses a reference it cannot rebind; its microbenchmark
    # swaps kernels.mittag_leffler to capture a transform's symbol arguments
    code = f"""
import sys
sys.dont_write_bytecode = True
sys.path.insert(0, {str(PERFBENCH)!r})
import fracasym
from fracasym import kernels
from fracasym.params import FracParams
import micro
from tracer import Tracer

tracer = Tracer({str(tmp_path / "traced")!r})
tracer.instrument()
params = FracParams(1.0, 0.5, 3, validation_mode=True)
kernels.build_y_profile(params, cache_dir=tracer.cache_dir)
kernels.build_z_profile(params, cache_dir=tracer.cache_dir)
print(sum(span[0] == "radialtransform.inverse" for span in tracer.spans))
print(micro.capture_transform_args({str(tmp_path / "micro")!r}).size)
"""
    src = str(pathlib.Path(kernels.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "30464"]


def test_engine_hash_covers_the_interpolant(monkeypatch):
    # a profile's samples come through the spline module's interpolant (the
    # Mittag-Leffler table, the RadialFunction core), so an edit there must
    # change the engine hash and miss the cache like one in special or
    # radialtransform
    from fracasym.special import _ml_table

    interpolants = {
        type(_ml_table(0.5, 0.5)).__module__,
        type(RadialFunction(RadialGrid(), RadialGrid().nodes ** -2.0)._spline).__module__,
    }
    read = []
    monkeypatch.setattr(pathlib.Path, "read_bytes", lambda self: read.append(self) or b"")
    kernels._engine.__wrapped__()
    hashed = {p.resolve() for p in read}
    for name in interpolants | {"fracasym.special", "fracasym.radialtransform"}:
        assert pathlib.Path(sys.modules[name].__file__).resolve() in hashed


def test_evaluate_Y_array_t_matches_scalar_calls(g_profile_ref, f_profile_heat):
    t = np.geomspace(1e-8, 1e4, 41)
    vec = kernels.evaluate_Y(g_profile_ref, 1.0, t)
    one_by_one = [kernels.evaluate_Y(g_profile_ref, 1.0, float(s)) for s in t]
    np.testing.assert_array_equal(vec, one_by_one)
    with pytest.raises(kernels.KernelError):
        kernels.evaluate_Y(g_profile_ref, 1.0, np.array([1.0, 0.0]))
    with pytest.raises(kernels.KernelError):
        kernels.evaluate_Y(f_profile_heat, 1.0, 1.0)  # Y is G's


@pytest.mark.parametrize("t", [math.nan, math.inf, np.array([1.0, math.nan])],
                         ids=["nan", "inf", "array-nan"])
def test_evaluate_Y_refuses_a_non_finite_t(g_profile_ref, t):
    # a NaN t fails every comparison: it returned NaN, and t = inf raised
    # the transform's "evaluation requires rho > 0"
    with pytest.raises(kernels.KernelError, match="positive and finite"):
        kernels.evaluate_Y(g_profile_ref, 1.0, t)


def test_profile_positivity(g_profile_ref, g_profile_beta1):
    for prof in (g_profile_ref, g_profile_beta1):
        assert prof.values.samples[0] > 0
        assert np.all(prof.values.samples >= 0)
