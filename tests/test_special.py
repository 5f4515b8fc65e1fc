import gc
import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval
from scipy.special import erfcx, rgamma

from fracasym import special
from fracasym.radialtransform import _leggauss_extended
from fracasym.special import (
    _ASYMP_CUT,
    _ML_SLICE,
    _SERIES_CUT,
    _TABLE_LO,
    _TABLE_PER_DECADE,
    SpecialFunctionError,
    _rgamma,
    _ml_integral,
    _ml_table,
    bessel_j_half,
    gauss_legendre,
    gl_panels,
    lsq_slope,
    ml_tail_coefficient,
    mittag_leffler,
)


def test_reciprocal_gamma_matches_rgamma():
    # 0 exactly at the poles and where Gamma overflows, as scipy's rgamma;
    # on both sides of 171.62 (1/Gamma is 5.7e-309 just below it)
    for pole in range(0, -40, -1):
        assert _rgamma(float(pole)) == 0.0 == rgamma(pole)
    x = np.concatenate([np.geomspace(1e-3, 171.62, 300), np.linspace(-40.5, -0.01, 301)])
    got = np.array([_rgamma(v) for v in x])
    ref = rgamma(x)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
    assert _rgamma(171.62) > 0.0
    for v in (171.63, 172.0, 400.0):
        assert _rgamma(v) == 0.0 == rgamma(v)


def test_ml_half_order_vs_erfcx():
    # E_{1/2,1}(-x) = e^{x^2} erfc(x) = erfcx(x)
    x = np.geomspace(1e-3, 50.0, 200)
    got = mittag_leffler(0.5, 1.0, -x)
    ref = erfcx(x)
    assert np.max(np.abs(got - ref) / ref) < 1e-10


def test_ml_classical_exponential():
    x = np.geomspace(1e-3, 30.0, 50)
    got = mittag_leffler(1.0, 1.0, -x)
    assert np.max(np.abs(got - np.exp(-x))) < 1e-12


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("second", ["one", "a"])
def test_ml_vs_mpmath(a, second):
    b = 1.0 if second == "one" else a
    rng = np.random.default_rng(12345)
    xs = 10.0 ** rng.uniform(-3, 4, size=12)
    got = mittag_leffler(a, b, -xs)
    for x, g in zip(xs, got):
        ref = _mp_ml(a, b, -x)
        assert g == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_ml_half_order_b_a_vs_erfcx():
    # E_{1/2,1/2}(-x) = 1/sqrt(pi) - x erfcx(x): an oracle for b = a that shares
    # nothing with the contour integral
    x = np.geomspace(1e-3, 3.0, 200)
    got = mittag_leffler(0.5, 0.5, -x)
    ref = 1.0 / math.sqrt(math.pi) - x * erfcx(x)
    assert np.max(np.abs(got - ref) / ref) < 1e-13


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("second", ["one", "a"])
def test_ml_integral_branch_vs_mpmath(a, second):
    # the contour integral only builds table knots, so it is checked directly
    b = 1.0 if second == "one" else a
    ys = np.array([0.95, 2.0, 5.0, 15.0, 39.0])
    got = _ml_integral(a, b, ys)
    for y, g in zip(ys, got):
        assert g == pytest.approx(_mp_ml(a, b, -y), rel=1e-15, abs=0.0)


def _whole_array_integral(a, b, y):
    # the contour integrand on all knots at once, as _ml_integral formed it
    # before it went slice by slice and in place
    y = y[:, None]
    sin_ba, sin_b = math.sin(math.pi * (b - a)), math.sin(math.pi * b)
    cos_a = math.cos(math.pi * a)

    def core(r, ra_btimes_dr):
        ra = r**a
        num = y * sin_ba + ra * sin_b
        den = ra * ra + 2.0 * y * ra * cos_a + y * y
        return np.exp(-r) * num / den * ra_btimes_dr

    q = 1.0 + a - b
    part_low = core(special._V_NODES ** (1.0 / q), special._V_WEIGHTS / q)
    part_high = core(special._R_NODES, special._R_NODES ** (a - b) * special._R_WEIGHTS)
    return (part_low.sum(axis=1) + part_high.sum(axis=1)) / math.pi


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.5, 1.0), (0.9, 0.9), (0.3, 1.0)])
def test_ml_integral_slices_keep_every_bit(a, b):
    # the table's 330 contour knots, and 401 (not a multiple of the slice),
    # give each knot the bytes it gets alone and the bytes of the whole-array
    # integrand
    n = round(_TABLE_PER_DECADE * math.log10(_ASYMP_CUT / _TABLE_LO)) + 1
    knots = np.geomspace(_TABLE_LO, _ASYMP_CUT, n)
    for ys in (knots[knots > _SERIES_CUT], np.geomspace(_SERIES_CUT, _ASYMP_CUT, 401)):
        assert ys.size % _ML_SLICE and ys.size > _ML_SLICE
        got = _ml_integral(a, b, ys)
        alone = np.concatenate([_ml_integral(a, b, ys[i : i + 1]) for i in range(ys.size)])
        assert got.tobytes() == alone.tobytes()
        assert got.tobytes() == _whole_array_integral(a, b, ys).tobytes()
    assert knots[knots > _SERIES_CUT].size == 330


def test_ml_table_build_memory_is_bounded():
    # one cold table build: the contour knots in slices of _ML_SLICE, in
    # place, peaked at 1.56 MiB of traced allocations; all 330 at once and
    # out of place, at 4.68 MiB (numpy 2.4.6).  The spline's (n, k) factors
    # are cached by the first build, as in any run that builds a table.
    _ml_table(0.5, 0.5)
    tracemalloc.start()
    try:
        _ml_table.__wrapped__(0.6180339887, 0.6180339887)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("a, b", [(0.3, 0.3), (0.5, 0.5), (0.5, 1.0), (0.9, 0.9)])
def test_ml_table_error_contract(a, b):
    # the _ml_table docstring's contract, 1e-13 relative, between knots (where a
    # spline errs most) and on both sides of the series -> table -> asymptotic
    # handoffs at y = _TABLE_LO and _ASYMP_CUT and of the knot-source switch
    table = _ml_table(a, b)
    # the table's breakpoints, which are its knots (the log of 721 geometric
    # points), so every midpoint lies between two knots
    log_breaks = np.unique(table.x)
    assert np.exp(log_breaks[[0, -1]]) == pytest.approx([_TABLE_LO, _ASYMP_CUT], rel=1e-14)
    mids = np.exp(0.5 * (log_breaks[1:] + log_breaks[:-1]))[::24]
    edges = np.outer([_TABLE_LO, _SERIES_CUT, _ASYMP_CUT], [1 - 1e-12, 1 + 1e-12])
    ys = np.concatenate([mids, edges.ravel()])
    got = mittag_leffler(a, b, -ys)
    for y, g in zip(ys, got):
        assert g == pytest.approx(_mp_ml(a, b, -y), rel=1e-13, abs=0.0)
    # a tracer that rebinds mittag_leffler in every module namespace must find
    # no other holder of the original, so nothing the cache keeps may hold it
    # (types and module namespaces are shared, and the tracer rebinds the latter)
    shared = {id(vars(m)) for m in list(sys.modules.values())}
    seen, todo = set(), [table]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or id(obj) in shared or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert obj is not mittag_leffler
        todo.extend(gc.get_referents(obj))


@pytest.mark.parametrize("a", [0.49609375, 0.33203125, 0.2490234375, 0.8, 0.9])
@pytest.mark.parametrize("second", ["one", "a"])
def test_ml_asymptotic_branch_near_gamma_poles(a, second):
    # b - a k lands next to a Gamma pole for small k, so one term of the large-y
    # series is tiny and the next is not; the series must run past it.  At
    # a = 0.8 and 0.9 it needs the most terms (17 and 21).  The branch's
    # contract is 1e-14 relative for y >= _ASYMP_CUT and a <= 0.9.
    b = 1.0 if second == "one" else a
    xs = np.array([40.0, 40.736, 100.0, 1000.0, 1e7])
    got = mittag_leffler(a, b, -xs)
    for x, g in zip(xs, got):
        ref = _mp_ml(a, b, -x)
        assert g == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)])
def test_mittag_leffler_writes_into_no_argument(a, b):
    # its output is its own copy of -x (a tracer reads x after the call), and
    # the branches' sums read y without writing it
    x = -np.concatenate([[0.0], np.geomspace(1e-9, 1e9, 3002)]).reshape(-1, 7)
    before = x.copy()
    out = mittag_leffler(a, b, x)
    assert x.tobytes() == before.tobytes() and not np.shares_memory(out, x)
    y = -x.ravel()
    for part, branch in ((y[y < _TABLE_LO], special._ml_series),
                         (y[y >= _ASYMP_CUT], special._ml_asymptotic)):
        kept = part.copy()
        branch(a, b, part)
        assert part.tobytes() == kept.tobytes()


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.5, 1.0), (0.9, 0.9), (0.3, 1.0)])
def test_horner_sums_are_polyval(a, b, monkeypatch):
    # the in-place Horner sums give numpy's polyval bit for bit, on the series
    # (up to the table's last series knot) and on the asymptotic expansion
    y_series = np.concatenate([[0.0], np.geomspace(1e-9, _SERIES_CUT, 2001)])
    y_asymp = np.geomspace(_ASYMP_CUT, 1e12, 2001)
    got = special._ml_series(a, b, y_series), special._ml_asymptotic(a, b, y_asymp)
    monkeypatch.setattr(special, "_horner", polyval)
    want = special._ml_series(a, b, y_series), special._ml_asymptotic(a, b, y_asymp)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
@pytest.mark.parametrize("second", ["one", "mid", "a"])
def test_ml_series_branch_vs_mpmath(a, second):
    # the series branch serves y < _TABLE_LO; its contract is 1e-15 relative
    b = {"one": 1.0, "mid": 0.5 * (1.0 + a), "a": a}[second]
    ys = np.geomspace(1e-8, _TABLE_LO * (1 - 1e-12), 7)
    got = mittag_leffler(a, b, -ys)
    for y, g in zip(ys, got):
        ref = _mp_ml(a, b, -y)
        assert g == pytest.approx(ref, rel=1e-15, abs=0.0)


def _mp_ml(a, b, z):
    # E_{a,b}(z) for z <= 0 by Talbot's inversion of its Laplace transform,
    # L[t^{b-1} E_{a,b}(-y t^a)](s) = s^{a-b}/(s^a + y), at t = 1 and 40 digits:
    # it shares nothing with the engine's series, table, contour or expansion
    with mpmath.workdps(40):
        a, b, y = mpmath.mpf(a), mpmath.mpf(b), -mpmath.mpf(z)
        return float(
            mpmath.invertlaplace(lambda s: s ** (a - b) / (s**a + y), 1, method="talbot")
        )


def test_ml_tail_coefficient_values():
    # C = -1/Gamma(-a); at a = 1/2, Gamma(-1/2) = -2 sqrt(pi)
    C = ml_tail_coefficient(0.5)
    assert C == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-14)
    # large-argument law x^2 E_{a,a}(-x) -> C, e.g. ~0.2820948 at a = 1/2
    x = 1e6
    assert mittag_leffler(0.5, 0.5, -x) * x**2 == pytest.approx(C, rel=1e-3)


def test_ml_tail_second_order():
    # E_{a,a}(-x) ~ C/x^2 exactly at leading order (the 1/x term vanishes
    # since 1/Gamma(0) = 0); check the ratio at large x
    for a in (0.3, 0.5, 0.8):
        x = 1e8
        lead = ml_tail_coefficient(a) / x**2
        assert mittag_leffler(a, a, -x) == pytest.approx(lead, rel=1e-3, abs=0.0)


def test_ml_domain_errors():
    with pytest.raises(SpecialFunctionError):
        mittag_leffler(1.5, 1.0, -1.0)
    with pytest.raises(SpecialFunctionError):
        mittag_leffler(0.5, 2.0, -1.0)
    with pytest.raises(SpecialFunctionError):
        mittag_leffler(0.5, 0.4, -1.0)  # b < a: not completely monotone
    with pytest.raises(SpecialFunctionError):
        mittag_leffler(0.5, 1.2, -1.0)  # b > 1: beyond the table's contract
    with pytest.raises(SpecialFunctionError):
        mittag_leffler(0.5, 1.0, 1.0)  # positive argument
    with pytest.raises(SpecialFunctionError):
        mittag_leffler(0.5, 0.5, np.array([np.nan, -1.0]))  # x > 0 lets NaN through
    with pytest.raises(SpecialFunctionError):
        mittag_leffler(1.0, 1.0, math.nan)
    with pytest.raises(SpecialFunctionError):
        mittag_leffler(1.0, 0.5, -1.0)
    with pytest.raises(SpecialFunctionError):
        ml_tail_coefficient(1.0)


def test_bessel_half_closed_forms():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x
    assert bessel_j_half(0.5, math.pi / 2.0) == pytest.approx(2.0 / math.pi, rel=1e-13)
    # J_{3/2}(x) = sqrt(2/(pi x)) (sin x / x - cos x); at x = pi: sqrt(2/pi^2)*1
    assert bessel_j_half(1.5, math.pi) == pytest.approx(
        math.sqrt(2.0) / math.pi, rel=1e-13
    )


def test_bessel_series_matches_recurrence():
    # the two branches must agree across the switch point x = 1.5
    from scipy.special import jv

    x = np.linspace(0.05, 3.0, 60)
    for order in (0.5, 1.5, 2.5, 3.5):
        got = bessel_j_half(order, x)
        assert np.max(np.abs(got - jv(order, x))) < 1e-12
    # long-double input keeps its precision on the recurrence branch (x > 1.5)
    xl = np.geomspace(np.longdouble(1.6), np.longdouble(260.0), 40)
    with mpmath.workdps(30):
        for order in (0.5, 1.5, 2.5):
            got = bessel_j_half(order, xl)
            assert got.dtype == np.longdouble
            ref = [mpmath.besselj(order, mpmath.mpf(str(v))) for v in xl]
            err = max(abs(mpmath.mpf(str(g)) - r) for g, r in zip(got, ref))
            assert err < 5e-17


def test_bessel_domain_errors():
    with pytest.raises(SpecialFunctionError):
        bessel_j_half(1.0, 1.0)
    with pytest.raises(SpecialFunctionError):
        bessel_j_half(0.5, -1.0)


@given(a=st.floats(0.05, 0.99), x=st.floats(1e-6, 1e9))
def test_ml_positive_and_bounded(a, x):
    # E_a(-x) is completely monotone: in (0, 1] and positive
    v = mittag_leffler(a, 1.0, -x)
    assert 0.0 < v <= 1.0


@given(a=st.floats(0.1, 0.95))
@settings(max_examples=15)
def test_ml_monotone_in_x(a):
    x = np.geomspace(1e-4, 1e6, 200)
    v = mittag_leffler(a, 1.0, -x)
    assert np.all(np.diff(v) < 0)
    vaa = mittag_leffler(a, a, -x)
    assert np.all(vaa > 0)


@given(
    a=st.floats(0.2, 0.9),
    lam=st.floats(0.01, 100.0),
    t=st.floats(0.5, 50.0),
)
@settings(max_examples=15)
def test_ml_derivative_identity(a, lam, t):
    # d/dt E_a(-lam t^a) = -lam t^{a-1} E_{a,a}(-lam t^a), checked by a
    # centered difference
    h = 1e-5 * t
    num = (
        mittag_leffler(a, 1.0, -lam * (t + h) ** a)
        - mittag_leffler(a, 1.0, -lam * (t - h) ** a)
    ) / (2.0 * h)
    ana = -lam * t ** (a - 1.0) * mittag_leffler(a, a, -lam * t**a)
    assert num == pytest.approx(ana, rel=1e-5, abs=1e-12)


def test_ml_minus_infinity_is_zero():
    out = mittag_leffler(0.5, 0.5, np.array([-np.inf, -1.0]))
    assert out[0] == 0.0 and out[1] == mittag_leffler(0.5, 0.5, -1.0)


@pytest.mark.parametrize("n", [8, 12, 16, 24, 32])
def test_gauss_legendre_is_leggauss_bit_for_bit(n):
    # the committed half-rules give back numpy's eigvalsh-based rule exactly
    for got, want in zip(gauss_legendre(n), leggauss(n)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_lsq_slope_exact_on_an_exact_line():
    x = np.arange(-4.0, 6.0) * 0.5
    assert lsq_slope(x, 7.0 - 2.5 * x) == -2.5
    assert lsq_slope(np.log([1e2, 1e3, 1e4]), [1.0, 1.0, 1.0]) == 0.0


@pytest.mark.parametrize("rule", [leggauss, _leggauss_extended])
def test_gl_panels_exact_for_degree_2n_minus_1(rule):
    # an n-point rule integrates degree 2n-1 exactly on every panel, so the
    # panel sum is exact over [0, b] however unevenly the breaks fall
    n = 16
    xg, wg = rule(n)
    breaks = np.array([0.0, 0.013, 0.2, 0.21, 0.9, 1.7], dtype=xg.dtype)
    x, w = gl_panels(breaks, xg, wg)
    assert x.dtype == w.dtype == xg.dtype
    assert x.shape == w.shape == (5 * n,)
    coeffs = [1.0 / (k + 1) for k in range(2 * n)]
    vals = np.zeros_like(x)
    for c in reversed(coeffs):  # Horner, in the rule's precision
        vals = vals * x + c
    got = np.sum(w * vals)
    b = Fraction(float(breaks[-1]))
    exact = sum(Fraction(c) * b ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
    err = abs(Fraction(*got.as_integer_ratio()) - exact) / exact
    assert float(err) < 100 * np.finfo(xg.dtype).eps
