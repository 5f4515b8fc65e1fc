import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from fracasym.params import FracParams
from fracasym.potentials import riesz_potential
from fracasym.radialtransform import (
    _BLOCK_ROWS,
    RadialFunction,
    RadialGrid,
    _engine,
    lp_norm_annulus,
    radial_fourier_inverses,
    radial_integral,
)
from fracasym.special import mittag_leffler
from fracasym import solver
from fracasym.solver import (
    ForcingSpec,
    SolverError,
    _build_w_table,
    _duhamel_nodes,
    _w_knots,
    duhamel_symbols,
    solution_mass,
    solve_duhamel,
    time_weight,
)


GRID = RadialGrid(1e-3, 1e3, 512)


# --- forcing families ---------------------------------------------------------


def test_gaussian_mass():
    fs = ForcingSpec("gaussian", gamma=1.0, dim=3)
    assert fs.M0 == pytest.approx(math.pi**1.5, rel=1e-14)


@pytest.mark.parametrize("family,dim", [("gaussian", 3), ("bump", 3), ("heavy", 3), ("bump", 5), ("heavy", 5)])
def test_mass_matches_quadrature(family, dim):
    fs = ForcingSpec(family, gamma=0.0, width=1.3 if family != "heavy" else 1.0, dim=dim)
    from fracasym.radialtransform import omega_n

    val, _ = quad(lambda r: fs.g(r) * r ** (dim - 1), 0.0, np.inf, limit=400)
    assert fs.mass_g == pytest.approx(omega_n(dim) * val, rel=1e-9)


@pytest.mark.parametrize("family", ["gaussian", "bump", "heavy"])
def test_ghat_zero_limit_is_mass(family):
    fs = ForcingSpec(family, gamma=0.0, dim=3)
    assert float(fs.ghat(np.array([1e-10]))[0]) == pytest.approx(fs.mass_g, rel=1e-9)


def test_heavy_family_refuses_a_width():
    # g and g-hat of the heavy family never read width, yet reports recorded
    # the configured value: a width other than 1 is refused, not recorded
    for width in (2.0, 0.5):
        with pytest.raises(SolverError, match="heavy family has no width"):
            ForcingSpec("heavy", gamma=1.0, width=width)
    assert ForcingSpec("heavy", gamma=1.0, width=1.0).as_dict()["width"] == 1.0
    for family in ("gaussian", "bump"):
        assert ForcingSpec(family, gamma=1.0, width=2.0).width == 2.0


def test_ghat_matches_numeric_transform():
    # closed-form transforms against the Hankel engine for all families
    from fracasym.radialtransform import RadialFunction, radial_fourier_forward

    for family in ("gaussian", "bump", "heavy"):
        fs = ForcingSpec(family, gamma=0.0, dim=3)
        h = RadialFunction(GRID, fs.g(GRID.nodes))
        fwd = radial_fourier_forward(h, 3)
        r = np.geomspace(0.05, 5.0, 20)
        ref = fs.ghat(r)
        # the bump profile has a kink at the support edge, which limits the
        # sampled-interpolant route; smooth families agree to ~1e-12
        tol = 5e-3 if family == "bump" else 1e-6
        assert np.max(np.abs(fwd(r) - ref)) < tol * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_bump_ghat_matches_jv(dim):
    # the bump's J_{N/2+2} from bessel_j_half on long-double x against
    # scipy's jv, relative to the local size of J_nu(x)/x^nu: the smaller of
    # its value at 0 and the amplitude sqrt(2/(pi x))/x^nu of its
    # oscillation, since near a zero jv itself errs by up to 2.2e-13 relative
    # (N = 7, x = 19.6; 40-digit mpmath).  A float64 recurrence errs by
    # 3.4e-13 at N = 5 and 1.4e-11 at N = 7, by this measure.
    nu = dim / 2.0 + 2.0
    x = np.geomspace(1e-4, 1e3, 4000)
    scale = 8.0 * (2.0 * math.pi) ** (dim / 2.0)
    ref = jv(nu, x) / x**nu
    size = np.minimum(2.0**-nu / math.gamma(nu + 1.0), np.sqrt(2.0 / (math.pi * x)) / x**nu)
    got = ForcingSpec("bump", gamma=2.0, dim=dim).ghat(x) / scale
    assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), size)) <= 1e-13


def test_bump_ghat_small_argument_branch():
    fs = ForcingSpec("bump", gamma=0.0, dim=3)
    # series branch and Bessel branch must join continuously at x = 1e-4
    below, above = fs.ghat(np.array([0.99e-4, 1.01e-4]))
    assert below == pytest.approx(above, rel=1e-10)


@pytest.mark.parametrize("width", [1.0, 0.3])
def test_gaussian_ghat_is_the_closed_form(width):
    # exp runs only where its argument is above -746; everywhere the result is
    # (pi w^2)^{N/2} exp(-(w r)^2 / 4) bit for bit, and no warning is raised
    fs = ForcingSpec("gaussian", gamma=2.0, width=width, dim=5)
    pref = (math.pi * width * width) ** 2.5
    r = np.concatenate([np.linspace(50.0, 60.0, 4001) / width,
                        np.geomspace(1e-3, 1e5, 2001), [np.nan, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fs.ghat(r)
        scalar = fs.ghat(np.float64(54.0 / width))
        zero_d = fs.ghat(np.array(55.0 / width))
    want = pref * np.exp(-(width * r) ** 2 / 4.0)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[-2]) and np.count_nonzero(got == 0.0) > 1000
    assert scalar == pref * np.exp(-(width * 54.0 / width) ** 2 / 4.0)
    assert zero_d == pref * np.exp(-(width * 55.0 / width) ** 2 / 4.0)
    assert float(fs.ghat(0.0)) == pref


def _ghat_reference(fs, r):
    """The gaussian g-hat as it was formed before it ran in one array: a new
    array per operation."""
    w = fs.width
    arg = -(w * np.asarray(r, dtype=float)) ** 2 / 4.0
    e = np.zeros_like(arg)
    np.exp(arg, out=e, where=~(arg <= -746.0))
    return (math.pi * w * w) ** (fs.dim / 2.0) * e


@pytest.mark.parametrize("width", [1.0, 0.3])
def test_gaussian_ghat_keeps_its_bits_in_one_array(width):
    # formed in place in one array of its own, g-hat has the bytes of the
    # expression formed operation by operation: around the argument -746
    # (where exp stops running; one r of each width hits it exactly), at
    # NaN, +-inf, 0 and on 0-d input.  One engine block of it peaks at
    # 1.26 block-sized arrays traced (the result and two masks), where the
    # expression formed that way peaked at 3.0 (numpy 2.4.6)
    fs = ForcingSpec("gaussian", gamma=2.0, width=width, dim=3)
    r0 = math.sqrt(2984.0) / width
    r = np.concatenate([r0 + np.arange(-50, 51) * np.spacing(r0), np.geomspace(1e-3, 1e5, 999),
                        [np.nan, np.inf, -np.inf, 0.0, -0.0]])
    assert np.count_nonzero(-(width * r) ** 2 / 4.0 == -746.0) >= 1
    before = r.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fs.ghat(r).tobytes() == _ghat_reference(fs, r).tobytes()
        for v in (r0, np.nan, 0.0):
            zero_d = np.array(v)
            assert np.asarray(fs.ghat(zero_d)).tobytes() == _ghat_reference(fs, zero_d).tobytes()
    assert r.tobytes() == before.tobytes()  # the argument is left as it was
    block = np.geomspace(1e-3, 1e2, _BLOCK_ROWS * 1904).reshape(_BLOCK_ROWS, 1904)
    fs.ghat(block)
    tracemalloc.start()
    try:
        fs.ghat(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * block.nbytes


def test_forcing_validation():
    with pytest.raises(SolverError):
        ForcingSpec("lorentzian", gamma=0.0)
    with pytest.raises(SolverError):
        ForcingSpec("gaussian", gamma=0.0, width=-1.0)
    with pytest.raises(SolverError, match="odd dim"):
        ForcingSpec("bump", gamma=0.0, dim=4)
    for kw in ({"gamma": math.nan}, {"gamma": math.inf}, {"amplitude": math.nan},
               {"amplitude": -math.inf}, {"width": math.nan}, {"width": math.inf}):
        with pytest.raises(SolverError, match="finite"):
            ForcingSpec("gaussian", **{"gamma": 0.0, **kw})
    # mass_g read nan, inf, or 8.07 for heavy at 2.5
    for dim in (2.5, math.nan, math.inf, 0, "3", None):
        with pytest.raises(SolverError, match="positive integer"):
            ForcingSpec("heavy", gamma=0.0, dim=dim)
    fs = ForcingSpec("gaussian", gamma=0.0, dim=3.0)  # stored as FracParams stores it
    assert type(fs.dim) is int and fs == ForcingSpec("gaussian", gamma=0.0, dim=3)


# --- the time weight ----------------------------------------------------------


@pytest.mark.parametrize("t", [1.0, 1e2, 1e4])
def test_w_table_matches_closed_form(t):
    # gamma = 0 admits the closed form W = (1 - E_alpha(-lam t^alpha))/lam;
    # the generic quadrature table must reproduce it across the full range
    alpha = 0.5
    lam_lo, lam_hi, w_lo, w_hi, spline = _build_w_table(alpha, 0.0, t)
    exact = time_weight(alpha, 0.0, t)
    lam = np.geomspace(lam_lo * 1.01, lam_hi * 0.99, 400)
    got = np.exp(spline(np.log(lam)))
    # the table's own cubic interpolation error: 1.20e-9, near x = lam t^alpha
    # = 1.2 (the closed form is within 3e-16 of the 40-digit series)
    assert np.max(np.abs(got / exact(lam) - 1.0)) < 1.5e-9


@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_w_closed_form_matches_mpmath(alpha):
    # W = (1 - E_alpha(-x))/lam with x = lam t^alpha, E by its series in 40
    # digits.  In double that difference cancels for small x (1.3e-9 relative
    # at x = 2e-8, 4.8e-13 at 1e-4); the series U E_{alpha,1+alpha}(-x) below
    # x = 1 does not.  Both sides of x = 1 are held to 2 ulp.
    t = 1e4
    xs = np.array([2e-8, 1e-7, 1e-6, 1e-4, 0.5, 0.999, 1.0, 3.0])
    lam = xs / t**alpha
    got = time_weight(alpha, 0.0, t)(lam)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        for w, lam_k in zip(got, lam):
            lam_k = mpmath.mpf(float(lam_k))
            x = lam_k * mpmath.mpf(t) ** a
            e = mpmath.nsum(lambda k: (-x) ** k / mpmath.gamma(1 + a * k), [0, mpmath.inf])
            assert abs(w / ((1 - e) / lam_k) - 1) < 5e-16


def _w_direct(alpha, gamma, t, lam):
    """W at lam as the direct sum over every Duhamel node, sum_k c_k
    E_{aa}(-lam_j a_k), one E per (knot, node) pair, 64 knots per call."""
    a, c = _duhamel_nodes(alpha, gamma, t)
    out = np.empty_like(lam)
    for i in range(0, lam.size, 64):
        out[i : i + 64] = mittag_leffler(alpha, alpha, -(lam[i : i + 64, None] * a)) @ c
    return out


@pytest.mark.parametrize("alpha", [0.5, 0.9])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [1e2, 1e8])
def test_w_knots_match_direct_sum(alpha, gamma, t):
    # the table evaluates E once per distinct argument (merged s-nodes and
    # shifted tau-panel windows): the same quadrature, only rounded
    # differently, on the same 1201 knots 1/60 decade apart
    lam, w = _w_knots(alpha, gamma, t)
    U = t**alpha
    assert lam.size == 1201
    assert (lam[0] * U, lam[-1] * U) == pytest.approx((1e-10, 1e10), rel=1e-13)
    assert np.allclose(np.diff(np.log10(lam)), 1.0 / 60.0, rtol=1e-9, atol=0.0)
    ref = _w_direct(alpha, gamma, t, lam)
    assert np.max(np.abs(w / ref - 1.0)) < 1e-13


@pytest.mark.parametrize("alpha, gamma, t, gate", [
    (0.5, 2.0, 1e2, 3.8e-9),
    (0.9, 1.0, 1e2, 1.7e-8),
    (0.5, 0.5, 1e2, 1.7e-9),
    (0.9, 0.5, 1e2, 5.7e-9),
    (0.5, 2.0, 1e8, 3.6e-9),
    (0.9, 1.0, 1e8, 5.0e-8),
])
def test_w_table_between_knots(alpha, gamma, t, gate):
    # at the knots the spline is exact; between them its cubic interpolation
    # of log W errs by up to 4.9e-8, largest near x = lam t^alpha of 1 to 6,
    # against the direct sum over the same quadrature nodes; each case is
    # gated at its achieved level
    lam = _w_knots(alpha, gamma, t)[0]
    mid = np.sqrt(lam[:-1] * lam[1:])
    got = time_weight(alpha, gamma, t)(mid)
    assert np.max(np.abs(got / _w_direct(alpha, gamma, t, mid) - 1.0)) < gate


def _talbot_w(alpha, gamma, t, lam):
    """W(lam, t) by Talbot's inversion of its Laplace transform in t at 30
    digits: H(z) / (z^alpha + lam), with H(z) = e^z z^{gamma-1} Gamma(1-gamma, z)
    the transform of (1+t)^{-gamma} and 1/(z^alpha + lam) that of t^{alpha-1}
    E_{alpha,alpha}(-lam t^alpha).  It shares no quadrature node and no
    Mittag-Leffler evaluation with the engine's W."""
    with mpmath.workdps(30):
        a, g, lam = mpmath.mpf(alpha), mpmath.mpf(gamma), mpmath.mpf(lam)

        def transform(z):
            h = mpmath.exp(z) * z ** (g - 1) * mpmath.gammainc(1 - g, z)
            return h / (z**a + lam)

        return float(mpmath.invertlaplace(transform, t, method="talbot"))


@pytest.mark.parametrize("alpha, t", [(0.5, 1e2), (0.9, 1e8)])
def test_talbot_w_matches_the_exact_w_at_gamma_zero(alpha, t):
    # the oracle's own error: at gamma = 0, W = t^alpha E_{alpha,1+alpha}(-x)
    # exactly, x = lam t^alpha, and time_weight sums that closed form
    lam = np.array([1e-3, 1.0, 3.0, 1e3]) / t**alpha
    got = time_weight(alpha, 0.0, t)(lam)
    ref = np.array([_talbot_w(alpha, 0.0, t, v) for v in lam])
    assert np.max(np.abs(got / ref - 1.0)) < 4.5e-16


@pytest.mark.parametrize("alpha, gamma, t, knot_gate, mid_gate", [
    (0.5, 2.0, 1e2, 8.2e-14, 3.5e-9),
    (0.9, 1.0, 1e2, 6.8e-14, 4.3e-9),
    (0.5, 0.5, 1e2, 8.2e-14, 1.7e-9),
    (0.9, 0.5, 1e2, 6.9e-14, 1.8e-9),
    (0.5, 2.0, 1e8, 8.4e-14, 3.4e-9),
    (0.9, 1.0, 1e8, 6.4e-14, 2.6e-8),
])
def test_w_table_vs_talbot(alpha, gamma, t, knot_gate, mid_gate):
    # pointwise, against an oracle that shares nothing with the table: at the
    # knots nearest x = lam t^alpha = 1e-3 and 1e3 the table is the
    # quadrature, and at the midpoints after the knots nearest x = 1 and 3,
    # where the cubic spline errs most, it is the interpolation; each case is
    # gated at its achieved level
    lam = _w_knots(alpha, gamma, t)[0]
    x = lam * t**alpha
    j = np.array([np.argmin(np.abs(np.log(x / v))) for v in (1e-3, 1e3, 1.0, 3.0)])
    points = np.concatenate([lam[j[:2]], np.sqrt(lam[j[2:]] * lam[j[2:] + 1])])
    err = time_weight(alpha, gamma, t)(points) / [
        _talbot_w(alpha, gamma, t, v) for v in points] - 1.0
    assert np.max(np.abs(err[:2])) < knot_gate
    assert np.max(np.abs(err[2:])) < mid_gate


def test_w_knots_call_the_module_mittag_leffler(monkeypatch):
    # E is looked up in the solver namespace at call time, so a wrapper bound
    # there (as a tracer does) sees every point: about 455,000 per table, not
    # the 1201 x 1250 = 1,501,250 of one E per (knot, node) pair
    points = []

    def counting(a, b, x):
        points.append(np.size(x))
        return mittag_leffler(a, b, x)

    monkeypatch.setattr(solver, "mittag_leffler", counting)
    _w_knots(0.5, 2.0, 1e4)
    assert 400_000 < sum(points) < 460_000


def test_w_table_build_memory_is_bounded():
    # a cold W table with its Mittag-Leffler table and spline system cached:
    # the tau-half's E one panel-0 node at a time into one array, and the
    # spline system's pieces on its distinct knot windows alone, peak at
    # 1.16 MiB traced, where all 12 nodes in one call peaked at 1.66 MiB
    # (numpy 2.4.6)
    _build_w_table(0.5, 2.0, 1e4)
    tracemalloc.start()
    try:
        _build_w_table.__wrapped__(0.5, 2.0, 1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_w_monotone_decreasing_in_lam():
    w = time_weight(0.5, 1.5, 100.0)
    lam = np.geomspace(1e-9, 1e9, 300)
    v = w(lam)
    assert np.all(v > 0)
    assert np.all(np.diff(v) <= 0)


def _w_masked(alpha, gamma, t, lam):
    """W at each point of a 1-D lam by its range: the spline on the points
    inside the table alone, the closed forms on the rest."""
    lam_lo, lam_hi, w_lo, w_hi, spline = _build_w_table(alpha, gamma, t)
    want = np.empty_like(lam)
    low, high = lam <= lam_lo, lam >= lam_hi
    mid = ~low & ~high
    want[low] = w_lo
    want[high] = w_hi * (lam_hi / lam[high])
    want[mid] = np.exp(spline(np.log(lam[mid])))
    return want


def _same_bits(got, want):
    # array_equal takes -0.0 for +0.0: the bytes tell them apart
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha, gamma, t", [(0.5, 1.5, 100.0), (0.7, 2.0, 3.0)])
def test_w_spline_is_the_masked_form(alpha, gamma, t):
    # the spline runs on the columns that hold a point inside the table and
    # the closed forms are written over the points outside it: the same
    # values as evaluating each range on its own points, and no warning from
    # the spline's values out there (at lam = 0 and inf the log and the
    # interval index are not finite)
    lam_lo, lam_hi = _build_w_table(alpha, gamma, t)[:2]
    lam = np.concatenate([np.geomspace(lam_lo * 1e-30, lam_hi * 1e30, 3001),
                          [lam_lo, lam_hi, 1e300, 1e-300, 0.0, np.inf]])
    low, high = lam <= lam_lo, lam >= lam_hi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = time_weight(alpha, gamma, t)(lam)
    assert _same_bits(got, _w_masked(alpha, gamma, t, lam))
    assert low.sum() > 100 and high.sum() > 100 and (~low & ~high).sum() > 100


@pytest.mark.parametrize("alpha, gamma, t", [(0.5, 1.5, 100.0), (0.7, 2.0, 3.0)])
def test_w_spline_skips_whole_columns_outside_the_table(alpha, gamma, t):
    # a 2-D lam whose leading columns lie below the table in every row and
    # whose trailing columns lie above it in every row, with columns between
    # that mix all three ranges: the spline skips the outer columns, and
    # every point keeps the masked form's bits, written into out or not
    lam_lo, lam_hi = _build_w_table(alpha, gamma, t)[:2]
    lam = np.geomspace(lam_lo * 1e-3, lam_hi * 1e3, 400) * np.array([[1.0], [3.0], [0.2], [1.7]])
    low, high = lam <= lam_lo, lam >= lam_hi
    assert low.all(axis=0).sum() > 20 and high.all(axis=0).sum() > 20
    assert (low.any(axis=0) & ~low.all(axis=0)).any()
    assert (high.any(axis=0) & ~high.all(axis=0)).any()
    want = _w_masked(alpha, gamma, t, lam.ravel()).reshape(lam.shape)
    w = time_weight(alpha, gamma, t)
    assert _same_bits(w(lam), want)
    out = np.full((4, 500), np.nan)
    w(lam, out=out[:, 50:450])
    assert _same_bits(out[:, 50:450], want)
    assert np.isnan(out[:, :50]).all() and np.isnan(out[:, 450:]).all()
    # a scalar lam is one point
    scalar = w(lam[1, 200])
    assert scalar.shape == () and scalar == want[1, 200]


def _engine_block(first):
    """The engine's block of rows first, first + 1, ... of r = x/rho on the
    default grid, as it hands it to a symbol."""
    eng, rho = _engine(3), RadialGrid().nodes[first : first + _BLOCK_ROWS]
    r = np.empty((rho.size, eng.x.size))
    np.divide(eng.x, rho[:, None].astype(eng.x.dtype), out=r)
    return r


@pytest.mark.parametrize("gamma", [2.0, 0.0])
@pytest.mark.parametrize("amplitude", [1.0, -2.5])
@pytest.mark.parametrize("case", ["ghat", "ghat-profiles", "no-zeros", "scalar"])
def test_duhamel_symbols_cut_keeps_every_bit(gamma, amplitude, case):
    # W runs only through the last column where the spatial factor is
    # nonzero in some row: every output equals s W - hat over the whole
    # block, W over the whole block too, bit for bit, a negative
    # amplitude's -0.0 included
    params = FracParams(0.5, 0.5, 3)
    fs = ForcingSpec("gaussian", gamma=gamma, amplitude=amplitude, dim=3)
    times = (1e2, 1e3, 1e4)
    spatial = {
        "no-zeros": lambda r: fs.amplitude * (fs.ghat(r) - fs.mass_g),
        "scalar": lambda r: fs.M0,
    }.get(case)
    profiles = None
    if case == "ghat-profiles":
        profiles = lambda r, lam, s: (s * r**-1.0 / t + lam / t for t in times)
    r = _engine_block(0)
    lam = r ** (2.0 * params.beta)
    s = (spatial or (lambda r: fs.amplitude * fs.ghat(r)))(r)
    zero_cols = (np.broadcast_to(s, r.shape) == 0).all(axis=0)
    if case.startswith("ghat"):
        # the cut has a zero suffix to skip, whose -0.0 the sign keeps
        assert zero_cols[-500:].all() and not zero_cols[:500].any()
        assert np.signbit(s[:, -1]).all() == (amplitude < 0)
    else:
        assert not zero_cols[-1]  # no zero suffix: W on the full width
    hats = iter(profiles(r, lam, s)) if profiles else None
    got = list(duhamel_symbols(fs, params, times, profiles, spatial)(r))
    assert len(got) == len(times)
    for t, d in zip(times, got):
        if gamma == 0.0:
            w = time_weight(params.alpha, gamma, t)(lam)
        else:
            # the leading columns lie below the table in every row
            assert (lam[:, :100] <= _build_w_table(params.alpha, gamma, t)[0]).all()
            w = _w_masked(params.alpha, gamma, t, lam.ravel()).reshape(lam.shape)
        want = s * w
        if hats is not None:
            want = want - next(hats)
        assert _same_bits(d, want)


def test_w_closed_form_tiny_argument_branch():
    w = time_weight(0.5, 0.0, 100.0)
    a, b = w(np.array([0.9e-10, 1.2e-10]))
    assert a == pytest.approx(b, rel=1e-6)


def test_time_weight_errors():
    with pytest.raises(SolverError):
        time_weight(0.5, 0.0, -1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_a_non_finite_time_is_refused(t):
    # a NaN fails every comparison: W and M(t) came back NaN (and W = 1 at
    # t = inf, gamma = 0), and a tabulated W raised numpy's "Geometric
    # sequence cannot include zero" at t = inf
    params = FracParams(0.5, 0.5, 3)
    fs = ForcingSpec("gaussian", gamma=2.0, dim=3)
    for gamma in (0.0, 2.0):
        with pytest.raises(SolverError, match="positive and finite"):
            time_weight(0.5, gamma, t)
    with pytest.raises(SolverError, match="positive and finite"):
        solve_duhamel(fs, params, t, GRID)
    with pytest.raises(SolverError, match="nonnegative and finite"):
        solution_mass(fs, params, t)


def test_quadrature_refuses_t_above_its_stub_bound():
    # the s-half's stub [0, 0.5e-26 t] is summed as a constant: at alpha = 1,
    # gamma = 2 M(t) missed M0 t/(1+t) by 2.5e-9 at t = 1e22 and 5e3 at 1e30,
    # and a W table died in numpy's geomspace from t near 1.8e298; at
    # alpha = 0.5 W was off by a factor 5000 at t = 1e30.  With gamma = 0 the
    # stub is exact and W is the closed form, so large t stays admitted
    params = FracParams(1.0, 0.5, 3, validation_mode=True)
    fs = ForcingSpec("gaussian", gamma=2.0, dim=3)
    for t in (1e8, 1e18):
        exact = fs.M0 * t / (1.0 + t)
        assert abs(solution_mass(fs, params, t) / exact - 1.0) < 1e-13
    for t in (1.01e18, 1e22, 1e300):
        with pytest.raises(SolverError, match="t <= 1e\\+18 where gamma != 0"):
            time_weight(0.5, 2.0, t)
        with pytest.raises(SolverError, match="t <= 1e\\+18 where gamma != 0"):
            solution_mass(fs, params, t)
    fs0 = ForcingSpec("gaussian", gamma=0.0, dim=3)
    assert solution_mass(fs0, params, 1e22) == pytest.approx(fs0.M0 * 1e22, rel=1e-15)
    assert time_weight(0.5, 0.0, 1e22)(np.array([1e-20]))[0] > 0


# --- solution slices ----------------------------------------------------------


def test_solution_mass_gamma0():
    # M(t) = M0 t^alpha / Gamma(1 + alpha) for constant-in-time forcing
    params = FracParams(0.5, 0.5, 3)
    fs = ForcingSpec("gaussian", gamma=0.0, dim=3)
    got = solution_mass(fs, params, 4.0)
    assert got == pytest.approx(fs.M0 * 2.0 / math.gamma(1.5), rel=1e-12)
    assert solution_mass(fs, params, 0.0) == 0.0


def test_solution_mass_vs_quadrature():
    # (1/Gamma(a)) int_0^t (1+s)^{-gamma} (t-s)^{a-1} ds, independent oracle
    # in the substituted variable tau = (t-s)^a
    params = FracParams(0.5, 0.5, 3)
    fs = ForcingSpec("gaussian", gamma=1.5, dim=3)
    a, t = params.alpha, 50.0
    val, _ = quad(
        lambda tau: (1.0 + t - tau ** (1.0 / a)) ** -fs.gamma / a,
        0.0,
        t**a,
        limit=400,
    )
    ref = fs.M0 * val / math.gamma(a)
    assert solution_mass(fs, params, t) == pytest.approx(ref, rel=1e-8)


def test_solution_mass_asymptotics_gamma2():
    # Gamma(a) M(t) t^{1-a} -> M_inf = M0 for gamma = 2
    params = FracParams(0.5, 0.5, 3)
    fs = ForcingSpec("gaussian", gamma=2.0, dim=3)
    vals = [
        math.gamma(0.5) * solution_mass(fs, params, t) * t**0.5 / fs.M0
        for t in (1e2, 1e4, 1e6)
    ]
    errs = [abs(v - 1.0) for v in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-2


def test_slice_positivity_and_mass_consistency():
    params = FracParams(0.5, 0.5, 3)
    fs = ForcingSpec("gaussian", gamma=1.5, dim=3)
    sl = solve_duhamel(fs, params, 100.0, GRID)
    assert np.all(sl.u.samples >= 0)
    got = radial_integral(sl.u, 3)
    ref = solution_mass(fs, params, 100.0)
    assert abs(got / ref - 1.0) < 1e-3


def test_sub_noise_negative_sample_is_clamped(monkeypatch):
    # a negative sample within 1e-12 of the largest is rounding residue: it
    # reads 0.0 and the slice is kept, where one below that floor raises
    params = FracParams(0.5, 0.5, 3)
    fs = ForcingSpec("gaussian", gamma=1.5, dim=3)
    clean = solve_duhamel(fs, params, 100.0, GRID).u.samples
    inverse = solver.radial_fourier_inverse

    def planted(symbol, dim, grid):
        samples = inverse(symbol, dim, grid).samples.copy()
        samples[100] = -0.5e-12 * samples.max()
        return RadialFunction(grid, samples)

    monkeypatch.setattr(solver, "radial_fourier_inverse", planted)
    got = solve_duhamel(fs, params, 100.0, GRID).u.samples
    assert got[100] == 0.0 and not np.signbit(got[100])
    assert np.array_equal(np.delete(got, 100), np.delete(clean, 100))


def test_linearity_in_amplitude():
    params = FracParams(0.5, 0.5, 3)
    a1 = solve_duhamel(ForcingSpec("gaussian", gamma=0.5, amplitude=1.0, dim=3), params, 10.0, GRID)
    a3 = solve_duhamel(ForcingSpec("gaussian", gamma=0.5, amplitude=3.0, dim=3), params, 10.0, GRID)
    sel = a1.u.samples > 1e-12 * a1.u.samples.max()
    assert np.max(np.abs(a3.u.samples[sel] / a1.u.samples[sel] - 3.0)) < 1e-10


def _exact_zeros(f):
    return np.array_equal(f.samples, np.zeros(f.grid.points)) and not np.signbit(f.samples).any()


def test_zero_amplitude():
    # zero data takes the ordinary path, whose noise clamp writes +0.0
    params = FracParams(0.5, 0.5, 3)
    for gamma in (0.0, 0.5):
        fs = ForcingSpec("gaussian", gamma=gamma, amplitude=0.0, dim=3)
        sl = solve_duhamel(fs, params, 10.0, GRID)
        assert sl.u.is_zero and _exact_zeros(sl.u)
    zero = RadialFunction(GRID, np.zeros(GRID.points))
    for mu in (0.5, 1.0, 2.0):
        assert _exact_zeros(riesz_potential(zero, mu, 3))


def test_stationary_convergence_gamma0():
    # gamma = 0: on compacts u(., t) converges to the Riesz potential limit
    # c_{2b} I_{2b}[g]; the sup-distance over [rho_min, 1] must shrink
    from fracasym.potentials import riesz_potential

    params = FracParams(0.5, 0.5, 3)
    fs = ForcingSpec("gaussian", gamma=0.0, dim=3)
    limit = riesz_potential(
        None, 1.0, 3, grid=GRID, ghat=lambda r: fs.ghat(r)
    )
    c1 = 1.0 / (2.0 * math.pi**2)
    errs = []
    for t in (1e2, 1e3, 1e4):
        sl = solve_duhamel(fs, params, t, GRID)
        sel = GRID.nodes <= 1.0
        num = np.abs(sl.u.samples[sel] - c1 * limit.samples[sel])
        errs.append(float(np.max(num / (c1 * limit.samples[sel]))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-2


def test_dim_mismatch_and_bad_time():
    params = FracParams(0.5, 0.5, 3)
    fs = ForcingSpec("gaussian", gamma=0.0, dim=5)
    with pytest.raises(SolverError):
        solve_duhamel(fs, params, 1.0, GRID)
    with pytest.raises(SolverError):
        solution_mass(ForcingSpec("gaussian", gamma=0.0, dim=3), params, -1.0)


def test_outer_reference_mass():
    # the mass-concentrated reference carries the same total mass as u; it is
    # the Duhamel symbol with g-hat replaced by the constant M0, the one that
    # outer-general compares u with
    params = FracParams(0.5, 0.5, 3)
    fs = ForcingSpec("gaussian", gamma=1.5, dim=3)
    M0 = fs.M0
    (ref,) = radial_fourier_inverses(
        duhamel_symbols(fs, params, (100.0,), spatial=lambda r: M0), 3, GRID
    )
    assert radial_integral(ref, 3) == pytest.approx(
        solution_mass(fs, params, 100.0), rel=1e-3
    )


def test_heat_duhamel_cross_check():
    # alpha = beta = 1, N = 5 with Gaussian forcing and gamma = 0: the slice
    # has the exact representation
    #   u(rho, t) = pi^{5/2} int_0^t (4 pi (s + 1/4))^{-5/2}
    #               exp(-rho^2 / (4 (s + 1/4))) ds
    params = FracParams(1.0, 1.0, 5, validation_mode=True)
    fs = ForcingSpec("gaussian", gamma=0.0, dim=5)
    t = 10.0
    sl = solve_duhamel(fs, params, t, GRID)
    for rho in (0.1, 1.0, 3.0):
        ref, _ = quad(
            lambda s: math.pi**2.5
            * (4.0 * math.pi * (s + 0.25)) ** -2.5
            * math.exp(-(rho**2) / (4.0 * (s + 0.25))),
            0.0,
            t,
            limit=200,
        )
        assert float(sl.u(rho)) == pytest.approx(ref, rel=1e-6)
