import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracasym.radialtransform import (
    ExtrapolationWarning,
    RadialFunction,
    RadialGrid,
    TransformError,
    lp_norm_annulus,
    omega_n,
    radial_fourier_forward,
    radial_fourier_inverse,
    radial_integral,
)


def test_omega_n():
    assert omega_n(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert omega_n(5) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-14)


def test_grid_validation():
    with pytest.raises(TransformError):
        RadialGrid(1.0, 0.5)
    with pytest.raises(TransformError):
        RadialGrid(1e-3, 1e3, 10)


# --- Gaussian transform pairs -------------------------------------------------


def test_inverse_gaussian_n3():
    # F^{-1}[e^{-r^2/2}](rho) = (2 pi)^{-3/2} e^{-rho^2/2} in N = 3
    grid = RadialGrid(1e-3, 50.0, 512)
    h = radial_fourier_inverse(lambda r: np.exp(-0.5 * np.asarray(r) ** 2), 3, grid)
    ref = (2.0 * math.pi) ** -1.5 * np.exp(-0.5 * grid.nodes**2)
    sel = grid.nodes < 8.0
    assert np.max(np.abs(h.samples[sel] - ref[sel])) < 1e-9
    # value at the inner edge: (2 pi)^{-3/2} ~ 0.0634936
    assert float(h(1e-3)) == pytest.approx(
        (2.0 * math.pi) ** -1.5 * math.exp(-0.5e-6), rel=1e-8
    )


def test_inverse_gaussian_n5():
    # F^{-1}[e^{-r^2}](rho) = (4 pi)^{-5/2} e^{-rho^2/4} in N = 5
    grid = RadialGrid(1e-3, 50.0, 512)
    h = radial_fourier_inverse(lambda r: np.exp(-np.asarray(r) ** 2), 5, grid)
    # value at the inner edge: (4 pi)^{-5/2} ~ 0.0017865
    assert float(h(1e-3)) == pytest.approx(
        (4.0 * math.pi) ** -2.5 * math.exp(-0.25e-6), rel=1e-8
    )
    ref = (4.0 * math.pi) ** -2.5 * np.exp(-0.25 * grid.nodes**2)
    sel = grid.nodes < 10.0
    assert np.max(np.abs(h.samples[sel] - ref[sel])) < 1e-9


def test_forward_gaussian_n3():
    # F[e^{-rho^2/2}](r) = (2 pi)^{3/2} e^{-r^2/2}
    grid = RadialGrid(1e-4, 60.0, 640)
    h = RadialFunction(grid, np.exp(-0.5 * grid.nodes**2))
    fwd = radial_fourier_forward(h, 3)
    # value near zero frequency: (2 pi)^{3/2} ~ 15.7496
    assert fwd(1e-3) == pytest.approx((2.0 * math.pi) ** 1.5 * math.exp(-0.5e-6), rel=1e-7)
    r = np.array([0.5, 1.0, 2.0, 5.0])
    ref = (2.0 * math.pi) ** 1.5 * np.exp(-0.5 * r**2)
    assert np.max(np.abs(fwd(r) - ref) / ref[0]) < 1e-8


def test_forward_mass_identity():
    # g-hat(0+) equals the total mass: e^{-rho^2} in N = 3 has mass pi^{3/2}
    grid = RadialGrid(1e-4, 60.0, 640)
    h = RadialFunction(grid, np.exp(-grid.nodes**2))
    fwd = radial_fourier_forward(h, 3)
    assert fwd(1e-4) == pytest.approx(math.pi**1.5, rel=1e-7)
    assert radial_integral(h, 3) == pytest.approx(math.pi**1.5, rel=1e-6)


def test_heavy_tail_pair_n3():
    # F^{-1}[(1+r^2)^{-2}](rho) = e^{-rho}/(8 pi) in N = 3
    grid = RadialGrid(1e-2, 25.0, 512)
    h = radial_fourier_inverse(lambda r: (1.0 + np.asarray(r) ** 2) ** -2.0, 3, grid)
    ref = np.exp(-grid.nodes) / (8.0 * math.pi)
    sel = grid.nodes <= 20.0
    assert np.max(np.abs(h.samples[sel] / ref[sel] - 1.0)) < 1e-5


@pytest.mark.parametrize("dim", [3, 5])
def test_round_trip(dim):
    # inverse then forward reproduces the symbol where it is above the
    # information floor (1e-8 of the peak); below that the round trip carries
    # no signal by construction
    grid = RadialGrid(1e-3, 40.0, 512)
    symbol = lambda r: np.exp(-0.5 * np.asarray(r) ** 2)
    h = radial_fourier_inverse(symbol, dim, grid)
    fwd = radial_fourier_forward(h, dim)
    r = np.geomspace(1e-2, 8.0, 120)
    ref = symbol(r)
    mask = ref > 1e-8 * ref.max()
    assert np.max(np.abs(fwd(r[mask]) - ref[mask])) < 1e-6


def test_symbol_decay_guard():
    grid = RadialGrid(1e-2, 10.0, 128)
    with pytest.raises(TransformError):
        radial_fourier_inverse(lambda r: np.ones_like(np.asarray(r, dtype=float)), 3, grid)


def test_forward_integrability_guard():
    grid = RadialGrid(1e-3, 1e3, 128)
    h = RadialFunction(grid, grid.nodes**-2.0)  # decays like rho^{-2}: not L^1(rho^2 drho)
    with pytest.raises(TransformError):
        radial_fourier_forward(h, 3)


# --- norms and integrals ------------------------------------------------------


def test_lp_norm_power_law_exact():
    grid = RadialGrid(1e-3, 1e3, 512)
    u = RadialFunction(grid, grid.nodes**-1.0)
    # omega_3 int_1^2 rho^{-1} rho^2 drho = 4 pi * 3/2 = 6 pi
    assert lp_norm_annulus(u, 1.0, 3, 1.0, 2.0) == pytest.approx(6.0 * math.pi, rel=1e-10)
    assert lp_norm_annulus(u, math.inf, 3, 1.0, 2.0) == pytest.approx(1.0, rel=1e-9)


def test_lp_norm_matches_per_cell_loop():
    # reference: one 8-point Gauss-Legendre rule in log rho per grid cell,
    # summed cell by cell; only the order of the floating-point sum differs
    grid = RadialGrid(1e-2, 1e2, 128)
    u = RadialFunction(grid, np.exp(-grid.nodes) / (1.0 + grid.nodes**2))
    xg, wg = np.polynomial.legendre.leggauss(8)
    for p, a, b in ((1.0, 0.0173, 37.0), (2.5, 0.5, 0.6)):
        inner = grid.nodes[(grid.nodes > a) & (grid.nodes < b)]
        edges = np.log(np.concatenate([[a], inner, [b]]))
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            rho = np.exp(0.5 * (hi + lo) + half * xg)
            total += half * np.dot(wg, np.abs(u(rho)) ** p * rho**3)
        expected = (omega_n(3) * total) ** (1.0 / p)
        got = lp_norm_annulus(u, p, 3, a, b)
        assert got == pytest.approx(expected, rel=1000 * np.finfo(float).eps)


def test_lp_norm_zero_function():
    grid = RadialGrid(1e-3, 1e3, 128)
    z = RadialFunction(grid, np.zeros(grid.points))
    assert z.is_zero
    assert lp_norm_annulus(z, 2.0, 3, 0.5, 5.0) == 0.0
    assert radial_integral(z, 3) == 0.0


def test_lp_norm_tail_extrapolation():
    # annulus beyond the grid edge: analytic power-law piece
    grid = RadialGrid(1e-1, 1e2, 256)
    u = RadialFunction(grid, grid.nodes**-4.0)
    # p=1, N=3: omega_3 int_a^b rho^{-2} drho
    got = lp_norm_annulus(u, 1.0, 3, 1e3, 1e4)
    ref = 4.0 * math.pi * (1e-3 - 1e-4)
    assert got == pytest.approx(ref, rel=1e-6)


def test_lp_norm_finite_range_beyond_grid():
    # a power-law piece over a finite range beyond the grid is finite, whatever
    # the sign of its exponent; e = 0 (rho^{-3} in N = 3) takes the log form,
    # and on 203 points the fitted e = 5e-15 must not cancel
    for points, k, a, b, ref in (
        (256, -4.0, 1e-4, 1e-2, 4.0 * math.pi * (1e4 - 1e2)),
        (256, -1.0, 1e2, 1e4, 2.0 * math.pi * (1e8 - 1e4)),
        (256, -3.0, 1e-4, 1e-2, 4.0 * math.pi * math.log(100.0)),
        (203, -3.0, 1e-4, 1e-2, 4.0 * math.pi * math.log(100.0)),
    ):
        grid = RadialGrid(1e-3, 1e3, points)
        u = RadialFunction(grid, grid.nodes**k)
        assert lp_norm_annulus(u, 1.0, 3, a, b) == pytest.approx(ref, rel=1e-12)


def test_lp_norm_argument_errors():
    grid = RadialGrid(1e-3, 1e3, 128)
    u = RadialFunction(grid, np.exp(-grid.nodes))
    with pytest.raises(TransformError):
        lp_norm_annulus(u, 0.5, 3, 1.0, 2.0)
    with pytest.raises(TransformError):
        lp_norm_annulus(u, 1.0, 3, 2.0, 1.0)


def test_radial_integral_gaussian():
    grid = RadialGrid(1e-4, 50.0, 512)
    u = RadialFunction(grid, np.exp(-grid.nodes**2))
    assert radial_integral(u, 3) == pytest.approx(math.pi**1.5, rel=1e-6)
    assert radial_integral(u, 5) == pytest.approx(math.pi**2.5, rel=1e-6)


def test_radial_integral_is_l1_norm_of_positive_function():
    # one moment serves both: for u > 0 the signed integral is the L^1 norm;
    # only lp_norm_annulus warns about the power-law pieces
    grid = RadialGrid(1e-3, 1e3, 256)
    u = RadialFunction(grid, grid.nodes**-1.0 / (1.0 + grid.nodes**6))
    for dim in (3, 5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total = radial_integral(u, dim)
        with pytest.warns(ExtrapolationWarning):
            norm = lp_norm_annulus(u, 1.0, dim, 0.0, math.inf)
        assert abs(total - norm) <= 4 * np.spacing(norm)


def test_fitted_exponents():
    grid = RadialGrid(1e-3, 1e3, 512)
    u = RadialFunction(grid, grid.nodes**-2.5)
    assert u.inner_exponent == pytest.approx(-2.5, abs=1e-8)
    assert u.outer_exponent == pytest.approx(-2.5, abs=1e-8)


def test_save_load_round_trip(tmp_path):
    grid = RadialGrid(1e-3, 1e2, 256)
    u = RadialFunction(grid, np.exp(-grid.nodes))
    path = str(tmp_path / "profile.csv")
    u.save(path, extra_metadata={"tag": "test"})
    v, meta = RadialFunction.load(path)
    assert np.array_equal(v.samples, u.samples)
    assert meta["tag"] == "test"
    assert meta["points"] == 256


@given(
    c=st.floats(0.1, 10.0),
    p=st.sampled_from([1.0, 2.0, math.inf]),
)
@settings(max_examples=20)
def test_lp_norm_homogeneous(c, p):
    grid = RadialGrid(1e-2, 1e2, 256)
    u = RadialFunction(grid, np.exp(-grid.nodes))
    v = RadialFunction(grid, c * np.exp(-grid.nodes))
    a, b = 0.5, 20.0
    assert lp_norm_annulus(v, p, 3, a, b) == pytest.approx(
        c * lp_norm_annulus(u, p, 3, a, b), rel=1e-10
    )


@given(split=st.floats(1.0, 15.0))
@settings(max_examples=20)
def test_l1_norm_additive_over_annuli(split):
    grid = RadialGrid(1e-2, 1e2, 256)
    u = RadialFunction(grid, np.exp(-grid.nodes))
    a, b = 0.5, 20.0
    whole = lp_norm_annulus(u, 1.0, 3, a, b)
    parts = lp_norm_annulus(u, 1.0, 3, a, split) + lp_norm_annulus(u, 1.0, 3, split, b)
    assert whole == pytest.approx(parts, rel=1e-9)
