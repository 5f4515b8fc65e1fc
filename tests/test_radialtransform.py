import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, make_interp_spline
from scipy.stats import binom

from fracasym import kernels, radialtransform, spline
from fracasym.params import FracParams
from fracasym.radialtransform import (
    _BLOCK_ROWS,
    ExtrapolationWarning,
    RadialFunction,
    RadialGrid,
    TransformError,
    _engine,
    lp_norm_annulus,
    omega_n,
    radial_fourier_forward,
    radial_fourier_inverse,
    radial_fourier_inverses,
    radial_integral,
)
from fracasym.potentials import _ghat_from_samples
from fracasym.solver import ForcingSpec, _build_w_table, _w_knots, duhamel_symbols
from fracasym.special import lsq_slope
from fracasym.spline import SplineError, UniformSpline


def test_omega_n():
    assert omega_n(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert omega_n(5) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-14)


def test_omega_n_refuses_a_dimension_that_is_not_a_positive_whole_number():
    # a norm may pass N as 3.0, and an even N is a sphere too; before this
    # refusal N = -1 gave a complex norm, N = 0 a bare ValueError from
    # math.gamma and N = nan a nan, and the sup (p = inf), which needs no
    # omega_N, took any N
    assert omega_n(3.0) == omega_n(3)
    assert omega_n(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    grid = RadialGrid(1e-3, 1e3, 256)
    f = RadialFunction(grid, np.exp(-grid.nodes**2))
    assert lp_norm_annulus(f, 2.0, 3.0, 0.5, 1.0) == lp_norm_annulus(f, 2.0, 3, 0.5, 1.0)
    for dim in (-1, 0, 0.5, 2.5, math.nan, math.inf):
        with pytest.raises(TransformError, match="positive whole number"):
            omega_n(dim)
        for p in (2.0, math.inf):
            with pytest.raises(TransformError, match="positive whole number"):
                lp_norm_annulus(f, p, dim, 0.5, 1.0)
        with pytest.raises(TransformError, match="positive whole number"):
            radial_integral(f, dim)


def test_grid_validation():
    with pytest.raises(TransformError):
        RadialGrid(1.0, 0.5)
    with pytest.raises(TransformError):
        RadialGrid(1e-3, 1e3, 10)
    # NaN passed the `points < 64` test, and 100.5 failed only at .nodes,
    # with a bare TypeError
    for points in (math.nan, math.inf, 100.5, "768", None):
        with pytest.raises(TransformError, match="whole number"):
            RadialGrid(1e-3, 1e3, points)
    grid = RadialGrid(1e-3, 1e3, 768.0)
    assert type(grid.points) is int and grid == RadialGrid()


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


def test_inverse_gaussian_n7():
    # F^{-1}[e^{-r^2}](rho) = (4 pi)^{-7/2} e^{-rho^2/4} in N = 7: the nu = 5/2
    # engine
    grid = RadialGrid(1e-3, 50.0, 512)
    h = radial_fourier_inverse(lambda r: np.exp(-np.asarray(r) ** 2), 7, grid)
    # value at the inner edge: (4 pi)^{-7/2} ~ 1.4217e-4
    assert float(h(1e-3)) == pytest.approx(
        (4.0 * math.pi) ** -3.5 * math.exp(-0.25e-6), rel=1e-8
    )
    ref = (4.0 * math.pi) ** -3.5 * np.exp(-0.25 * grid.nodes**2)
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


# --- the engine's folded weights ----------------------------------------------


def _panel_averaging(eng, symbol, rho):
    """Reference: the panel series summed step by step, with no folded
    weights.  Long-double panel sums, the head and first panels summed
    directly, the partial sums of the rest averaged pairwise until one value
    is left; the same noise floor.  r is divided in the engine's precision."""
    r = eng.x[None, :] / rho.astype(eng.x.dtype)[:, None]
    contrib = np.asarray(symbol(r)).astype(np.longdouble) * eng.kernel[None, :]
    panels = contrib.reshape(len(rho), -1, eng.GL_PTS).sum(axis=2)
    n_fixed = eng.HEAD_PANELS + eng.N_DIRECT
    tail = np.cumsum(panels[:, n_fixed:], axis=1)
    while tail.shape[1] > 1:
        tail = 0.5 * (tail[:, 1:] + tail[:, :-1])
    cf = np.abs(contrib.astype(float))
    noise = 1e-16 * np.sqrt((cf**2).sum(axis=1)) + 5e-17 * cf.sum(axis=1)
    return (panels[:, :n_fixed].sum(axis=1) + tail[:, 0]).astype(float), noise


_ENGINE_SYMBOLS = {
    "gaussian": lambda r: np.exp(-np.asarray(r, dtype=float) ** 2),
    "singular": lambda r: np.asarray(r, dtype=float) ** -1.5
    * np.exp(-np.asarray(r, dtype=float)),
    "exponential": lambda r: np.exp(-np.asarray(r, dtype=float)),
}


@pytest.mark.parametrize("dim", [3, 5, 7])
@pytest.mark.parametrize("name", sorted(_ENGINE_SYMBOLS))
def test_engine_matches_panel_averaging(dim, name):
    # the folded weights change only the order of the long-double sum: every
    # row within a quarter of its own noise, far below the 8x clamp
    eng, symbol, rho = _engine(dim), _ENGINE_SYMBOLS[name], RadialGrid().nodes
    (got,), (noise,) = eng.integrate(lambda r: (symbol(r),), rho)
    ref, ref_noise = _panel_averaging(eng, symbol, rho)
    assert np.all(np.abs(got - ref) <= 0.25 * noise)
    assert np.allclose(noise, ref_noise, rtol=1e-15, atol=0.0)
    zeroed = eng.transform(lambda r: (symbol(r),), rho, -1)[0] == 0.0
    assert np.array_equal(zeroed, np.abs(ref) < 8.0 * ref_noise)


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_engine_panel_weights(dim):
    eng = _engine(dim)
    w = eng.panel_weights
    n_fixed = eng.HEAD_PANELS + eng.N_DIRECT
    m = len(w) - n_fixed - 1
    assert m == 70
    assert np.all(w[:n_fixed] == 1.0)
    assert np.all(np.diff(w) <= 0.0)
    assert float(w[-1]) == pytest.approx(2.0**-m, rel=1e-15)
    # tail panel j carries P(Bin(m, 1/2) >= j)
    j = np.arange(m + 1)
    assert np.allclose(w[n_fixed:].astype(float), binom.sf(j - 1, m, 0.5), rtol=1e-13)
    assert np.array_equal(eng.k_eff, eng.kernel * np.repeat(w, eng.GL_PTS))


# --- the engine's row blocks --------------------------------------------------


def _whole_array_integrate(eng, symbol, rho):
    """Reference: the symbol evaluated on all rows of r = x/rho at once (divided
    in the engine's precision, passed as float64), then one product in it and
    one noise pass over the whole array."""
    r = (eng.x[None, :] / rho.astype(eng.x.dtype)[:, None]).astype(float)
    vals = np.asarray(symbol(r))
    integral = np.einsum("ij,j->i", vals, eng.k_eff)
    cf = np.abs(vals.astype(float, copy=False) * eng.kernel.astype(float))
    noise = 1e-16 * np.sqrt((cf**2).sum(axis=1)) + 5e-17 * cf.sum(axis=1)
    return integral.astype(float), noise


def _g_symbol(params, t):
    g = kernels._symbol(params, "G", (t,))
    return lambda r: next(g(r ** (2.0 * params.beta)))


def _block_symbols(dim):
    params = FracParams(0.5, 0.5, dim)
    duhamel = duhamel_symbols(ForcingSpec("gaussian", gamma=2.0, dim=dim), params, (1e4,))
    return {
        "G": _g_symbol(params, 1e3),
        "duhamel": lambda r: next(duhamel(r)),
        "gaussian": lambda r: np.exp(-np.asarray(r, dtype=float) ** 2),
    }


def _check_blocks(eng, symbols):
    # rows are independent, so blocking changes no bit, and each of K outputs
    # keeps the bits it has alone; 64 and 768 points end on a full block, 100
    # and 1000 on a ragged one
    for points in (64, 100, 768, 1000):
        rho = RadialGrid(1e-3, 1e3, points).nodes
        rows = []

        def recording(r):
            assert r.dtype == np.float64  # the engine's symbol contract
            rows.append(r.shape[0])
            return [symbol(r) for symbol in symbols]

        got, noise = eng.integrate(recording, rho)
        assert got.shape == noise.shape == (len(symbols), points)
        for k, symbol in enumerate(symbols):
            ref, ref_noise = _whole_array_integrate(eng, symbol, rho)
            assert np.array_equal(got[k], ref)
            assert np.array_equal(noise[k], ref_noise)
        assert max(rows) <= _BLOCK_ROWS
        assert sum(rows) == points
        assert rows[-1] == (points % _BLOCK_ROWS or _BLOCK_ROWS)


@pytest.mark.parametrize("dim", [3, 5, 7])
@pytest.mark.parametrize("name", ["G", "duhamel", "gaussian"])
def test_engine_blocks_match_whole_array(dim, name):
    _check_blocks(_engine(dim), [_block_symbols(dim)[name]])


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_engine_blocks_match_whole_array_batched(dim):
    # K = 3 outputs per block: each matches its whole-array transform
    _check_blocks(_engine(dim), list(_block_symbols(dim).values()))


def test_inverses_match_single_transforms():
    # the batched entry's outputs are the one-symbol transforms, bit for bit
    symbols = list(_block_symbols(3).values())
    batched = radial_fourier_inverses(lambda r: [s(r) for s in symbols], 3)
    assert len(batched) == len(symbols)
    for u, symbol in zip(batched, symbols):
        assert np.array_equal(u.samples, radial_fourier_inverse(symbol, 3).samples)


def _traced_peak(transform):
    """tracemalloc's peak over one call of transform, after a warm-up call
    (engine, Mittag-Leffler table, time-weight tables)."""
    transform()
    tracemalloc.start()
    try:
        transform()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transform_memory_is_bounded():
    # one default-grid G transform evaluates its symbol block by block: the
    # whole-array version peaked at 102 MiB of traced allocations, this one
    # at 1.56 MiB (numpy 2.4.6)
    symbol = _g_symbol(FracParams(0.5, 0.5, 3), 1e3)
    assert _traced_peak(lambda: radial_fourier_inverse(symbol, 3)) < 2 * 2**20


def test_batched_pass_holds_one_output_at_a_time():
    # the engine sums each output of a block as the symbol yields it, so K
    # checkpoints in one pass peak where one does: a pass that held all K
    # outputs of a block peaked 0.95 MiB above K = 1 at K = 3, this one 0.03
    fs, params = ForcingSpec("gaussian", gamma=2.0, dim=3), FracParams(0.5, 0.5, 3)
    peaks = [
        _traced_peak(lambda symbols=duhamel_symbols(fs, params, times):
                     radial_fourier_inverses(symbols, 3))
        for times in ((1e2,), (1e2, 1e3, 1e4))
    ]
    assert peaks[1] - peaks[0] < 0.25 * 2**20


def test_engine_keeps_no_reference_to_an_output():
    # by the time the symbol forms its next output, the engine has summed
    # the last one and let it go
    grid = RadialGrid(1e-3, 1e3, 100)
    refs = []

    def symbols(r):
        block = r.shape[0] > 1  # an engine block, not the 1 x 4 decay probe
        for k in range(3):
            assert all(ref() is None for ref in refs), "an earlier output is alive"
            out = np.exp(-(k + 1.0) * r**2)
            if block:
                refs.append(weakref.ref(out))
            yield out
            del out

    assert len(radial_fourier_inverses(symbols, 3, grid)) == 3
    assert len(refs) == 3 * -(-grid.points // _BLOCK_ROWS)  # every block's outputs


def test_engine_rejects_non_finite_in_last_block():
    # NaN only at the last node, rho = rho_max, in the ragged final block of
    # a 100-point grid; r_last is rounded to float64 as the engine rounds r
    grid = RadialGrid(1e-3, 1e3, 100)
    x = _engine(3).x
    r_last = float(x[0] / x.dtype.type(grid.nodes[-1]))
    rows = []

    def symbol(r):
        rows.append(np.shape(r)[0])
        out = np.exp(-np.asarray(r, dtype=float) ** 2)
        out[np.asarray(r) <= r_last] = np.nan
        return out

    # the engine's own guard, not RadialFunction's check of the samples
    with pytest.raises(TransformError, match="symbol produced non-finite"):
        radial_fourier_inverse(symbol, 3, grid)
    assert rows[-2:] == [_BLOCK_ROWS, 100 % _BLOCK_ROWS]


def _check_non_finite(plant, k, K):
    # the engine checks each block's row sums of each output, not its values:
    # one +inf, one NaN, or a +inf and a -inf in one row (whose products would
    # cancel to NaN, not to a finite number) each make a sum non-finite, in
    # any one of K outputs
    grid = RadialGrid(1e-3, 1e3, 100)
    bad = {"inf": [np.inf], "nan": [np.nan], "both infinities": [np.inf, -np.inf]}[plant]
    blocks = []

    def symbols(r):
        outs = [np.exp(-np.asarray(r, dtype=float) ** 2) for _ in range(K)]
        if r.shape[0] == _BLOCK_ROWS:  # an engine block, not the decay probe
            blocks.append(r.shape)
            if len(blocks) == 3:  # the third block, its middle row
                outs[k][_BLOCK_ROWS // 2, 100 : 100 + len(bad)] = bad
        return outs

    with pytest.raises(TransformError, match="symbol produced non-finite"):
        if K == 1:
            radial_fourier_inverse(lambda r: symbols(r)[0], 3, grid)
        else:
            radial_fourier_inverses(symbols, 3, grid)
    assert len(blocks) == 3


@pytest.mark.parametrize("plant", ["inf", "nan", "both infinities"])
def test_engine_rejects_each_non_finite_kind(plant):
    _check_non_finite(plant, 0, 1)


@pytest.mark.parametrize("plant", ["inf", "nan", "both infinities"])
@pytest.mark.parametrize("k", [0, 2])
def test_engine_rejects_non_finite_in_any_output(plant, k):
    _check_non_finite(plant, k, 3)


def _check_wrong_shape(k, K):
    grid = RadialGrid(1e-3, 1e3, 100)
    good = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
    flat = lambda r: good(r).ravel()
    short = lambda r: np.exp(-np.asarray(r, dtype=float)[:, :-1] ** 2)
    with_one = lambda wrong: lambda r: [wrong(r) if i == k else good(r) for i in range(K)]
    with pytest.raises(TransformError, match="symbol must evaluate elementwise"):
        radial_fourier_inverses(with_one(flat), 3, grid)
    # (short fails the decay probe first, so it goes to the engine directly)
    for wrong in (flat, short):
        with pytest.raises(TransformError, match="symbol must evaluate elementwise"):
            _engine(3).integrate(with_one(wrong), grid.nodes)


def test_engine_rejects_wrong_shape():
    grid = RadialGrid(1e-3, 1e3, 100)
    flat = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2).ravel()
    with pytest.raises(TransformError, match="symbol must evaluate elementwise"):
        radial_fourier_inverse(flat, 3, grid)
    _check_wrong_shape(0, 1)


@pytest.mark.parametrize("k", [0, 2])
def test_engine_rejects_wrong_shape_in_any_output(k):
    _check_wrong_shape(k, 3)


def test_engine_rejects_a_changing_number_of_outputs():
    grid = RadialGrid(1e-3, 1e3, 100)
    calls = []

    def symbols(r):
        calls.append(r.shape)
        return [np.exp(-r**2)] * (1 if len(calls) == 1 else 2)

    with pytest.raises(TransformError, match="number of outputs"):
        _engine(3).integrate(symbols, grid.nodes)


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


def test_lp_inf_annulus_below_the_grid():
    # an annulus that ends more than six decades below rho_min: every sample
    # must lie in [a, b], where the sup of rho^2 is b^2 (samples taken from
    # rho_min * 1e-6 down to b read 1e-18 over (0, 1e-10])
    grid = RadialGrid()
    u = RadialFunction(grid, grid.nodes**2)
    for a in (0.0, 1e-12):
        with pytest.warns(ExtrapolationWarning):
            sup = lp_norm_annulus(u, math.inf, 3, a, 1e-10)
        assert sup == pytest.approx(1e-20, rel=1e-9, abs=0.0)


def test_sup_at_zero_is_inf_where_the_inner_tail_is_unbounded(monkeypatch):
    # rho^{-1} continues as rho^{-1} below the grid: its sup over (0, 1] is
    # inf, as its L^3 norm there is (the sup read 1e9, its value six decades
    # below the grid); a sup inside the grid fits no tail
    _, fits = _count_builds(monkeypatch)
    grid = RadialGrid()
    u = RadialFunction(grid, 1.0 / grid.nodes)
    assert lp_norm_annulus(u, math.inf, 3, 0.1, 1.0) == pytest.approx(10.0, rel=1e-12)
    assert fits == []
    for p in (math.inf, 3.0):
        with pytest.warns(ExtrapolationWarning):
            assert lp_norm_annulus(u, p, 3, 0.0, 1.0) == math.inf


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
    with pytest.warns(ExtrapolationWarning):
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
        with pytest.warns(ExtrapolationWarning):
            got = lp_norm_annulus(u, 1.0, 3, a, b)
        assert got == pytest.approx(ref, rel=1e-12)


def test_lp_norm_argument_errors():
    grid = RadialGrid(1e-3, 1e3, 128)
    u = RadialFunction(grid, np.exp(-grid.nodes))
    with pytest.raises(TransformError):
        lp_norm_annulus(u, 0.5, 3, 1.0, 2.0)
    with pytest.raises(TransformError):
        lp_norm_annulus(u, 1.0, 3, 2.0, 1.0)


def test_lp_norm_refuses_nan_p():
    # a NaN p passed the test p < 1 and came back as a NaN norm
    grid = RadialGrid(1e-3, 1e3, 128)
    with pytest.raises(TransformError, match="p must be in"):
        lp_norm_annulus(RadialFunction(grid, np.exp(-grid.nodes)), math.nan, 3, 1.0, 2.0)


def test_sup_norm_refuses_an_infinite_b():
    # the sup is sampled on [a, b]: b = inf once raised OverflowError while
    # sizing the samples from log(b / lo)
    grid = RadialGrid(1e-3, 1e3, 128)
    u = RadialFunction(grid, np.exp(-grid.nodes))
    with pytest.raises(TransformError, match="finite b"):
        lp_norm_annulus(u, math.inf, 3, 1.0, math.inf)
    # a finite p integrates to infinity; the last sample is 0, so no fitted
    # piece is read and nothing warns
    assert u.tail(False) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(lp_norm_annulus(u, 2.0, 3, 1.0, math.inf))


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


# --- zeros and tails: one rule ------------------------------------------------


def _planted(zeros=0, edge=None):
    """rho^{-4} e^{-rho} on 256 points over [1e-3, 1e3], with its first
    `zeros` samples set to 0 and then its first sample to `edge`."""
    grid = RadialGrid(1e-3, 1e3, 256)
    samples = grid.nodes**-4.0 * np.exp(-grid.nodes)
    samples[:zeros] = 0.0
    if edge is not None:
        samples[0] = edge
    return RadialFunction(grid, samples)


def test_no_sample_is_kept_at_or_below_1e_300():
    # a sample of size at most 1e-300 is stored as +0.0, whatever its sign;
    # one above it is kept
    grid = RadialGrid(1e-2, 10.0, 128)
    samples = np.full(grid.points, 1e-299)
    samples[:6] = [1e-300, -1e-300, 5e-324, -5e-324, -0.0, 1e-301]
    u = RadialFunction(grid, samples)
    assert np.all((u.samples == 0.0) | (np.abs(u.samples) > 1e-300))
    assert np.array_equal(u.samples[:6], np.zeros(6)) and not np.signbit(u.samples).any()
    assert np.all(u.samples[6:] == 1e-299)
    assert RadialFunction(grid, np.full(grid.points, -1e-301)).is_zero
    # the clamped samples of a transform output are +0.0
    h = radial_fourier_inverse(lambda r: np.exp(-(r**2)), 3, RadialGrid(1e-3, 1e3, 128))
    zero = h.samples == 0.0
    assert zero.any() and not np.signbit(h.samples[zero]).any()
    assert np.all(np.abs(h.samples[~zero]) > 1e-300)


def test_an_edge_sample_below_1e_300_has_no_tail():
    # the sample 1e-301 is a zero: the profile is 0 below the grid, and its
    # integral is the one with that sample at 0 (it was inf, from a power law
    # fitted to the core above and continued from the edge)
    u, zeroed = _planted(edge=1e-301), _planted(edge=0.0)
    total = radial_integral(u, 3)
    assert math.isfinite(total) and total == radial_integral(zeroed, 3)
    assert total == pytest.approx(11812.21, rel=1e-6)
    assert u(1e-4) == 0.0 and u.tail(True) is None


def test_forward_accepts_a_profile_zero_below_its_core():
    # zero below its core, the profile has no power law at 0 to refuse (it
    # was refused as "not integrable at 0" while radial_integral integrated
    # it); the refusals read the same rule as the integral
    u = _planted(zeros=10)
    assert np.all(np.isfinite(radial_fourier_forward(u, 3)(np.array([0.5, 1.0]))))
    assert radial_integral(u, 3) == pytest.approx(7224.65, rel=1e-6)
    assert u.tail(True) is None
    # with its power law at 0, rho^{-4} is refused there
    with pytest.raises(TransformError, match="at 0"):
        radial_fourier_forward(_planted(), 3)


def test_no_warning_where_the_range_leaves_the_grid_without_a_tail():
    # the warning names the fitted pieces a norm rests on: the planted
    # profile's last sample is 0 (e^{-1000} underflows), so [1, inf) reads no
    # fitted piece, and with its first 10 samples zero neither does [0, 1]
    u, cored = _planted(), _planted(zeros=10)
    assert u.tail(False) is None and cored.tail(True) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp_norm_annulus(u, 2.0, 3, 1.0, math.inf)
        for p in (1.0, math.inf):
            lp_norm_annulus(cored, p, 3, 0.0, 1.0)
    with pytest.warns(ExtrapolationWarning):  # rho^{-4} below the grid is fitted
        lp_norm_annulus(u, 1.0, 3, 1e-4, 1.0)


def test_save_writes_null_for_an_end_without_a_tail(tmp_path):
    # the sidecar records tail's exponents: the fitted one at 0, and null
    # above the grid, where the last sample is 0 (it read a fitted -241.36)
    u = _planted()
    path = str(tmp_path / "u.csv")
    u.save(path)
    with open(tmp_path / "u.json") as fh:
        meta = json.load(fh)
    assert meta["outer_exponent"] is None
    assert meta["inner_exponent"] == u.tail(True)[2] == pytest.approx(-4.0, abs=1e-2)
    assert np.array_equal(RadialFunction.load(path)[0].samples, u.samples)


def test_fitted_exponents():
    grid = RadialGrid(1e-3, 1e3, 512)
    u = RadialFunction(grid, grid.nodes**-2.5)
    assert u.tail(True)[2] == pytest.approx(-2.5, abs=1e-8)
    assert u.tail(False)[2] == pytest.approx(-2.5, abs=1e-8)


@pytest.mark.parametrize("n_core", [1, 2, 3, 4, 5, 6, 768])
def test_single_signed_core_is_the_interpolant(n_core):
    # the log-log core of degree min(5, n - 1) is evaluated in piecewise-
    # polynomial form: the same interpolant as make_interp_spline's B-spline,
    # at the nodes and at the midpoints between them
    grid = RadialGrid()
    i0 = 0 if n_core == grid.points else 300
    core = slice(i0, i0 + n_core)
    samples = np.zeros(grid.points)
    samples[core] = 1.0 / (1.0 + grid.nodes[core] ** 2)
    u = RadialFunction(grid, samples)
    nodes = grid.nodes[core]
    rho = np.concatenate([nodes, np.sqrt(nodes[1:] * nodes[:-1])])
    spline = make_interp_spline(np.log(nodes), np.log(samples[core]), k=min(5, n_core - 1))
    ref = np.exp(spline(np.log(rho)))
    assert np.max(np.abs(u(rho) / ref - 1.0)) < 1e-14
    if n_core == 1:
        # the one-sample core lies inside the grid: no end has a tail
        assert u.tail(True) is None and u.tail(False) is None


def _cubic_user(name):
    """(sites, values, the user's own evaluator over the sites' variable) of
    each cubic spline in the package."""
    if name == "w-table":
        lam, w = _w_knots(0.5, 2.0, 1e4)
        spline = _build_w_table(0.5, 2.0, 1e4)[4]
        return np.log(lam), np.log(w), spline
    if name == "ghat-900":
        grid = RadialGrid(1e-2, 10.0, 512)
        g = RadialFunction(grid, np.exp(-grid.nodes**2))
        r = np.geomspace(1e-5, 1e5, 900)
        vals = radial_fourier_forward(g, 3)(r)
        vals[np.abs(vals) < 1e-13 * np.max(np.abs(vals))] = 0.0
        ghat = _ghat_from_samples(grid, g.samples.tobytes(), 3)
        return np.log(r), vals, lambda u: ghat(np.exp(u))
    grid = RadialGrid()  # mixed sign: a cubic on plain values
    rho = grid.nodes
    u = RadialFunction(grid, (1.0 - rho**2) * np.exp(-(rho**2)))
    return np.log(rho), u.samples, lambda v: u(np.exp(v))


@pytest.mark.parametrize("name", ["w-table", "ghat-900", "mixed-sign"])
def test_cubic_users_are_the_cubic_spline(name):
    # the W table (1201 knots), the sampled g-hat (900) and a mixed-sign
    # RadialFunction (768) interpolate as scipy's not-a-knot CubicSpline, at
    # the sites and midway between them
    x, y, evaluate = _cubic_user(name)
    u = np.concatenate([x[1:-1], 0.5 * (x[1:] + x[:-1])])
    ref = CubicSpline(x, y)(u)
    assert np.max(np.abs(evaluate(u) - ref)) <= 1e-14 * np.max(np.abs(y))


def _factor_reference(band):
    """The factor rows as built before rows were shared: one tuple per row,
    every row eliminated."""
    w = band.shape[1] // 2
    lu = []
    for i, row in enumerate(band.tolist()):
        for c in range(max(0, w - i), w):
            if row[c]:
                upper = lu[i - w + c]
                f = row[c] = row[c] / upper[w]
                for s in range(1, w + 1):
                    row[c + s] -= f * upper[w + s]
        lu.append(tuple(row))
    return lu


@pytest.mark.parametrize("k", [3, 5])
def test_spline_factor_rows_are_shared_and_keep_their_bits(k):
    # every site count up to 300 and the counts the package builds: the
    # shared rows hold the bytes of the rows eliminated one by one (keyed on
    # bits, so no -0.0 is merged with a 0.0), one tuple per distinct row,
    # 21 of them for a cubic from 22 sites on and 34 for a quintic from 35
    for n in [*range(2, 301), 512, 721, 768, 900, 1201, 2000]:
        band = spline._collocation(n, k)[0]
        lu = spline._factor(band)
        assert np.array(lu).tobytes() == np.array(_factor_reference(band)).tobytes(), n
        distinct = {np.array(row).tobytes() for row in lu}
        assert len({id(row) for row in lu}) == len(distinct), n
        if n >= {3: 22, 5: 35}[k]:
            assert len(distinct) == {3: 21, 5: 34}[k], n
    assert spline._system(768, k)[0] == spline._factor(spline._collocation(768, k)[0])


def _coef_reference(x, y, k):
    """A spline's coefficients as built before the pieces were held once per
    distinct set: every interval's window of coefficients and its own pieces,
    in one product."""
    n = x.size
    d = min(k, n - 1)
    inner = np.arange((k + 1) // 2, n - (k + 1) // 2) if n > k + 1 else np.arange(0)
    t = np.concatenate([np.zeros(d + 1), inner, np.full(d + 1, n - 1.0)])
    left = np.arange(n - 1)
    m = np.searchsorted(t, left, side="right") - 1
    pieces = spline._bspline_pieces(t[m[:, None] + np.arange(-d, d + 2)] - left[:, None], d)
    windows = (m - d)[:, None] + np.arange(d + 1)
    c = spline._substitute(spline._system(n, k)[0], y.tolist())
    return np.einsum("ij,ijp->pi", c[windows], pieces, order="C"), windows, pieces


@pytest.mark.parametrize("k", [3, 5])
def test_spline_holds_each_piece_set_once_and_keeps_the_coefficients(k):
    # every site count up to 300 and the counts the package builds: sets
    # gathered by which are every interval's own pieces, 9 distinct sets of a
    # cubic from 10 sites on and 15 of a quintic from 16, and the product
    # _STEP intervals at a time has the bytes of the one product
    rng = np.random.default_rng(k)
    for n in [*range(2, 301), 512, 721, 768, 900, 1201, 2000]:
        x = np.linspace(-2.0, 3.0, n)
        y = rng.standard_normal(n)
        want, windows, pieces = _coef_reference(x, y, k)
        got = UniformSpline(x, y, k)._coef
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), n
        _, first, sets, which = spline._system(n, k)
        assert np.array_equal(first, windows[:, 0]), n
        assert which.dtype == np.uint8 and len(sets) <= 17, n
        assert sets[which].tobytes() == pieces.tobytes(), n
        if n >= {3: 10, 5: 16}[k]:
            assert len({p.tobytes() for p in sets}) == {3: 9, 5: 15}[k], n


def test_cached_spline_system_holds_under_64_kib():
    # a 768-site quintic (the default grid's RadialFunction) held 216 KiB of
    # pieces and 36 KiB of windows per cached system, then 53.5 KiB with the
    # interior's pieces as a 64-interval tile; its factor rows, first column,
    # at most 17 piece sets and uint8 which hold 36.6 KiB, and the Mittag-
    # Leffler table's (721, 5), the W table's (1201, 3) and the sampled
    # g-hat's (900, 3) 30.1, 31.9 and 27.1 KiB (47.0, 38.7 and 34.0 with
    # the tile)
    for (n, k), kib in {(768, 5): 38, (721, 5): 31, (1201, 3): 33, (900, 3): 28}.items():
        spline._system.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            spline._system(n, k)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < kib * 1024, (n, k, held)


def test_spline_system_build_memory_is_bounded():
    # a cold 721-site quintic system (the Mittag-Leffler table's) builds the
    # B-spline pieces of its 17 distinct knot windows alone: 0.35 MiB traced,
    # where one set per interval peaked at 1.51 MiB (numpy 2.4.6)
    spline._system(100, 5)
    tracemalloc.start()
    try:
        spline._system.__wrapped__(721, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


@pytest.mark.parametrize("k", [3, 5])
def test_spline_writes_over_its_points_with_the_same_bytes(k):
    # out=u: each chunk reads its points before it writes their values, so
    # the spline over u itself has the bytes of the spline into a new array,
    # on more points than one chunk, outside the sites too, in any shape
    rng = np.random.default_rng(k)
    s = UniformSpline(np.linspace(-2.0, 3.0, 40), rng.standard_normal(40), k)
    for shape in [(), (7,), (3, spline._CHUNK + 5), (2, 3, 4001)]:
        u = rng.uniform(-3.0, 4.0, shape)
        want = s(u)
        got = s(u, out=u)
        assert got is u and got.tobytes() == want.tobytes(), shape
    u = np.linspace(-1.0, 2.0, 20)
    into = np.empty((4, 5))
    assert s(u, out=into) is into and into.tobytes() == s(u).tobytes()
    for bad in (np.empty((20, 2))[:, 0], np.empty(19), np.empty(20, dtype=np.float32)):
        with pytest.raises(SplineError, match="out must be"):
            s(u, out=bad)


_FAULTS_CODE = """
import resource

import run_all_checks
from fracasym.verify import run_check

configs = dict(run_all_checks.configs())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for label in ("compact", "outer-mass"):
    run_check(configs[label])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="glibc's dynamic mmap threshold, read as minor page faults")
def test_block_temporaries_reuse_the_heap():
    # with the heap regime every 0.24 MB block temporary and spline product
    # comes from the heap: the compact and outer-mass checks take about 650
    # minor faults in a fresh process, 1.9k before the regime, and 46k with
    # the spline's compact pieces but no regime, which mapped and unmapped
    # the block temporaries
    src = pathlib.Path(radialtransform.__file__).parents[1]
    path = os.pathsep.join([str(src), str(src.parent / "scripts")])
    out = subprocess.run([sys.executable, "-c", _FAULTS_CODE], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 5000


def test_spline_refuses_non_uniform_sites():
    # the interval of a point is found by arithmetic on uniform sites, so
    # other sites must be refused, not misread
    y = np.ones(50)
    UniformSpline(np.log(np.geomspace(1.0, 10.0, 50)), y)
    for x in (np.geomspace(1.0, 10.0, 50), np.linspace(1.0, 10.0, 50)[::-1]):
        with pytest.raises(SplineError):
            UniformSpline(x, y)
    x = np.linspace(0.0, 1.0, 50)
    x[20] += 1e-9
    with pytest.raises(SplineError):
        UniformSpline(x, y, k=5)


def test_radial_function_owns_read_only_samples():
    # writing into the caller's array must not leave samples and spline apart,
    # whether the spline was built before the write or is built after it
    grid = RadialGrid(1e-2, 10.0, 128)
    source = np.exp(-grid.nodes**2)
    u = RadialFunction(grid, source)
    lazy = RadialFunction(grid, source)
    samples, value = u.samples.copy(), u(1.0)
    source *= 2.0
    assert np.array_equal(u.samples, samples)
    assert u(1.0) == value
    assert lazy(1.0) == value
    with pytest.raises(ValueError):
        u.samples[0] = 1.0


def _count_builds(monkeypatch):
    """Lists that grow by one per UniformSpline (its order) and per exponent
    fit that a RadialFunction makes."""
    splines, fits = [], []

    def spline(*args, **kwargs):
        splines.append(kwargs.get("k"))
        return UniformSpline(*args, **kwargs)

    fit = RadialFunction._fit_exponent

    def counted_fit(self, inner):
        fits.append(inner)
        return fit(self, inner)

    monkeypatch.setattr(radialtransform, "UniformSpline", spline)
    monkeypatch.setattr(RadialFunction, "_fit_exponent", counted_fit)
    return splines, fits


_SHAPES = {
    "single-signed": lambda rho: 1.0 / (1.0 + rho**2),
    "mixed-sign": lambda rho: (1.0 - rho**2) * np.exp(-(rho**2)),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_radial_function_builds_interpolant_on_first_read(shape, monkeypatch):
    # construction builds no spline and fits no exponent; the first read
    # builds them once, bit-equal to a UniformSpline on the same data and to
    # a least-squares fit over the edge decade
    splines, fits = _count_builds(monkeypatch)
    grid = RadialGrid(1e-2, 1e2, 256)
    samples = _SHAPES[shape](grid.nodes)
    u = RadialFunction(grid, samples)
    RadialFunction(grid, np.zeros(grid.points))
    assert (u.samples.size, u.is_zero) == (256, False)
    assert splines == fits == []

    rho = np.geomspace(0.02, 50.0, 101)
    logs = np.log(grid.nodes)
    if shape == "single-signed":
        ref = np.exp(UniformSpline(logs, np.log(samples), k=5)(np.log(rho)))
    else:
        ref = UniformSpline(logs, samples, k=3)(np.log(rho))
    assert np.array_equal(u(rho), ref)
    assert np.array_equal(u(rho), ref)
    assert splines == [5 if shape == "single-signed" else 3] and fits == []

    inner, outer = logs <= logs[0] + math.log(10.0), logs >= logs[-1] - math.log(10.0)
    assert u.tail(True)[2] == lsq_slope(logs[inner], np.log(samples[inner]))
    if shape == "single-signed":
        assert u.tail(False)[2] == lsq_slope(logs[outer], np.log(samples[outer]))
        ends = [True, False]
    else:  # the outer end has underflowed to zero: no tail, and no fit
        assert u.tail(False) is None
        ends = [True]
    u.tail(True), u.tail(False)
    assert fits == ends and len(splines) == 1


@pytest.mark.parametrize(
    "samples, match",
    [
        (np.full(128, np.nan), "non-finite"),
        (np.where(np.arange(128) == 5, np.inf, 1.0), "non-finite"),
        (np.where(np.arange(128) == 127, -np.inf, 1.0), "non-finite"),
        (np.ones(127), "grid size"),
        (np.ones((128, 1)), "grid size"),
    ],
)
def test_radial_function_refuses_bad_samples_at_construction(samples, match):
    with pytest.raises(TransformError, match=match):
        RadialFunction(RadialGrid(1e-2, 10.0, 128), samples)


def test_radial_function_refuses_a_nan_radius():
    # rho <= 0 is false at NaN, so a NaN radius once read nan (with numpy's
    # cast warning); every radius must be positive, and a valid one keeps
    # its value
    grid = RadialGrid(1e-2, 10.0, 128)
    u = RadialFunction(grid, np.exp(-grid.nodes))
    rho = np.geomspace(1e-3, 1e2, 9)
    want = u(rho).tobytes()
    for bad in (np.nan, [1.0, np.nan], 0.0, [-1.0, 1.0]):
        with pytest.raises(TransformError, match="rho > 0"):
            u(bad)
    assert u(rho).tobytes() == want
    assert u(1.0) == float(u(np.array([1.0]))[0])


def test_save_load_round_trip(tmp_path):
    grid = RadialGrid(1e-3, 1e2, 256)
    u = RadialFunction(grid, np.exp(-grid.nodes))
    path = str(tmp_path / "profile.csv")
    u.save(path, extra_metadata={"tag": "test"})
    v, meta = RadialFunction.load(path)
    assert np.array_equal(v.samples, u.samples)
    assert meta["tag"] == "test"
    assert meta["points"] == 256


def test_load_refuses_nodes_off_the_sidecars_grid(tmp_path):
    # the profile cache's guard against values sampled on another grid: a
    # CSV whose nodes are not the grid its sidecar names is refused
    grid = RadialGrid(1e-3, 1e2, 256)
    path = tmp_path / "profile.csv"
    RadialFunction(grid, np.exp(-grid.nodes)).save(str(path))
    sidecar = tmp_path / "profile.json"
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "rho_max": 1e3}))
    with pytest.raises(TransformError, match="grid mismatch"):
        RadialFunction.load(str(path))


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
