"""Radial (Hankel-reduced) Fourier analysis on log-spaced grids.

Convention: angular frequency with the (2pi)^{-N} on the inverse transform,
so for radial data in odd dimension N (nu = N/2 - 1 a half-integer)

    inverse:  h(rho)   = (2pi)^{-N/2} rho^{1-N/2} int_0^inf s(r) J_nu(r rho) r^{N/2} dr
    forward:  s_hat(r) = (2pi)^{+N/2} r^{1-N/2}  int_0^inf h(rho) J_nu(r rho) rho^{N/2} drho

The oscillatory integrals are computed panel-by-panel between consecutive
(approximate McMahon) zeros of the Bessel factor, with Gauss-Legendre nodes
inside each panel and iterated averaging (Euler-type acceleration) applied to
the partial sums of the alternating panel series.  Substituting x = r*rho puts
all Bessel evaluations at rho-independent abscissas, and the averaging is
linear in the panel sums, so both fold into one weight per abscissa, the
kernel J_nu(x) x^{N/2} w times its panel's averaging weight, built once per
dimension (in extended precision: the sum cancels by many orders of magnitude
where the output is small).  A transform is then one long-double
matrix-vector product, symbol values times weights, plus one float64 pass for
the noise floor, over the arguments x/rho, which are divided in long double
(on the default 768-point grid, 1904 abscissas: 11-13 ms of division per
pass on a 2-vCPU Xeon).  Each output row needs only its own row of x/rho, so
the engine forms, evaluates, sums and checks _BLOCK_ROWS = 16 rows at a time,
a working set that stays in a 2 MiB L2, bit for bit the result of one call on
the whole array.  One pass serves K symbols: the symbol is called once per
block and returns K arrays, so the factors they share (the division, a
forcing transform, r^{2b}) are formed once, and each output is summed and
checked on its own, with the bits it would have alone.
radial_fourier_inverses is that batched inverse; radial_fourier_inverse and
radial_fourier_forward are its K = 1 case.  A default-grid G transform takes
72-73 ms and peaks at 1.8 MiB of traced allocations; the compact check's
three checkpoints take 215-237 ms in one pass and 242-279 ms in three
(3.3 MiB).  A symbol gets float64 r (at most _BLOCK_ROWS x 1904, rounded
once in the engine) and returns arrays of that shape; no symbol casts its
argument.  Both directions share one finish: integrate, zero what lies below
8x the rounding noise, scale by (2pi)^{-+N/2} r^{-N}.

One radial moment, int_a^b |u|^p rho^{k-1} drho (or the signed int of u) over
the grid plus the fitted power-law pieces beyond it in closed form, serves
radial_integral, the finite-p lp_norm_annulus (L^p norms over annuli with the
N-dimensional radial weight) and kernels.constant_A.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .reporting import atomic_write
from .special import bessel_j_half, gl_panels
from .spline import UniformSpline

_CONVENTION = "angular-frequency, (2pi)^{-N} inverse"


class TransformError(RuntimeError):
    pass


class ExtrapolationWarning(UserWarning):
    """Requested range extends beyond the grid; power-law tails were used."""


def omega_n(dim: int) -> float:
    """Surface area of the unit sphere: 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    """Geometric grid rho_min * (rho_max/rho_min)^{i/(points-1)}."""

    rho_min: float = 1e-3
    rho_max: float = 1e3
    points: int = 768

    def __post_init__(self):
        if not (0 < self.rho_min < self.rho_max < math.inf):
            raise TransformError("need 0 < rho_min < rho_max < inf")
        if self.points < 64:
            raise TransformError("need at least 64 grid points")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.geomspace(self.rho_min, self.rho_max, self.points)


class RadialFunction:
    """Radial profile sampled on a RadialGrid, interpolated in log-log
    coordinates when single-signed (quintic spline; lower orders are too
    inaccurate for the round-trip budget on the default grid), with fitted
    power-law tails beyond the grid.  Mixed-sign data falls back to a cubic
    spline on plain values.  Both are `spline.UniformSpline`s over the log of
    the grid's nodes.

    Construction refuses a wrong shape or a non-finite sample and finds the
    core and its sign; the interpolant and the two tail fits are built on
    first read (`functools.cached_property`), so a function made only to hand
    on its samples never builds them.  It owns a read-only copy of its
    samples: writing into the caller's array cannot make `samples` disagree
    with the spline and the tails built from them, whenever they are built,
    and equal grid and samples always mean the same function."""

    def __init__(self, grid: RadialGrid, samples):
        samples = np.array(samples, dtype=float)
        samples.flags.writeable = False
        if samples.shape != (grid.points,):
            raise TransformError("samples must match the grid size")
        if not np.all(np.isfinite(samples)):
            raise TransformError("non-finite samples")
        self.grid = grid
        self.samples = samples

        nz = np.abs(samples) > 1e-300
        self.is_zero = not nz.any()
        self._core = (0, grid.points - 1)
        self._single_signed = False
        if not self.is_zero:
            i0, i1 = int(np.argmax(nz)), int(len(nz) - 1 - np.argmax(nz[::-1]))
            core = samples[i0 : i1 + 1]
            # single-signed contiguous core (possibly with zero tails, e.g.
            # after sub-noise clamping of a super-exponentially decaying tail)
            self._single_signed = bool(
                np.all(np.abs(core) > 1e-300)
                and np.all(np.sign(core) == np.sign(core[0]))
            )
            if self._single_signed:
                self._core = (i0, i1)
                self._sign = float(np.sign(core[0]))

    @cached_property
    def _log_nodes(self):
        return np.log(self.grid.nodes)

    @cached_property
    def _spline(self):
        """The interpolant of the core: None for a zero function."""
        if self.is_zero:
            return None
        if self._single_signed:
            i0, i1 = self._core
            # quintic in log-log: cubic's O(h^4) error is the round-trip
            # accuracy bottleneck on the default grid (a core of at most
            # six samples gets the polynomial through them)
            return UniformSpline(
                self._log_nodes[i0 : i1 + 1],
                np.log(np.abs(self.samples[i0 : i1 + 1])),
                k=5,
            )
        return UniformSpline(self._log_nodes, self.samples, k=3)

    @cached_property
    def inner_exponent(self) -> float:
        return self._fit_exponent(inner=True)

    @cached_property
    def outer_exponent(self) -> float:
        return self._fit_exponent(inner=False)

    def _fit_exponent(self, inner: bool) -> float:
        """Least-squares log-log slope over the lowest/highest covered decade;
        0 where that decade holds one sample, a zero or a sign change."""
        if self.is_zero:
            return 0.0
        i0, i1 = self._core
        u, v = self._log_nodes[i0 : i1 + 1], self.samples[i0 : i1 + 1]
        edge = u[0] + math.log(10.0) if inner else u[-1] - math.log(10.0)
        sel = u <= edge if inner else u >= edge
        vv = v[sel]
        if (vv.size < 2 or np.any(np.abs(vv) <= 1e-300)
                or not (np.sign(vv) == np.sign(vv[0])).all()):
            return 0.0
        slope = np.polyfit(u[sel], np.log(np.abs(vv)), 1)[0]
        return float(slope)

    def __call__(self, rho):
        rho_arr = np.asarray(rho, dtype=float)
        if np.any(rho_arr <= 0):
            raise TransformError("evaluation requires rho > 0")
        flat = rho_arr.ravel()
        out = np.zeros_like(flat)
        if not self.is_zero:
            i0, i1 = self._core
            lo_edge, hi_edge = self.grid.nodes[i0], self.grid.nodes[i1]
            u = np.log(flat)
            lo = flat < lo_edge
            hi = flat > hi_edge
            mid = ~lo & ~hi
            if mid.any():
                if self._single_signed:
                    out[mid] = self._sign * np.exp(self._spline(u[mid]))
                else:
                    out[mid] = self._spline(u[mid])
            # power-law extrapolation applies only where the core reaches the
            # grid edge; clamped (zero) tails stay zero
            if lo.any() and i0 == 0:
                out[lo] = self.samples[0] * (flat[lo] / lo_edge) ** self.inner_exponent
            if hi.any() and i1 == self.grid.points - 1:
                out[hi] = self.samples[-1] * (flat[hi] / hi_edge) ** self.outer_exponent
        out = out.reshape(rho_arr.shape)
        return float(out) if np.isscalar(rho) else out

    # --- serialization --------------------------------------------------

    def metadata(self) -> dict:
        return {
            "rho_min": self.grid.rho_min,
            "rho_max": self.grid.rho_max,
            "points": self.grid.points,
            "inner_exponent": self.inner_exponent,
            "outer_exponent": self.outer_exponent,
            "convention": _CONVENTION,
        }

    def save(self, csv_path, extra_metadata=None):
        """CSV (`rho,value`, 17 significant digits) plus a JSON sidecar."""
        lines = ["rho,value"]
        # Python floats format faster than numpy scalars, to the same bytes
        lines += [
            f"{rho:.17g},{val:.17g}"
            for rho, val in zip(self.grid.nodes.tolist(), self.samples.tolist())
        ]
        atomic_write(csv_path, "\n".join(lines) + "\n")
        meta = self.metadata()
        if extra_metadata:
            meta.update(extra_metadata)
        atomic_write(
            os.path.splitext(csv_path)[0] + ".json", json.dumps(meta, indent=2) + "\n"
        )

    @classmethod
    def load(cls, csv_path):
        """The function `save` wrote.  The two columns are parsed here with
        `float`: `np.loadtxt` goes through numpy's DataSource, which imports
        urllib, http, ssl and email (about 30 ms) to read a local file.  A
        malformed file raises OSError, ValueError, IndexError, KeyError,
        TypeError or TransformError."""
        with open(csv_path) as fh:
            fh.readline()  # the header
            data = np.array([[float(v) for v in line.split(",")] for line in fh])
        with open(os.path.splitext(csv_path)[0] + ".json") as fh:
            meta = json.load(fh)
        grid = RadialGrid(meta["rho_min"], meta["rho_max"], meta["points"])
        if not np.allclose(data[:, 0], grid.nodes, rtol=1e-12):
            raise TransformError(f"grid mismatch in {csv_path}")
        return cls(grid, data[:, 1]), meta


# --- Hankel quadrature engine ------------------------------------------------

# Rows of r = x/rho per symbol call.  A 16 x 1904 block is 0.24 MB per
# float64 array, so a symbol's elementwise passes, with K outputs alive, work
# out of a 2 MiB L2 where whole-grid arrays (11.7 MB each) streamed through
# memory.  Measured at 8 / 16 / 32 rows (2-vCPU Xeon, 2 MiB L2 per core):
# per default-grid transform, medians of 9 in three runs, a G symbol took
# 81-88 / 72-73 / 64-65 ms and peaked at 1.0 / 1.8 / 3.5 MiB traced, and the
# compact check's three checkpoints in one pass 207-238 / 215-237 / 236-250 ms
# at 1.7 / 3.3 / 6.1 MiB; end to end (perfbench --seconds 6, six seeds in
# rotating order), battery wall_s medians 1.803 / 1.801 / 1.913 s at peak RSS
# 42.9 / 44.9 / 49.0 MB, and potentials 1.343 / 1.289 / 1.634 s.
_BLOCK_ROWS = 16


def _leggauss_extended(n):
    """Gauss-Legendre nodes/weights in extended precision: Newton-refine the
    double-precision nodes against the long-double Legendre recurrence."""

    def legendre(x):
        """P_n(x) and P_n'(x) by the three-term recurrence."""
        p_prev, p = np.ones_like(x), x.copy()
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    x = leggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        p, dp = legendre(x)
        x = x - p / dp
    dp = legendre(x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


class _HankelEngine:
    """Fixed abscissas x and kernel values J_nu(x) x^{N/2} w for one odd N.

    Head region [x_min, j_1] in ~40 geometric panels (resolves integrable
    symbol singularities at the origin); oscillatory region in panels between
    McMahon approximate zeros x_k = (k + nu/2 - 1/4) pi.  The head and the
    first few oscillatory panels are summed directly; the rest through
    iterated averaging of partial sums, folded at build into panel_weights
    (1 on the direct panels, binomial upper tails on the rest) and so into
    k_eff, the kernel times its panel's weight.  Both are held in extended
    precision; integrate is one product of the symbol values with k_eff per
    block of rows.
    """

    N_OSC = 80
    N_DIRECT = 8
    GL_PTS = 16
    HEAD_PANELS = 40
    HEAD_FLOOR = 1e-20

    def __init__(self, dim: int):
        if dim % 2 == 0 or dim < 1:
            raise TransformError(f"odd dimension required, got {dim}")
        self.dim = dim
        nu = dim / 2.0 - 1.0

        pi_ld = np.longdouble(np.pi)
        zeros = (
            np.arange(1, self.N_OSC + 1, dtype=np.longdouble) + nu / 2.0 - 0.25
        ) * pi_ld
        head_breaks = zeros[0] * np.exp(
            np.linspace(
                np.log(np.longdouble(self.HEAD_FLOOR)),
                np.longdouble(0.0),
                self.HEAD_PANELS + 1,
            )
        )
        breaks = np.concatenate([head_breaks, zeros[1:]])

        x, w = gl_panels(breaks, *_leggauss_extended(self.GL_PTS))

        self.x = x
        # long-double abscissas keep the Bessel recurrence in extended precision
        self.kernel = bessel_j_half(nu, x) * x ** np.longdouble(dim / 2.0) * w

        # Euler-type acceleration of the alternating tail (exact on polynomial
        # envelopes): m passes of pairwise averaging over its partial sums
        # S_0..S_m give sum_k C(m,k) 2^-m S_k, so tail panel j carries the
        # binomial upper tail P(Bin(m, 1/2) >= j); the direct panels carry 1.
        # The counts are exact integers below 2^(m+1); hi * 2^32 + lo rounds
        # each to long double once.
        n_fixed = self.HEAD_PANELS + self.N_DIRECT
        m = len(breaks) - 2 - n_fixed
        counts = [sum(math.comb(m, k) for k in range(j, m + 1)) for j in range(m + 1)]
        hi = np.array([c >> 32 for c in counts], dtype=np.longdouble)
        lo = np.array([c & 0xFFFFFFFF for c in counts], dtype=np.longdouble)
        tail = (hi * np.longdouble(2.0**32) + lo) / np.longdouble(2.0**m)
        self.panel_weights = np.concatenate([np.ones(n_fixed, dtype=np.longdouble), tail])
        self.k_eff = self.kernel * np.repeat(self.panel_weights, self.GL_PTS)
        self.kernel_f64 = self.kernel.astype(float)  # for the noise floor

    def integrate(self, symbol, rho):
        """int_0^inf s(x/rho) J_nu(x) x^{N/2} dx for each rho and each of the
        K arrays s that symbol returns per call.

        Returns (integral, noise), each K x len(rho), where noise estimates
        the absolute rounding floor of each integral (values cancelling below
        it are meaningless).

        Each row depends on its own rho alone, so the rows are taken
        _BLOCK_ROWS at a time: one block of r = x/rho is formed, the symbol is
        called once on it, and each of its K outputs is checked for shape,
        summed (a non-finite row sum raises) and noise-estimated on its own
        before the next block.  For a symbol that is elementwise the results
        are the same bits as one call on all rows, and output k has the same
        bits as a symbol returning it alone.  The symbol contract: each call
        gets a float64 array r of at most _BLOCK_ROWS x len(x), divided in
        long double (the precision of x) and rounded once, here, and returns
        the same number K of arrays of that shape at every call.
        """
        rho = np.asarray(rho, dtype=float)
        integral = noise = None
        # at least one block, so that K is known for an empty rho too
        for i in range(0, max(rho.size, 1), _BLOCK_ROWS):
            rows = slice(i, i + _BLOCK_ROWS)
            # each long-double quotient is rounded into float64 r as it is
            # written: no long-double block is allocated
            r = np.empty((rho[rows].size, self.x.size))
            np.divide(self.x, rho[rows, None].astype(np.longdouble), out=r)
            outs = symbol(r)
            if integral is None:
                integral = np.empty((len(outs), rho.size))
                noise = np.empty_like(integral)
            if len(outs) != len(integral):
                raise TransformError("symbol changed its number of outputs")
            for k, vals in enumerate(outs):
                integral[k, rows], noise[k, rows] = self._block(np.asarray(vals), r.shape)
        return integral, noise

    def _block(self, vals, shape):
        """(sums, noise) of one symbol output over one block of rows."""
        if vals.shape != shape:
            raise TransformError("symbol must evaluate elementwise on arrays")
        # long double because k_eff is: the sum cancels by many orders of
        # magnitude where the output is small
        sums = np.einsum("ij,j->i", vals, self.k_eff)
        # an inf or NaN among a row's values makes its sum inf or NaN (k_eff
        # has no zero), so the rows' sums stand for the values
        if not np.all(np.isfinite(sums)):
            raise TransformError("symbol produced non-finite values")

        # the noise bounds two errors: the symbol values' ~1e-16 relative
        # error (independent per node, so summed in quadrature) and the
        # float64 rounding of the contributions (correlated, so their sizes
        # add)
        cf = np.multiply(vals.astype(float, copy=False), self.kernel_f64)
        np.abs(cf, out=cf)
        l1 = cf.sum(axis=1)
        np.square(cf, out=cf)
        return sums, 1e-16 * np.sqrt(cf.sum(axis=1)) + 5e-17 * l1

    def transform(self, symbol, at, sign: int):
        """(2pi)^{sign N/2} at^{-N} times integrate(symbol, at), K x len(at),
        with integrals below 8x their rounding noise set to zero: there the
        cancelled sum is pure noise, and clamping keeps super-exponential
        tails from polluting downstream integrals.  sign = -1 is the inverse,
        +1 the forward."""
        integral, noise = self.integrate(symbol, at)
        integral[np.abs(integral) < 8.0 * noise] = 0.0
        scale = (2.0 * math.pi) ** (sign * self.dim / 2.0)
        return scale * at ** (-float(self.dim)) * integral


@cache
def _engine(dim: int) -> _HankelEngine:
    return _HankelEngine(dim)


def _check_symbol_decay(symbols):
    probes = np.array([[1.0, 1e-2, 1e8, 1e9]])
    for out in symbols(probes):
        vals = np.abs(np.asarray(out, dtype=float)).ravel()
        scale = max(vals[0], vals[1], 1e-290)
        if vals[3] > 1e-10 * scale and vals[3] > 0.7 * vals[2]:
            raise TransformError(
                "symbol does not decay at infinity; transform is not convergent"
            )


def radial_fourier_inverses(symbols, dim: int, grid: RadialGrid | None = None):
    """The inverse transforms of K symbols in one pass of the engine, as a
    list of K RadialFunctions: symbols(r) returns the K arrays of r's shape,
    so that the factors they share are formed once per block.  Output k has
    the same bits as radial_fourier_inverse of the symbol r -> symbols(r)[k].

    Each symbol must be vectorized over positive r, bounded (or integrably
    singular) near 0, and algebraically decaying at infinity.
    """
    grid = grid or RadialGrid()
    _check_symbol_decay(symbols)
    out = []
    for samples in _engine(dim).transform(symbols, grid.nodes, -1):
        samples[np.abs(samples) < 1e-300] = 0.0  # underflow clamp
        out.append(RadialFunction(grid, samples))
    return out


def radial_fourier_inverse(symbol, dim: int, grid: RadialGrid | None = None) -> RadialFunction:
    """h(rho) = (2pi)^{-N/2} rho^{1-N/2} int_0^inf symbol(r) J_nu(r rho) r^{N/2} dr,
    the one-symbol case of radial_fourier_inverses."""
    return radial_fourier_inverses(lambda r: (symbol(r),), dim, grid)[0]


def radial_fourier_forward(h: RadialFunction, dim: int):
    """Returns the vectorized function r -> (2pi)^{N/2} r^{1-N/2}
    int_0^inf h(rho) J_nu(r rho) rho^{N/2} drho."""
    if h.inner_exponent <= -dim:
        raise TransformError("input not integrable with the radial weight at 0")
    reaches_edge = not h.is_zero and abs(h.samples[-1]) > 0
    if reaches_edge and h.outer_exponent >= -dim:
        raise TransformError("input not integrable with the radial weight at infinity")
    eng = _engine(dim)

    def transform(r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        vals = eng.transform(lambda x: (h(x),), r_arr, 1)[0]
        return float(vals[0]) if np.isscalar(r) else vals.reshape(np.shape(r))

    return transform


# --- radial moments and annulus norms ----------------------------------------

_GL8 = leggauss(8)


def _moment(u: RadialFunction, k: float, a: float, b: float, p=None) -> float:
    """int_a^b f(rho) rho^{k-1} drho with f = u for p = None (signed) and
    f = |u|^p otherwise, for 0 <= a < b <= inf.

    On the grid: 8-point Gauss-Legendre in log rho per cell the range meets.
    Beyond it: the power law fitted at that grid end, integrated in closed
    form.  Only a piece that reaches 0 or inf can diverge, and one that does
    returns +-inf at once.  A zero edge sample (a clamped tail) has no piece.
    """
    g = u.grid

    def power_law(inner, lo, hi):
        """int_lo^hi of the power law fitted at the inner or outer grid end."""
        if inner:
            s, edge, slope = u.samples[0], g.rho_min, u.inner_exponent
        else:
            s, edge, slope = u.samples[-1], g.rho_max, u.outer_exponent
        f = s if p is None else abs(s) ** p
        m = slope if p is None else p * slope
        e = m + k
        if lo == 0 or math.isinf(hi):  # the piece reaches the open end
            if (e > 0) if inner else (e < 0):  # integrable there
                return f / edge**m * (hi**e - lo**e) / e
            return math.copysign(math.inf, f)
        # a finite range: lo^e (e^{eL} - 1)/e with L = log(hi/lo), which stays
        # accurate as e -> 0, where (hi^e - lo^e)/e cancels; e == 0 takes L
        # directly
        L = math.log(hi / lo)
        try:
            return f / edge**m * lo**e * (math.expm1(e * L) / e if e else L)
        except OverflowError:  # beyond the double range
            return math.copysign(math.inf, f)

    total = 0.0
    lo = a
    if a < g.rho_min:
        if u.samples[0] != 0:
            total += power_law(True, a, min(b, g.rho_min))  # may end below the grid
            if math.isinf(total):
                return total
        lo = g.rho_min
    hi = min(b, g.rho_max)
    if hi > lo:
        nodes = g.nodes[(g.nodes > lo) & (g.nodes < hi)]
        x, w = gl_panels(np.log(np.concatenate([[lo], nodes, [hi]])), *_GL8)
        rho = np.exp(x)
        f = u(rho) if p is None else np.abs(u(rho)) ** p
        total += float(np.dot(w, f * rho**k))
    if b > g.rho_max and u.samples[-1] != 0:
        total += power_law(False, max(a, g.rho_max), b)  # may start beyond the grid
    return total


def radial_integral(u: RadialFunction, dim: int) -> float:
    """Signed total integral omega_N int_0^inf u(rho) rho^{N-1} drho, with
    power-law tail pieces beyond the grid (+-inf for a divergent tail)."""
    return omega_n(dim) * _moment(u, dim, 0.0, math.inf)


def lp_norm_annulus(u: RadialFunction, p: float, dim: int, a: float, b: float) -> float:
    """(omega_N int_a^b |u|^p rho^{N-1} drho)^{1/p}; supremum for p = inf."""
    if not b > a >= 0:
        raise TransformError(f"need 0 <= a < b, got [{a}, {b}]")
    if not p >= 1:
        raise TransformError(f"p must be in [1, inf], got {p}")
    if math.isinf(p) and math.isinf(b):  # the sup is sampled on [a, b]
        raise TransformError("the L^inf norm needs a finite b, got b = inf")
    if u.is_zero:
        return 0.0
    g = u.grid
    if a < g.rho_min or b > g.rho_max:
        warnings.warn(
            f"annulus [{a}, {b}] exceeds grid [{g.rho_min}, {g.rho_max}]; "
            "fitted power-law tails in use",
            ExtrapolationWarning,
            stacklevel=2,
        )

    if math.isinf(p):
        # six decades below the grid, or below b where b lies beneath it, so
        # that every sample stays in [a, b]
        lo = max(a, min(g.rho_min, b) * 1e-6)
        cells = max(int(8 * g.points * math.log(b / lo) / math.log(g.rho_max / g.rho_min)), 256)
        rho = np.geomspace(lo, b, cells)
        sup = float(np.max(np.abs(u(rho))))
        if a > 0:
            sup = max(sup, abs(u(a)))
        return sup
    return (omega_n(dim) * _moment(u, dim, a, b, p)) ** (1.0 / p)
