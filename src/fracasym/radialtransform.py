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
block and yields K arrays, one at a time, so the factors they share (the
division, a forcing transform, r^{2b}) are formed once, and each output is
summed and checked on its own, with the bits it would have alone, and let
go before the next is asked for: one output is alive at a time, whatever K.
radial_fourier_inverses is that batched inverse; radial_fourier_inverse and
radial_fourier_forward are its K = 1 case.  A default-grid G transform takes
72-73 ms and peaks at 1.56 MiB of traced allocations (1.86 MiB when each
symbol and Mittag-Leffler branch took a new array per operation); a Duhamel
pass at three checkpoints peaks 0.03 MiB above one at a single checkpoint
(numpy 2.4.6).
A symbol gets float64 r (at most _BLOCK_ROWS x 1904, rounded once in the
engine) and yields arrays of that shape (a list or a tuple of them serves
too); no symbol casts its argument.  Both directions share one finish:
integrate, zero what lies below 8x the rounding noise, scale by
(2pi)^{-+N/2} r^{-N}.

Importing this module fixes the heap regime once (_HEAP_REGIME_BYTES): one
untouched 2 MiB array, allocated and freed, lifts glibc's dynamic mmap
threshold above every block temporary (16 x 1904 x 8 B = 0.24 MB), so the
blocks reuse heap memory rather than map and unmap pages of their own.  An
in-process battery pass takes 0.74k minor faults, not 2.0k, and its peak RSS
no longer depends on which temporary glibc happened to free first.

Long double here is `special._EXTENDED`, the package's one extended
precision (80-bit x87 on x86-64 Linux): the engine reads it when it is
built, and integrate divides x/rho in the dtype of its abscissas.

RadialFunction alone decides what a profile is beyond its grid: it stores
each sample too small to carry a value as +0.0, and `tail`, the only reader
of a fitted end, continues the profile past a grid end by its fitted power
law if and only if that end's sample is nonzero.  lp_norm_annulus warns
(ExtrapolationWarning) iff [a, b] leaves the grid on a side with a tail.

One radial moment, int_a^b |u|^p rho^{k-1} drho (or the signed int of u) over
the grid plus the tails' power-law pieces in closed form, serves
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
from itertools import repeat

import numpy as np

from . import special
from .params import is_whole
from .reporting import atomic_write
from .special import bessel_j_half, gauss_legendre, gl_panels, lsq_slope
from .spline import UniformSpline

_CONVENTION = "angular-frequency, (2pi)^{-N} inverse"


class TransformError(RuntimeError):
    pass


class ExtrapolationWarning(UserWarning):
    """The range leaves the grid on a side whose fitted power law is read."""


def omega_n(dim: int) -> float:
    """Surface area of the unit sphere: 2 pi^{N/2} / Gamma(N/2), for N a
    positive whole number (3.0 as well as 3; odd or even)."""
    if not (is_whole(dim) and dim >= 1):  # nan and inf fail too
        raise TransformError(f"dimension must be a positive whole number, got {dim}")
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
        if not is_whole(self.points):
            raise TransformError(f"points must be a whole number, got {self.points}")
        # stored as an int, so that 768.0 points name and cache as 768
        object.__setattr__(self, "points", int(self.points))
        if self.points < 64:
            raise TransformError("need at least 64 grid points")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.geomspace(self.rho_min, self.rho_max, self.points)

    def as_dict(self) -> dict:
        """The grid as reports and sidecars record it."""
        return {"rho_min": self.rho_min, "rho_max": self.rho_max, "points": self.points}


class RadialFunction:
    """Radial profile sampled on a RadialGrid, interpolated in log-log
    coordinates when single-signed (quintic spline; lower orders are too
    inaccurate for the round-trip budget on the default grid), with fitted
    power-law tails beyond the grid ends whose sample is nonzero (`tail`,
    the only reader of a fitted end).  Mixed-sign data falls back to a cubic
    spline on plain values.  Both are `spline.UniformSpline`s over the log
    of the grid's nodes.

    Construction refuses a wrong shape or a non-finite sample, stores each
    sample too small to carry a value as +0.0, and finds the nonzero core
    and its sign; the interpolant (a `functools.cached_property`) and each
    end's fit (in `tail`) are built on first read, so a function made only
    to hand on its samples never builds them.  It owns a read-only copy of
    its samples: writing into the caller's array cannot make `samples`
    disagree with the spline and the tails built from them, whenever they
    are built, and equal grid and samples always mean the same function."""

    def __init__(self, grid: RadialGrid, samples):
        samples = np.array(samples, dtype=float)
        if samples.shape != (grid.points,):
            raise TransformError("samples must match the grid size")
        if not np.all(np.isfinite(samples)):
            raise TransformError("non-finite samples")
        # the one zero: a sample this small (an underflow, or a clamped tail)
        # is stored as +0.0, so that "nonzero" means the same to every reader
        samples[np.abs(samples) <= 1e-300] = 0.0
        samples.flags.writeable = False
        self.grid = grid
        self.samples = samples
        self._exponents = {}  # inner (True) / outer (False) -> fitted, by `tail`

        nz = samples != 0
        self.is_zero = not nz.any()
        self._core = (0, grid.points - 1)
        self._single_signed = False
        if not self.is_zero:
            i0, i1 = int(np.argmax(nz)), int(len(nz) - 1 - np.argmax(nz[::-1]))
            core = samples[i0 : i1 + 1]
            # single-signed contiguous core (possibly with zero tails, e.g.
            # after sub-noise clamping of a super-exponentially decaying tail)
            self._single_signed = bool(np.all(np.sign(core) == np.sign(core[0])))
            if self._single_signed:
                self._core = (i0, i1)
                self._sign = float(np.sign(core[0]))

    @cached_property
    def _log_nodes(self):
        return np.log(self.grid.nodes)

    @cached_property
    def _spline(self):
        """The interpolant of the core."""
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

    def _fit_exponent(self, inner: bool) -> float:
        """Least-squares log-log slope over the lowest/highest covered decade;
        0 where that decade holds one sample, a zero or a sign change."""
        i0, i1 = self._core
        u, v = self._log_nodes[i0 : i1 + 1], self.samples[i0 : i1 + 1]
        edge = u[0] + math.log(10.0) if inner else u[-1] - math.log(10.0)
        sel = u <= edge if inner else u >= edge
        vv = v[sel]
        if (vv.size < 2 or np.any(vv == 0)
                or not (np.sign(vv) == np.sign(vv[0])).all()):
            return 0.0
        return lsq_slope(u[sel], np.log(np.abs(vv)))

    def tail(self, inner: bool):
        """The power law (edge sample, edge, exponent), fitted once, that
        continues the profile below (inner) or above the grid if that end's
        sample is nonzero; else None, and the profile is 0 there."""
        s = self.samples[0 if inner else -1]
        if not s:
            return None
        if inner not in self._exponents:
            self._exponents[inner] = self._fit_exponent(inner)
        return s, self.grid.rho_min if inner else self.grid.rho_max, self._exponents[inner]

    def __call__(self, rho):
        rho_arr = np.asarray(rho, dtype=float)
        if not np.all(rho_arr > 0):  # so a NaN radius is refused too
            raise TransformError("evaluation requires rho > 0")
        flat = rho_arr.ravel()
        out = np.zeros_like(flat)
        if not self.is_zero:
            i0, i1 = self._core
            u = np.log(flat)
            lo = flat < self.grid.nodes[i0]
            hi = flat > self.grid.nodes[i1]
            mid = ~lo & ~hi
            if mid.any():
                if self._single_signed:
                    out[mid] = self._sign * np.exp(self._spline(u[mid]))
                else:
                    out[mid] = self._spline(u[mid])
            # beyond the core: the tail's power law, or 0 where it has none
            for beyond, inner in ((lo, True), (hi, False)):
                law = beyond.any() and self.tail(inner)
                if law:
                    s, edge, m = law
                    out[beyond] = s * (flat[beyond] / edge) ** m
        out = out.reshape(rho_arr.shape)
        return float(out) if np.isscalar(rho) else out

    # --- serialization --------------------------------------------------

    def save(self, csv_path, extra_metadata=None):
        """CSV (`rho,value`, 17 significant digits) plus a JSON sidecar: the
        grid, each end's `tail` exponent or null, the convention, the
        precision_bits of special._EXTENDED, extras."""
        lines = ["rho,value"]
        # Python floats format faster than numpy scalars, to the same bytes
        lines += [
            f"{rho:.17g},{val:.17g}"
            for rho, val in zip(self.grid.nodes.tolist(), self.samples.tolist())
        ]
        atomic_write(csv_path, "\n".join(lines) + "\n")
        inner, outer = self.tail(True), self.tail(False)
        meta = {
            **self.grid.as_dict(),
            "inner_exponent": inner[2] if inner else None,
            "outer_exponent": outer[2] if outer else None,
            "convention": _CONVENTION,
            "precision_bits": special.precision_bits(),
            **(extra_metadata or {}),
        }
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
# float64 array, so a symbol's elementwise passes work out of a 2 MiB L2
# where whole-grid arrays (11.7 MB each) streamed through memory.  Measured
# at 8 / 16 / 32 rows (2-vCPU Xeon, 2 MiB L2 per core), while a block held
# all K outputs at once: per default-grid transform, medians of 9 in three runs, a G symbol took
# 81-88 / 72-73 / 64-65 ms and peaked at 1.0 / 1.8 / 3.5 MiB traced, and the
# compact check's three checkpoints in one pass 207-238 / 215-237 / 236-250 ms
# at 1.7 / 3.3 / 6.1 MiB; end to end (perfbench --seconds 6, six seeds in
# rotating order), battery wall_s medians 1.803 / 1.801 / 1.913 s at peak RSS
# 42.9 / 44.9 / 49.0 MB, and potentials 1.343 / 1.289 / 1.634 s.
_BLOCK_ROWS = 16

# The heap regime: one array of this many bytes, allocated and freed
# untouched when this module is imported.  glibc raises its mmap threshold to
# the size of a mapped chunk when it is freed (mallopt(3), M_MMAP_THRESHOLD;
# capped at 32 MiB on 64-bit), and its trim threshold to twice that, so from
# then on every block temporary (0.24 MB at most), spline product and
# table-build slice comes from the heap, which keeps them: none maps and
# unmaps pages of its own, and the faults and peak RSS no longer depend on
# which temporary happened to be freed first.  An in-process battery pass
# takes 0.74k minor faults at 2 MiB (and at 16 MiB), 22k at 1 MiB and
# 141k-158k at 0.5 MiB (glibc 2.36, 2-vCPU Xeon); a larger size only leaves
# more free heap untrimmed.  Set at import, not when the first engine is
# built: every check builds its W tables before that, and a pass then took
# 3.2k faults.
_HEAP_REGIME_BYTES = 2 * 1024 * 1024
np.empty(_HEAP_REGIME_BYTES, dtype=np.uint8)


def _leggauss_extended(n):
    """Gauss-Legendre nodes/weights in extended precision: Newton-refine the
    double-precision nodes against the long-double Legendre recurrence."""

    def legendre(x):
        """P_n(x) and P_n'(x) by the three-term recurrence."""
        p_prev, p = np.ones_like(x), x.copy()
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    x = gauss_legendre(n)[0].astype(special._EXTENDED)
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

        ext = special._EXTENDED
        zeros = (np.arange(1, self.N_OSC + 1, dtype=ext) + nu / 2.0 - 0.25) * ext(np.pi)
        head_breaks = zeros[0] * np.exp(
            np.linspace(
                np.log(ext(self.HEAD_FLOOR)),
                ext(0.0),
                self.HEAD_PANELS + 1,
            )
        )
        breaks = np.concatenate([head_breaks, zeros[1:]])

        x, w = gl_panels(breaks, *_leggauss_extended(self.GL_PTS))

        self.x = x
        # long-double abscissas keep the Bessel recurrence in extended precision
        self.kernel = bessel_j_half(nu, x) * x ** ext(dim / 2.0) * w

        # Euler-type acceleration of the alternating tail (exact on polynomial
        # envelopes): m passes of pairwise averaging over its partial sums
        # S_0..S_m give sum_k C(m,k) 2^-m S_k, so tail panel j carries the
        # binomial upper tail P(Bin(m, 1/2) >= j); the direct panels carry 1.
        # The counts are exact integers below 2^(m+1); hi * 2^32 + lo rounds
        # each to long double once.
        n_fixed = self.HEAD_PANELS + self.N_DIRECT
        m = len(breaks) - 2 - n_fixed
        counts = [sum(math.comb(m, k) for k in range(j, m + 1)) for j in range(m + 1)]
        hi = np.array([c >> 32 for c in counts], dtype=ext)
        lo = np.array([c & 0xFFFFFFFF for c in counts], dtype=ext)
        tail = (hi * ext(2.0**32) + lo) / ext(2.0**m)
        self.panel_weights = np.concatenate([np.ones(n_fixed, dtype=ext), tail])
        self.k_eff = self.kernel * np.repeat(self.panel_weights, self.GL_PTS)
        self.kernel_f64 = self.kernel.astype(float)  # for the noise floor

    def integrate(self, symbol, rho):
        """int_0^inf s(x/rho) J_nu(x) x^{N/2} dx for each rho and each of the
        K arrays s that symbol yields per call.

        Returns (integral, noise), each K x len(rho), where noise estimates
        the absolute rounding floor of each integral (values cancelling below
        it are meaningless).

        Each row depends on its own rho alone, so the rows are taken
        _BLOCK_ROWS at a time: one block of r = x/rho is formed, the symbol is
        called once on it, and each of its K outputs is checked for shape,
        summed (a non-finite row sum raises) and noise-estimated on its own
        as it is yielded, then dropped before the next is asked for.  K is
        the first block's count; a later block with another count raises.
        For a symbol that is elementwise the results are the same bits as one
        call on all rows, and output k has the same bits as a symbol yielding
        it alone.  The symbol contract: each call gets a float64 array r of
        at most _BLOCK_ROWS x len(x), divided in long double (the precision
        of x) and rounded once, here, and yields (or returns as a list or a
        tuple) the same number K of arrays of that shape at every call.
        """
        rho = np.asarray(rho, dtype=float)
        integral = noise = None
        # at least one block, so that K is known for an empty rho too
        for i in range(0, max(rho.size, 1), _BLOCK_ROWS):
            rows = slice(i, i + _BLOCK_ROWS)
            # each long-double quotient is rounded into float64 r as it is
            # written: no long-double block is allocated
            r = np.empty((rho[rows].size, self.x.size))
            np.divide(self.x, rho[rows, None].astype(self.x.dtype), out=r)
            # map hands each output to _block and drops it before it asks the
            # symbol for the next: one output is alive at a time
            block = list(map(self._block, symbol(r), repeat(r.shape)))
            if integral is None:
                integral = np.empty((len(block), rho.size))
                noise = np.empty_like(integral)
            if len(block) != len(integral):
                raise TransformError("symbol changed its number of outputs")
            for k, (sums, err) in enumerate(block):
                integral[k, rows], noise[k, rows] = sums, err
        return integral, noise

    def _block(self, vals, shape):
        """(sums, noise) of one symbol output over one block of rows."""
        vals = np.asarray(vals)
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
    list of K RadialFunctions: symbols(r) yields the K arrays of r's shape one
    at a time, so that the factors they share are formed once per block and
    only one output is alive.  Output k has the same bits as
    radial_fourier_inverse of the symbol r -> list(symbols(r))[k].

    Each symbol must be vectorized over positive r, bounded (or integrably
    singular) near 0, and algebraically decaying at infinity.
    """
    grid = grid or RadialGrid()
    _check_symbol_decay(symbols)
    return [RadialFunction(grid, samples)
            for samples in _engine(dim).transform(symbols, grid.nodes, -1)]


def radial_fourier_inverse(symbol, dim: int, grid: RadialGrid | None = None) -> RadialFunction:
    """h(rho) = (2pi)^{-N/2} rho^{1-N/2} int_0^inf symbol(r) J_nu(r rho) r^{N/2} dr,
    the one-symbol case of radial_fourier_inverses."""
    return radial_fourier_inverses(lambda r: (symbol(r),), dim, grid)[0]


def radial_fourier_forward(h: RadialFunction, dim: int):
    """Returns the vectorized function r -> (2pi)^{N/2} r^{1-N/2}
    int_0^inf h(rho) J_nu(r rho) rho^{N/2} drho."""
    inner, outer = h.tail(True), h.tail(False)
    if inner and inner[2] <= -dim:
        raise TransformError("input not integrable with the radial weight at 0")
    if outer and outer[2] >= -dim:
        raise TransformError("input not integrable with the radial weight at infinity")
    eng = _engine(dim)

    def transform(r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        vals = eng.transform(lambda x: (h(x),), r_arr, 1)[0]
        return float(vals[0]) if np.isscalar(r) else vals.reshape(np.shape(r))

    return transform


# --- radial moments and annulus norms ----------------------------------------

_GL8 = gauss_legendre(8)


def _moment(u: RadialFunction, k: float, a: float, b: float, p=None) -> float:
    """int_a^b f(rho) rho^{k-1} drho with f = u for p = None (signed) and
    f = |u|^p otherwise, for 0 <= a < b <= inf.

    On the grid: 8-point Gauss-Legendre in log rho per cell the range meets.
    Beyond it: the grid end's power law (RadialFunction.tail), integrated
    in closed form; an end without one adds nothing.  Only a piece that
    reaches 0 or inf can diverge, and one that does returns +-inf at once.
    """
    g = u.grid

    def power_law(inner, lo, hi):
        """int_lo^hi of the power law beyond the inner or outer grid end."""
        tail = u.tail(inner)
        if tail is None:
            return 0.0
        s, edge, slope = tail
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
    if b > g.rho_max:
        total += power_law(False, max(a, g.rho_max), b)  # may start beyond the grid
    return total


def radial_integral(u: RadialFunction, dim: int) -> float:
    """Signed total integral omega_N int_0^inf u(rho) rho^{N-1} drho, with
    power-law tail pieces beyond the grid (+-inf for a divergent tail)."""
    return omega_n(dim) * _moment(u, dim, 0.0, math.inf)


def lp_norm_annulus(u: RadialFunction, p: float, dim: int, a: float, b: float) -> float:
    """(omega_N int_a^b |u|^p rho^{N-1} drho)^{1/p}; supremum for p = inf,
    inf over a = 0 if the inner `tail` (the one reader of a fitted end) grows
    there.  ExtrapolationWarning iff [a, b] leaves the grid on a side with one."""
    if not b > a >= 0:
        raise TransformError(f"need 0 <= a < b, got [{a}, {b}]")
    if not p >= 1:
        raise TransformError(f"p must be in [1, inf], got {p}")
    if math.isinf(p) and math.isinf(b):  # the sup is sampled on [a, b]
        raise TransformError("the L^inf norm needs a finite b, got b = inf")
    omega = omega_n(dim)  # refuses an N that is not a positive whole number
    if u.is_zero:
        return 0.0
    g = u.grid
    if (a < g.rho_min and u.tail(True)) or (b > g.rho_max and u.tail(False)):
        warnings.warn(
            f"annulus [{a}, {b}] exceeds grid [{g.rho_min}, {g.rho_max}]; "
            "fitted power-law tails in use",
            ExtrapolationWarning,
            stacklevel=2,
        )

    if math.isinf(p):
        law = a == 0 and u.tail(True)
        if law and law[2] < 0:  # unbounded at 0, where the moment diverges too
            return math.inf
        # six decades below the grid, or below b where b lies beneath it, so
        # that every sample stays in [a, b]
        lo = max(a, min(g.rho_min, b) * 1e-6)
        cells = max(int(8 * g.points * math.log(b / lo) / math.log(g.rho_max / g.rho_min)), 256)
        rho = np.geomspace(lo, b, cells)
        sup = float(np.max(np.abs(u(rho))))
        if a > 0:
            sup = max(sup, abs(u(a)))
        return sup
    return (omega * _moment(u, dim, a, b, p)) ** (1.0 / p)
