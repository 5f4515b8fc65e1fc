"""One interpolant for every spline in the package: the not-a-knot spline of
odd degree k (3 or 5) through values on uniformly spaced sites, held as one
polynomial per site interval and evaluated by Horner's rule.

Every user interpolates over the log of a geometric grid (the Mittag-Leffler
table, `RadialFunction`, the W table and the sampled g-hat), so the sites are
uniform, and the interval of a point is found arithmetically, floor((u - x_0)
/ h), with no search.  Sites that are not uniform to rounding are refused.

With n <= k + 1 sites the spline is the one polynomial through them all.
Otherwise its knots are the sites without the (k - 1)/2 next to each end, and
its B-spline coefficients solve the collocation system, which is banded and
totally positive, so Gaussian elimination without pivoting is stable (de Boor
and Pinkus, 1977; de Boor, *A Practical Guide to Splines*).  The factors of
the system and the B-splines' polynomial pieces on each interval depend only
on (n, k), so they are cached per (n, k), and a build is one forward and one
back substitution and one product of the coefficients with the pieces.  Most
builds find their (n, k) cached: 39 of 43 in a pass of the benchmark's
battery, 8 of 12 in profile-sweep and 9 of 16 in potentials (seed 1,
`_system.cache_info()` at the end of one pass process).

The factor rows repeat away from the ends: a cubic has 21 distinct rows from
22 sites on and a quintic 34 from 35, and each is one tuple that every
position holding it refers to (`_factor`).  So a cached 721-site quintic
holds 34 rows of floats, not 721, and the four systems cached after a pass of
the benchmark's battery hold 1,104 objects (66 KB) where one tuple per row
held 34,584 (1.1 MiB, `sys.getsizeof`).

Measured on a 2-vCPU Xeon (numpy 2.4.6), medians of 41 builds in each of
three processes: a 768-site quintic builds in 0.38-0.69 ms (3.1-5.2 ms with
its (n, k) not yet cached) and a 1201-site cubic in 0.84-1.00 ms (2.8 ms),
where scipy's `make_interp_spline` with `PPoly.from_spline` took
0.74-1.01 ms and its `CubicSpline` 0.34-0.37 ms.  Evaluated with the log and
the exp on the 476,801 Mittag-Leffler table arguments of a default-grid G
transform, it takes 10.2-11.4 ns per point, scipy's `PPoly` 16.2-16.7 ns.
"""

from __future__ import annotations

import functools
import struct

import numpy as np


# points per evaluation step: 64 KB per temporary array
_CHUNK = 8192


class SplineError(ValueError):
    pass


def _bspline_pieces(windows, d):
    """Coefficients, in ascending powers of s = x - x_left, of the d + 1
    B-splines of degree d that are nonzero on a unit interval [0, 1], one set
    per row of `windows`: the knots t_{m-d} .. t_{m+d+1} around the interval
    [t_m, t_{m+1}], relative to its left end (Cox-de Boor, on polynomials)."""
    rows = windows.shape[0]
    pieces = np.zeros((rows, 1, d + 1))
    pieces[:, 0, 0] = 1.0
    for e in range(1, d + 1):
        j = np.arange(d - e, d + 1)  # the degree-e B-splines nonzero here
        prev = np.zeros((rows, e + 2, d + 1))
        prev[:, 1:-1] = pieces
        times_s = np.zeros_like(prev)
        times_s[..., 1:] = prev[..., :-1]
        t_j, t_je = windows[:, j], windows[:, j + e]
        t_j1, t_je1 = windows[:, j + 1], windows[:, j + e + 1]
        # a zero knot span carries a B-spline that is zero here: weight 0
        wl = np.divide(1.0, t_je - t_j, out=np.zeros(t_j.shape), where=t_je > t_j)
        wr = np.divide(1.0, t_je1 - t_j1, out=np.zeros(t_j.shape), where=t_je1 > t_j1)
        pieces = (
            (-wl * t_j)[..., None] * prev[:, :-1]
            + wl[..., None] * times_s[:, :-1]
            + (wr * t_je1)[..., None] * prev[:, 1:]
            - wr[..., None] * times_s[:, 1:]
        )
    return pieces


def _factor(band):
    """Gaussian elimination without pivoting of the banded matrix `band` (row
    i holds columns i - w .. i + w), row by row: the rows of its factors, L's
    multipliers left of the diagonal and U right of it and on it.

    Each distinct row, by its bits, is one tuple that every position holding
    it refers to.  A band row equal to the one above it, under w + 1 equal
    factor rows, has the same inputs as that row, so its factor row is that
    row again, with no arithmetic: away from the ends the rows of a
    collocation matrix repeat and its factor rows settle within a few dozen."""
    w = band.shape[1] // 2
    bits = band.view(np.uint64)
    repeat = [False, *np.all(bits[1:] == bits[:-1], axis=1).tolist()]
    lu, distinct, streak = [], {}, 0
    for i, row in enumerate(band.tolist()):
        if repeat[i] and streak > w:
            lu.append(lu[-1])
            continue
        for c in range(max(0, w - i), w):
            if row[c]:  # outside the matrix's own profile: nothing to do
                upper = lu[i - w + c]
                f = row[c] = row[c] / upper[w]
                for s in range(1, w + 1):
                    row[c + s] -= f * upper[w + s]
        row = distinct.setdefault(struct.pack(f"{len(row)}d", *row), tuple(row))
        streak = streak + 1 if lu and row is lu[-1] else 1
        lu.append(row)
    return lu


def _collocation(n: int, k: int):
    """The collocation matrix of the degree-k spline on n sites as a band of
    half-width 4, and for each interval the B-splines nonzero on it and their
    polynomial pieces."""
    d = min(k, n - 1)
    inner = np.arange((k + 1) // 2, n - (k + 1) // 2) if n > k + 1 else np.arange(0)
    t = np.concatenate([np.zeros(d + 1), inner, np.full(d + 1, n - 1.0)])
    left = np.arange(n - 1)
    m = np.searchsorted(t, left, side="right") - 1  # the knot span of each interval
    pieces = _bspline_pieces(t[m[:, None] + np.arange(-d, d + 2)] - left[:, None], d)
    windows = (m - d)[:, None] + np.arange(d + 1)

    # row i: the B-splines at site i, the left end of interval i; at the last
    # site, where the knots end (d + 1)-fold, only the last B-spline is not
    # zero, and it is 1
    vals = np.concatenate([pieces[:, :, 0], np.eye(1, d + 1, d)])
    # the matrix spans at most k - 1 columns either side of the diagonal, so
    # a band of half-width 4 holds either degree and one substitution serves
    w = 4
    cols = np.concatenate([windows, windows[-1:]]) - np.arange(n)[:, None] + w
    band = np.zeros((n, 2 * w + 1))
    nz = vals != 0.0
    band[np.nonzero(nz)[0], cols[nz]] = vals[nz]
    return band, windows, pieces


@functools.lru_cache(maxsize=16)
def _system(n: int, k: int):
    """Everything of a build that depends only on (n, k): the factor rows of
    the collocation matrix, and for each interval the B-splines nonzero on it
    and their polynomial pieces."""
    band, windows, pieces = _collocation(n, k)
    for a in (windows, pieces):  # every build of this (n, k) reads them
        a.flags.writeable = False
    return _factor(band), windows, pieces


def _substitute(lu, y):
    """Solve L U c = y with the factor rows of _factor, unrolled over the band
    half-width 4: a loop over the half-width made a warm build 2-4 times as
    long."""
    z, c = [], []
    z1 = z2 = z3 = z4 = c1 = c2 = c3 = c4 = 0.0
    for b, (l4, l3, l2, l1, _, _, _, _, _) in zip(y, lu):
        z1, z2, z3, z4 = b - l1 * z1 - l2 * z2 - l3 * z3 - l4 * z4, z1, z2, z3
        z.append(z1)
    for b, (_, _, _, _, u0, u1, u2, u3, u4) in zip(reversed(z), reversed(lu)):
        c1, c2, c3, c4 = (b - u1 * c1 - u2 * c2 - u3 * c3 - u4 * c4) / u0, c1, c2, c3
        c.append(c1)
    c.reverse()
    return np.array(c)


class UniformSpline:
    """The not-a-knot spline of degree k (3 or 5) through (x_i, y_i) on
    uniformly spaced sites x: one polynomial of degree k per interval [x_i,
    x_{i+1}] (of degree n - 1 over all sites when n <= k + 1), extended past
    the ends by the end polynomials.  `x` holds the sites, which are also the
    breakpoints."""

    def __init__(self, x, y, k: int = 3):
        x = np.array(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.size
        if k not in (3, 5):
            raise SplineError(f"degree must be 3 or 5, got {k}")
        if x.ndim != 1 or y.shape != x.shape or n == 0:
            raise SplineError("need one value per site, on at least one site")
        h = (x[-1] - x[0]) / (n - 1) if n > 1 else 1.0
        if n > 1 and not (
            h > 0
            and np.max(np.abs(x - (x[0] + h * np.arange(n))))
            <= 1e-12 * max(abs(x[0]), abs(x[-1]))
        ):
            raise SplineError("sites must be increasing and uniformly spaced")
        x.flags.writeable = False
        self.x = x
        self._x0, self._inv_h = x[0], 1.0 / h
        self._left = x[:-1] if n > 1 else x  # the left end of each interval
        if n == 1:
            self._coef = y.reshape(1, 1).copy()
            return
        lu, windows, pieces = _system(n, k)
        c = _substitute(lu, y.tolist())
        # one contiguous row per power, for the gathers in __call__
        self._coef = np.einsum("ij,ijp->pi", c[windows], pieces, order="C")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        out = np.empty(flat.shape)
        coef, inv_h = self._coef, self._inv_h
        # _CHUNK points at a time, in place where it can: the temporaries then
        # stay under glibc's 128 KB mmap threshold.  On a transform's 30,000-
        # point blocks, whole-array ones cost about 100,000 more page faults
        # per potentials pass and made it 20% slower (2-vCPU Xeon).
        for a in range(0, flat.size, _CHUNK):
            v = flat[a : a + _CHUNK]
            s = v - self._x0
            s *= inv_h
            # mode="clip" takes the end intervals' polynomials beyond the ends
            i = s.astype(np.intp)
            term = np.take(self._left, i, mode="clip")
            np.subtract(v, term, out=s)  # from the site itself: no drift along x
            s *= inv_h
            acc = out[a : a + _CHUNK]
            np.take(coef[-1], i, out=acc, mode="clip")
            for col in coef[-2::-1]:
                acc *= s
                acc += np.take(col, i, out=term, mode="clip")
        return out.reshape(u.shape)
