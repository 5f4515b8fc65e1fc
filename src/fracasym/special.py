"""Scalar special functions: Gamma, half-integer Bessel J, and the one- and
two-parameter Mittag-Leffler function on the closed negative real axis.

The Mittag-Leffler evaluator E_{a,b}(-y) is vectorized, and each range of y
has exactly one path, each with an error contract against a reference that
shares none of them, Talbot's inversion of the Laplace transform
s^{a-b}/(s^a + y) in 40-digit mpmath (tests/test_special.py):

* y < 1e-2: the power series in -y, one Horner sum, within 1e-15 relative
  (2.2e-16 measured);
* 1e-2 <= y < 40: a cached per-(a, b) table, a quintic spline of log E over
  log y (`_ml_table`, a `spline.UniformSpline`), within 1e-13 relative of E
  for a <= 0.9 and b <= 1 (at most 4.6e-14 measured);
* y >= 40: the asymptotic expansion in 1/y, one Horner sum, within 1e-14
  relative for a <= 0.9 (2.1e-15 measured).

Both Horner sums run in place in one output array (`_horner`): the same bits
as numpy's `polyval`, at 0.42 ms instead of 1.05 ms for 20 coefficients on a
30,464-point block (2-vCPU Xeon).

The table's knots are valued by the series up to y = 0.9 and above it by a
real-line integral (the collapsed Hankel contour, i.e. the spectral density of
the completely monotone function), which is within 1e-15 of the 40-digit
Talbot reference for a in [0.3, 0.9] and b in {a, 1}.  Neither serves any other
point.  The knots are log-uniform, so a point's interval is found by
arithmetic, and one degree-5 Horner sum gives its value: with the log and the
exp, 10.2-11.4 ns per point on the 476,801 table arguments of a default-grid
G transform, in the engine's order, where scipy's `PPoly` of the same
interpolant took 16.2-16.7 ns (2-vCPU Xeon).  The integral runs on the 330
contour knots in slices of 200 (`_ML_SLICE`), its integrand formed in place,
so a cold table build peaks at 1.56 MiB of traced allocations and takes
3.0 ms (medians over 82 fresh (a, b) pairs, 2-vCPU Xeon), where all 330 knots
at once, out of place, peaked at 4.68 MiB and took 4.2 ms, with the same
bits.  The caches have no bound: a table entry holds about 40 KB (721 knots,
6 x 720 coefficients), an expansions entry 3.4 KB, and a run visits only a
few (a, b) pairs.

Gamma is `math.gamma`, on one positive scalar at every call site; its
reciprocal `_rgamma` (0 at the poles and on overflow) gives the expansions'
coefficients.

`_EXTENDED` is the package's one extended precision (long double): the
Hankel engine's abscissas, weights and sums (`radialtransform`), the bump
forcing's Bessel recurrence (`solver`) and the Bessel series' coefficients
here read it, through this module, when they run.  It is 80-bit x87 on
x86-64 Linux, where every gate was measured, and float64 on Windows and
macOS arm64; `precision_bits()` is what reports, sidecars and the profile
cache record of it.  No option sets it.

The module also holds the package's quadrature and fitting primitives: the
five Gauss-Legendre rules in use, as constants (`gauss_legendre`), their
mapping onto panels (`gl_panels`), and the one least-squares slope
(`lsq_slope`).  With them no path imports `numpy.polynomial` or runs a
LAPACK routine: a pass of the benchmark's battery peaks 1.7 MB lower in RSS
than with numpy's `leggauss` and `polyfit` (in one process, 2-vCPU Xeon).

Only order a in (0, 1] and second parameter b in {1, a} are exercised by the
rest of the package; any b with a <= b <= 1, the range of the table's error
contract, is accepted.  Below a, E_{a,b}(-y) is not completely monotone and
can change sign, so its log has no table; above 1 the contour integral loses
accuracy as b -> 1 + a (1.2e-2 at a = 0.5, b = 1.499).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .spline import UniformSpline


# The one extended precision, read as special._EXTENDED at call time: 80-bit
# x87 on x86-64 Linux, float64 on Windows and macOS arm64.
_EXTENDED = np.longdouble


def precision_bits() -> int:
    """The significand bits of _EXTENDED, as reports, sidecars and the
    profile cache's identity record them: 64 on x86-64 Linux."""
    return int(np.finfo(_EXTENDED).nmant) + 1


class SpecialFunctionError(ValueError):
    pass


def _rgamma(x: float) -> float:
    """1/Gamma(x), 0 at the poles and where Gamma overflows (x above 171.62,
    where 1/Gamma is below 5.7e-309), as scipy's `rgamma`."""
    if x <= 0 and x == math.floor(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


def ml_tail_coefficient(a: float) -> float:
    """Leading coefficient of E_{a,a}(-x) ~ C x^{-2}: C = -1/Gamma(-a).

    Positive for a in (0, 1); degenerate at a = 1.
    """
    if not (0.0 < a < 1.0):
        raise SpecialFunctionError(f"tail coefficient requires a in (0,1), got {a}")
    # -1/Gamma(-a) = sin(pi a) Gamma(1 + a) / pi by reflection
    return math.sin(math.pi * a) * math.gamma(1.0 + a) / math.pi


# --- Mittag-Leffler machinery -------------------------------------------------

_TABLE_LO = 1e-2
_SERIES_CUT = 0.9
_ASYMP_CUT = 40.0
_TABLE_PER_DECADE = 200
_R_CUT = 45.0  # e^{-45} ~ 3e-20: truncation of the contour integral
_ASYMP_KMAX = 60  # at most this many terms of the asymptotic expansion


# The Gauss-Legendre rules in use on [-1, 1], as the positive half of each
# (nodes ascending, then their weights): numpy's leggauss(n) to the bit, whose
# nodes are exactly antisymmetric and weights exactly symmetric at these n.
# Held as constants, so that no path imports numpy.polynomial or runs LAPACK
# (leggauss calls eigvalsh).
_GL_HALVES = {
    8: (
        (0.18343464249564978, 0.525532409916329, 0.7966664774136267,
         0.9602898564975362),
        (0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
         0.10122853629037706),
    ),
    12: (
        (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
         0.7699026741943047, 0.9041172563704748, 0.9815606342467192),
        (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
         0.16007832854334642, 0.10693932599531907, 0.04717533638651141),
    ),
    16: (
        (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
         0.6178762444026438, 0.755404408355003, 0.8656312023878318,
         0.9445750230732326, 0.9894009349916499),
        (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
         0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
         0.062253523938647456, 0.027152459411754176),
    ),
    24: (
        (0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
         0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
         0.7401241915785544, 0.820001985973903, 0.8864155270044011,
         0.9382745520027328, 0.9747285559713095, 0.9951872199970213),
        (0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
         0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
         0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
         0.04427743881741941, 0.02853138862893356, 0.01234122979998869),
    ),
    32: (
        (0.048307665687738324, 0.1444719615827965, 0.23928736225213706,
         0.33186860228212767, 0.42135127613063533, 0.5068999089322294,
         0.5877157572407623, 0.6630442669302152, 0.7321821187402897,
         0.7944837959679424, 0.84936761373257, 0.8963211557660521,
         0.9349060759377397, 0.9647622555875064, 0.9856115115452684,
         0.9972638618494816),
        (0.09654008851472766, 0.09563872007927471, 0.09384439908080451,
         0.09117387869576378, 0.08765209300440378, 0.08331192422694671,
         0.07819389578707023, 0.07234579410884834, 0.06582222277636168,
         0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
         0.034273862913021765, 0.025392065309262024, 0.016274394730905743,
         0.007018610009470506),
    ),
}


def gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1],
    for n in 8, 12, 16, 24 and 32: the bits of numpy's leggauss(n)."""
    x, w = (np.array(half) for half in _GL_HALVES[n])
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def gl_panels(breaks, xg, wg):
    """Gauss-Legendre rule (xg, wg) on [-1, 1] mapped onto each panel of
    `breaks`: flattened nodes and weights, in the dtype of the inputs."""
    breaks = np.asarray(breaks)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    half = 0.5 * (breaks[1:] - breaks[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def lsq_slope(x, y) -> float:
    """The least-squares slope of a straight line through (x, y), in the
    centred closed form sum (x - xbar)(y - ybar) / sum (x - xbar)^2: exact on
    an exact line, and within rounding of numpy's `polyfit(x, y, 1)[0]`,
    which solves the same problem by LAPACK."""
    dx = np.asarray(x, dtype=float)
    dx = dx - dx.mean()
    dy = np.asarray(y, dtype=float)
    dy = dy - dy.mean()
    return float((dx * dy).sum() / (dx * dx).sum())


# Panels for the contour integral: [0,1] in the substituted variable v, one
# panel per decade down to 1e-16 (the integrand keeps factors v^{a/q}, which a
# wider panel resolves only slowly), then [1, R_CUT] in r (graded for the
# e^{-r} decay).
_V_NODES, _V_WEIGHTS = gl_panels(
    [0.0, *10.0 ** np.arange(-16, 0), 0.3, 0.6, 1.0], *gauss_legendre(24)
)
_R_NODES, _R_WEIGHTS = gl_panels([1.0, 2.0, 4.0, 8.0, 16.0, 28.0, _R_CUT], *gauss_legendre(32))
# contour knots per slice of _ml_integral: a table build (330 contour knots)
# peaked at 2.46 MiB traced with all at once, 1.56 MiB with 200 and 1.05 MiB
# with 128, in 3.2, 2.3 and 2.3 ms (2-vCPU Xeon).  With this integrand every
# size tried, 100 to 330, read 0.03-0.11 MB higher on the benchmark battery's
# peak RSS (ROADMAP lists the variants measured)
_ML_SLICE = 200


@functools.cache
def _ml_expansions(a: float, b: float):
    """Coefficients of the two expansions of E_{a,b}(-y), cached per (a, b):
    the power series in -y, 1/Gamma(b + a k) for k < 400, and the asymptotic
    expansion in 1/y, (-1)^{k+1} / Gamma(b - a k) for k >= 1.  The latter is
    truncated for all y >= _ASYMP_CUT by the envelope y^{-k} g_k, g_k =
    Gamma(1 + |a k - b|) / pi, which bounds each term up to a factor of order
    one (1/Gamma(-x) = -sin(pi x) Gamma(1 + x) / pi); the terms themselves are
    tiny next to a Gamma pole of b - a k.  At y = _ASYMP_CUT it stops before
    the envelope grows or after it falls below 1e-18: 12-21 terms for a <= 0.9."""
    asymptotic, g_prev = [0.0], math.inf
    for k in range(1, _ASYMP_KMAX + 1):
        g = math.gamma(1.0 + abs(a * k - b)) / math.pi
        if g > _ASYMP_CUT * g_prev:
            break
        asymptotic.append((-1.0) ** (k + 1) * _rgamma(b - a * k))
        if g * _ASYMP_CUT ** (-k) < 1e-18:
            break
        g_prev = g
    return np.array([_rgamma(b + a * k) for k in range(400)]), np.array(asymptotic)


def _horner(x, c):
    """sum_k c_k x^k by Horner's rule in one output array, the same
    operations in the same order as numpy's `polyval` (so the same bits for
    finite x) without its two temporaries per coefficient."""
    out = np.full_like(x, c[-1])
    for coef in c[-2::-1]:
        out *= x
        out += coef
    return out


def _ml_series(a, b, y):
    """E_{a,b}(-y) for y in [0, ~1): one Horner sum of the power series through
    the first k with y_max^k max(|c_k|, 1) < 1e-18, y_max = max y (at most 11
    terms below y = 1e-2, 370 at the table's last series knot)."""
    c = _ml_expansions(a, b)[0]
    k = np.arange(1, c.size)
    below = float(y.max()) ** k * np.maximum(np.abs(c[1:]), 1.0) < 1e-18
    n = np.argmax(below) + 1 if below.any() else c.size - 1
    return _horner(-y, c[: n + 1])


def _ml_integral(a, b, y):
    """Collapsed Hankel contour on the negative axis, valid for a in (0,1):

    E_{a,b}(-y) = (1/pi) * int_0^inf e^{-r} r^{a-b}
                  [y sin(pi(b-a)) + r^a sin(pi b)]
                  / (r^{2a} + 2 y r^a cos(pi a) + y^2) dr.

    On [0,1] the substitution r = v^{1/(1+a-b)} absorbs the r^{a-b} factor
    exactly; on [1, R_CUT] the integrand is smooth.  The knots go _ML_SLICE
    at a time, and each (knots x nodes) part is one numerator and one
    denominator array finished in place: each operation is the whole-array
    expression's own, operands swapped at most, so every bit is kept.
    """
    sin_ba = math.sin(math.pi * (b - a))
    sin_b = math.sin(math.pi * b)
    cos_a = math.cos(math.pi * a)
    q = 1.0 + a - b  # >= a: mittag_leffler admits only b <= 1
    parts = []
    for r, weights in ((_V_NODES ** (1.0 / q), _V_WEIGHTS / q),
                       (_R_NODES, _R_NODES ** (a - b) * _R_WEIGHTS)):
        ra = r**a
        parts.append((ra, ra * ra, ra * sin_b, np.exp(-r), weights))

    out = np.empty_like(y)
    for i in range(0, y.size, _ML_SLICE):
        ys = y[i : i + _ML_SLICE, None]
        two_y, y_sin, y_sq = 2.0 * ys, ys * sin_ba, ys * ys
        sums = []
        for ra, ra_sq, ra_sin, decay, weights in parts:
            # e^{-r} num / den * weights, one operation at a time in place
            den = two_y * ra
            den *= cos_a
            den += ra_sq
            den += y_sq
            num = y_sin + ra_sin
            num *= decay
            num /= den
            num *= weights
            sums.append(num.sum(axis=1))
            del num, den  # before the next part allocates its own
        out[i : i + _ML_SLICE] = (sums[0] + sums[1]) / math.pi
    return out


def _ml_asymptotic(a, b, y):
    """E_{a,b}(-y) for y >= _ASYMP_CUT: one Horner sum in 1/y."""
    return _horner(1.0 / y, _ml_expansions(a, b)[1])


@functools.cache
def _ml_table(a: float, b: float):
    """Quintic spline of log E_{a,b}(-y) over log y on [_TABLE_LO, _ASYMP_CUT],
    with _TABLE_PER_DECADE knots per decade (721 knots), valued by the series
    up to _SERIES_CUT and by the contour integral above it.

    Error contract: within 1e-13 relative of E_{a,b}(-y) on the whole range
    for 0 < a <= 0.9 and a <= b <= 1.  Measured at every knot midpoint
    against the fixed branches, the worst is 4.6e-14 at (0.9, 0.9), y = 6.8,
    and at most 1.0e-14 for a <= 0.8; the 40-digit Talbot reference agrees.
    Closer to a = 1 the contour integral itself loses accuracy.  The log
    needs E > 0, which holds for b >= a, where E_{a,b}(-y) is completely
    monotone.

    A cold build takes 3.0 ms and peaks at 1.56 MiB of traced allocations,
    most of it one slice of the contour integral (`_ML_SLICE`, 200 of the 330
    contour knots, against 456 nodes)."""
    n = round(_TABLE_PER_DECADE * math.log10(_ASYMP_CUT / _TABLE_LO)) + 1
    y = np.geomspace(_TABLE_LO, _ASYMP_CUT, n)
    low = y <= _SERIES_CUT
    e = np.concatenate([_ml_series(a, b, y[low]), _ml_integral(a, b, y[~low])])
    return UniformSpline(np.log(y), np.log(e), k=5)


def mittag_leffler(a: float, b: float, x):
    """E_{a,b}(x) for x <= 0, vectorized over x.

    Supported: 0 < a <= 1 with a <= b <= 1 (so b = 1 at a = 1, E_1 = exp).
    """
    if not (0.0 < a <= 1.0):
        raise SpecialFunctionError(f"order a must be in (0, 1], got {a}")
    if not (a <= b <= 1.0):
        raise SpecialFunctionError(f"second parameter b must be in [a, 1], got {b}")
    x_arr = np.asarray(x, dtype=float)
    if not np.all(x_arr <= 0):  # refuses a NaN, which x > 0 lets through
        raise SpecialFunctionError("arguments must be <= 0 (positive and NaN are out of scope)")

    if a == 1.0:
        out = np.exp(x_arr)
        return float(out) if np.isscalar(x) else out

    y = -x_arr.ravel()
    out = np.empty_like(y)

    small = y < _TABLE_LO
    large = y >= _ASYMP_CUT
    mid = ~(small | large)
    if small.any():
        out[small] = _ml_series(a, b, y[small])
    if mid.any():
        out[mid] = np.exp(_ml_table(a, b)(np.log(y[mid])))
    if large.any():
        out[large] = _ml_asymptotic(a, b, y[large])

    out = out.reshape(x_arr.shape)
    return float(out) if np.isscalar(x) else out


def bessel_j_half(order: float, x):
    """J_{k+1/2}(x) for x > 0 via the closed trigonometric forms, with an
    ascending-series fallback for small x to avoid cancellation.

    The recurrence (x > 1.5) runs in the input's precision, so long-double
    abscissas get extended-precision values; the series (no cancellation
    there) runs in double.  Its coefficients 1/Gamma(order + 1 + m) are formed
    in _EXTENDED from Gamma(1/2) = sqrt(pi) and Gamma(y + 1) = y Gamma(y),
    then rounded once.  They agree with scipy's `rgamma` to 2 ulp, and give
    the Hankel kernels of N = 3 to 9 the bits they had with it."""
    k = order - 0.5
    if k < 0 or k != math.floor(k):
        raise SpecialFunctionError(
            f"order must be a half-integer k + 1/2 with k >= 0, got {order}"
        )
    k = int(k)
    x_arr = np.asarray(x)
    x_arr = x_arr.astype(np.promote_types(x_arr.dtype, np.float64), copy=False)
    if np.any(x_arr <= 0):
        raise SpecialFunctionError("bessel_j_half requires x > 0")

    xf = x_arr.ravel()
    out = np.empty_like(xf)

    small = xf <= 1.5
    if small.any():
        xs = xf[small].astype(float)
        coef = 1.0 / np.sqrt(np.arccos(_EXTENDED(-1.0)))  # 1/Gamma(1/2)
        for j in range(k + 1):
            coef /= j + 0.5
        z = -0.25 * xs * xs
        term = np.ones_like(xs)
        total = np.full_like(xs, float(coef))
        for m in range(1, 20):
            term = term * z / m
            coef /= order + m
            total += term * float(coef)
        out[small] = (0.5 * xs) ** order * total

    big = ~small
    if big.any():
        xb = xf[big]
        pref = np.sqrt(2.0 / (math.pi * xb))
        jm, j = pref * np.cos(xb), pref * np.sin(xb)  # J_{-1/2}, J_{1/2}
        nu = 0.5
        for _ in range(k):
            jm, j = j, (2.0 * nu / xb) * j - jm
            nu += 1.0
        out[big] = j

    out = out.reshape(x_arr.shape)
    return float(out) if np.isscalar(x) else out
