"""Scalar special functions: Gamma, half-integer Bessel J, and the one- and
two-parameter Mittag-Leffler function on the closed negative real axis.

The Mittag-Leffler evaluator E_{a,b}(-y) is vectorized, and each range of y
has exactly one path, each with an error contract against 40-digit mpmath:

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
the completely monotone function), which is within 1e-15 of a 40-digit mpmath
integral for a in [0.3, 0.9] and b in {a, 1}.  Neither serves any other
point.  The knots are log-uniform, so a point's interval is found by
arithmetic, and one degree-5 Horner sum gives its value: with the log and the
exp, 10.2-11.4 ns per point on the 476,801 table arguments of a default-grid
G transform, in the engine's order, where scipy's `PPoly` of the same
interpolant took 16.2-16.7 ns (2-vCPU Xeon).  The caches have no bound: a table
entry holds about 40 KB (721 knots, 6 x 720 coefficients) and takes 6-15 ms
to build, an expansions entry 3.4 KB, and a run visits only a few (a, b)
pairs.

Gamma comes from the math module: `gamma_fn` for any real non-pole argument
and the reciprocal `_rgamma` for the expansions' coefficients.

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
from numpy.polynomial.legendre import leggauss

from .spline import UniformSpline


class SpecialFunctionError(ValueError):
    pass


def _gamma(x: float) -> float:
    """math.gamma, inf where it overflows."""
    try:
        return math.gamma(x)
    except OverflowError:  # x above 171.62
        return math.inf


def gamma_fn(x):
    """Gamma function for real non-pole arguments (math.gamma; inf where it
    overflows)."""
    x_arr = np.asarray(x, dtype=float)
    pole = (x_arr <= 0) & (x_arr == np.floor(x_arr))
    if np.any(pole):
        raise SpecialFunctionError("Gamma pole: argument is a nonpositive integer")
    out = np.array([_gamma(v) for v in x_arr.ravel().tolist()]).reshape(x_arr.shape)
    return float(out) if np.isscalar(x) else out


def _rgamma(x: float) -> float:
    """1/Gamma(x), 0 at the poles and where Gamma overflows (x above 171.62,
    where 1/Gamma is below 5.7e-309), as scipy's `rgamma`."""
    if x <= 0 and x == math.floor(x):
        return 0.0
    return 1.0 / _gamma(x)


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


def gl_panels(breaks, xg, wg):
    """Gauss-Legendre rule (xg, wg) on [-1, 1] mapped onto each panel of
    `breaks`: flattened nodes and weights, in the dtype of the inputs."""
    breaks = np.asarray(breaks)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    half = 0.5 * (breaks[1:] - breaks[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


# Panels for the contour integral: [0,1] in the substituted variable v, one
# panel per decade down to 1e-16 (the integrand keeps factors v^{a/q}, which a
# wider panel resolves only slowly), then [1, R_CUT] in r (graded for the
# e^{-r} decay).
_V_NODES, _V_WEIGHTS = gl_panels(
    [0.0, *10.0 ** np.arange(-16, 0), 0.3, 0.6, 1.0], *leggauss(24)
)
_R_NODES, _R_WEIGHTS = gl_panels([1.0, 2.0, 4.0, 8.0, 16.0, 28.0, _R_CUT], *leggauss(32))


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
    exactly; on [1, R_CUT] the integrand is smooth.
    """
    y = y[:, None]
    sin_ba = math.sin(math.pi * (b - a))
    sin_b = math.sin(math.pi * b)
    cos_a = math.cos(math.pi * a)

    def core(r, ra_btimes_dr):
        ra = r**a
        num = y * sin_ba + ra * sin_b
        den = ra * ra + 2.0 * y * ra * cos_a + y * y
        return np.exp(-r) * num / den * ra_btimes_dr

    q = 1.0 + a - b  # >= a: mittag_leffler admits only b <= 1
    r_low = _V_NODES ** (1.0 / q)
    part_low = core(r_low, _V_WEIGHTS / q)
    part_high = core(_R_NODES, _R_NODES ** (a - b) * _R_WEIGHTS)
    return (part_low.sum(axis=1) + part_high.sum(axis=1)) / math.pi


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
    and at most 1.0e-14 for a <= 0.8; the 40-digit mpmath integral agrees.
    Closer to a = 1 the contour integral itself loses accuracy.  The log
    needs E > 0, which holds for b >= a, where E_{a,b}(-y) is completely
    monotone."""
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
    if np.any(x_arr > 0):
        raise SpecialFunctionError("positive arguments are out of scope (x <= 0 only)")

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
    in long double from Gamma(1/2) = sqrt(pi) and Gamma(y + 1) = y Gamma(y),
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
        coef = 1.0 / np.sqrt(np.arccos(np.longdouble(-1.0)))  # 1/Gamma(1/2)
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
