"""Scalar special functions: Gamma, half-integer Bessel J, and the one- and
two-parameter Mittag-Leffler function on the closed negative real axis.

The Mittag-Leffler evaluator E_{a,b}(-y) is vectorized, and each range of y
has exactly one path:

* y < 1e-2: the power series, which needs only a few terms there;
* 1e-2 <= y < 40: a cached per-(a, b) table, a quintic spline of log E over
  log y (`_ml_table`), within 1e-13 relative of E for a <= 0.9 and b <= 1
  (at most 4.6e-14 measured);
* y >= 40: the algebraic asymptotic expansion.

The table's knots are valued by the series up to y = 0.9 and above it by a
real-line integral (the collapsed Hankel contour, i.e. the spectral density of
the completely monotone function), which is within 1e-15 of a 40-digit mpmath
integral for a in [0.3, 0.9] and b in {a, 1}.  Neither serves any other
point.  The table cache has no bound: an entry holds about 12 KB (721 knots)
and takes 7-11 ms to build (2-vCPU Xeon), and a run visits only a few
(a, b) pairs.

Only order a in (0, 1] and second parameter b in {1, a} are exercised by the
rest of the package, but any b with a <= b < 1 + a is accepted.  Below a,
E_{a,b}(-y) is not completely monotone and can change sign, so its log has
no table.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import make_interp_spline
from scipy.special import gamma as _scipy_gamma
from scipy.special import rgamma as _rgamma


class SpecialFunctionError(ValueError):
    pass


def gamma_fn(x):
    """Gamma function for real non-pole arguments."""
    x_arr = np.asarray(x, dtype=float)
    pole = (x_arr <= 0) & (x_arr == np.floor(x_arr))
    if np.any(pole):
        raise SpecialFunctionError("Gamma pole: argument is a nonpositive integer")
    out = _scipy_gamma(x_arr)
    return float(out) if np.isscalar(x) else out


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


def _ml_series(a, b, y):
    """Power series sum_k (-y)^k / Gamma(b + a k) for y in [0, ~1)."""
    total = np.full_like(y, _rgamma(b))
    term = np.ones_like(y)
    for k in range(1, 400):
        term = term * (-y)
        coeff = _rgamma(b + a * k)
        total += term * coeff
        if np.max(np.abs(term)) * max(abs(coeff), 1.0) < 1e-18:
            break
    return total

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

    q = 1.0 + a - b  # > 0: mittag_leffler admits only b < 1 + a
    r_low = _V_NODES ** (1.0 / q)
    part_low = core(r_low, _V_WEIGHTS / q)
    part_high = core(_R_NODES, _R_NODES ** (a - b) * _R_WEIGHTS)
    return (part_low.sum(axis=1) + part_high.sum(axis=1)) / math.pi


def _ml_asymptotic(a, b, y):
    """E_{a,b}(-y) ~ sum_{k>=1} (-1)^{k+1} y^{-k} / Gamma(b - a k), truncated
    at the smallest term of the envelope y^{-k} g_k, g_k = Gamma(1 + |a k - b|)
    / pi, which bounds each term up to a factor of order one (1/Gamma(-x) =
    -sin(pi x) Gamma(1 + x) / pi).  The terms themselves are tiny next to a
    Gamma pole of b - a k, so stopping at the first that grows stops early."""
    inv = 1.0 / y
    total = np.zeros_like(y)
    term = np.ones_like(y)
    y_lo = float(y.min())
    # y^{-k} g_k <= y^{-(k-1)} g_{k-1} iff y >= g_k / g_{k-1}: a row's envelope
    # has passed its smallest term once y falls below the running maximum y_cut
    y_cut = 0.0
    g_prev = math.inf
    sign = 1.0
    for k in range(1, _ASYMP_KMAX + 1):
        term = term * inv
        g = math.gamma(1.0 + abs(a * k - b)) / math.pi
        y_cut = max(y_cut, g / g_prev)
        g_prev = g
        c = sign * float(_rgamma(b - a * k))
        sign = -sign
        active = y >= y_cut
        if not active.any():
            break
        total[active] += c * term[active]
        # every row still summing has y >= max(y_cut, y_lo)
        if g * max(y_cut, y_lo) ** (-k) < 1e-18:
            break
    return total


@functools.cache
def _ml_table(a: float, b: float):
    """Quintic spline of log E_{a,b}(-y) over log y on [_TABLE_LO, _ASYMP_CUT],
    with _TABLE_PER_DECADE knots per decade (721 knots), valued by the series
    up to _SERIES_CUT and by the contour integral above it.

    Error contract: within 1e-13 relative of E_{a,b}(-y) on the whole range
    for 0 < a <= 0.9 and a <= b <= 1.  Measured at every knot midpoint
    against the fixed branches, the worst is 4.6e-14 at (0.9, 0.9), y = 6.6,
    and at most 8e-15 for a <= 0.8; the 40-digit mpmath integral agrees.
    Closer to a = 1 the contour integral itself loses accuracy.  The log
    needs E > 0, which holds for b >= a, where E_{a,b}(-y) is completely
    monotone."""
    n = round(_TABLE_PER_DECADE * math.log10(_ASYMP_CUT / _TABLE_LO)) + 1
    y = np.geomspace(_TABLE_LO, _ASYMP_CUT, n)
    low = y <= _SERIES_CUT
    e = np.concatenate([_ml_series(a, b, y[low]), _ml_integral(a, b, y[~low])])
    return make_interp_spline(np.log(y), np.log(e), k=5)


def mittag_leffler(a: float, b: float, x):
    """E_{a,b}(x) for x <= 0, vectorized over x.

    Supported: 0 < a <= 1 with a <= b < 1 + a (a = 1 only with b = 1).
    """
    if not (0.0 < a <= 1.0):
        raise SpecialFunctionError(f"order a must be in (0, 1], got {a}")
    if not (a <= b < 1.0 + a):
        raise SpecialFunctionError(f"second parameter b must be in [a, 1+a), got {b}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr > 0):
        raise SpecialFunctionError("positive arguments are out of scope (x <= 0 only)")

    if a == 1.0:
        if b != 1.0:
            raise SpecialFunctionError("a = 1 supported only with b = 1 (E_1 = exp)")
        out = np.exp(x_arr)
        return float(out) if np.isscalar(x) else out

    y = -x_arr.ravel()
    out = np.empty_like(y)

    small = y < _TABLE_LO
    large = y >= _ASYMP_CUT
    mid = ~small & ~large
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
    there) runs in double."""
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
        z = -0.25 * xs * xs
        term = np.ones_like(xs)
        total = np.full_like(xs, _rgamma(order + 1.0))
        for m in range(1, 20):
            term = term * z / m
            total += term * _rgamma(order + 1.0 + m)
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
