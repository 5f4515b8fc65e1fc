"""Separable radial forcings f(x,t) = amplitude * g(|x|) (1+t)^{-gamma}, the
spectral Duhamel solution of the fully nonlocal problem, and its mass M(t).

The solution slice at time t has Fourier transform

    u-hat(r, t) = amplitude * g-hat(r) * W(r^{2 beta}, t),
    W(lam, t)   = int_0^t (1+s)^{-gamma} (t-s)^{alpha-1}
                  E_{alpha,alpha}(-lam (t-s)^alpha) ds.

duhamel_symbols builds that product at K checkpoints, each minus an optional
comparison profile: the one path for u-hat minus profile-hat, which
solve_duhamel inverts at K = 1 and every check in fracasym.verify inverts
at its checkpoints.  It evaluates W by whole columns of the engine's block
(the index on its last axis): only through the last column where the
spatial factor is nonzero in some row, and the table's spline only on the
columns that hold a point inside the table.  Every other point's value is
the one the product would give it, so each output keeps every bit.  On the
battery's Gaussian symbols the spline then runs on 51-53% of the points, or
87% where the spatial factor has no zero (outer-general, coherence).  Each
block's arrays are the code's own: the default spatial factor is scaled in
place, r^{2b} is FracParams.lam's (r itself at 2b = 1), and W's log and
spline share one buffer, so no array that spatial returned is written.

The substitution tau = (t-s)^alpha removes the endpoint singularity exactly:
W(lam, t) = (1/alpha) int_0^{t^alpha} (1+t-tau^{1/alpha})^{-gamma}
E_{alpha,alpha}(-lam tau) d tau.  W is tabulated once per (alpha, gamma, t)
on a dense log-lam grid by composite Gauss-Legendre over graded geometric
tau-panels and evaluated through a log-log cubic spline (a
`spline.UniformSpline` on the table's log-uniform knots), with exact closed
forms taking over outside the table: W -> W(0) for lam t^alpha -> 0 and
W ~ (1+t)^{-gamma}/lam for lam t^alpha -> infinity.  For gamma = 0 the exact
W = (1 - E_alpha(-x))/lam, x = lam t^alpha, gates the quadrature; below x = 1
it is summed as the series t^alpha E_{alpha,1+alpha}(-x) = t^alpha sum_k
(-x)^k / Gamma(1 + alpha + alpha k), since the difference cancels as x -> 0
(by 1.3e-9 relative at x = 2e-8).  Either way it is within 1e-15 of a
40-digit mpmath sum; the table meets it within 1.2e-9, its cubic
interpolation error near x = 1.2.  For gamma > 0 the table is the quadrature
at its knots (within 1e-13 of the direct sum over every node); between them
its cubic interpolation of log W errs against that sum by at most 1.6e-9 to
4.9e-8 per tested (alpha, gamma, t), the most at alpha = 0.9, gamma = 1,
t = 1e8, and always at x = lam t^alpha between 1 and 6 (tests/test_solver.py,
at the knot midpoints).

The quadrature evaluates E_{alpha,alpha} once per distinct argument (see
_w_knots): about 455,000 points per table rather than 1201 x 1250, and a
cold table peaks at 1.16 MiB of traced allocations.  The table
cache has no bound: an entry holds about 48 KB (a 1201-knot spline) and takes
13-20 ms to build (72-94 ms with one E per knot and node; 2-vCPU Xeon), and a
run visits only a few (alpha, gamma, t) keys, so the cache stays well under a
megabyte.  Where gamma != 0 the quadrature takes t <= 1e18 and refuses a
larger t with SolverError (see _duhamel_nodes), so W, M(t), every solve and
every check take that bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import special
from .params import FracParams, is_whole
from .radialtransform import RadialFunction, RadialGrid, TransformError, radial_fourier_inverse
from .special import _horner, _rgamma, bessel_j_half, gauss_legendre, gl_panels, mittag_leffler
from .spline import UniformSpline


class SolverError(ValueError):
    pass


_FAMILIES = ("gaussian", "bump", "heavy")


@dataclass(frozen=True)
class ForcingSpec:
    """f(x,t) = amplitude * g(|x|) * (1+t)^{-gamma} with g from a fixed family:

    * "gaussian": g = exp(-rho^2 / width^2)
    * "bump":     g = (1 - rho^2 / width^2)_+^2   (compactly supported)
    * "heavy":    g = (1 + rho^2)^{-(N+1)/2}      (slow algebraic decay)

    The heavy family has no width: it takes width = 1 only, as the bump takes
    an odd dim only, and refuses any other value rather than record one that
    g and g-hat never read.  Each is bounded (0 <= g <= 1) with finite mass,
    read off its closed-form g-hat at 0 (mass_g); the gaussian and the bump
    have every moment, the heavy family's g ~ rho^{-N-1} an infinite first
    one.  That is all that is checked: the paper's hypotheses on the forcing
    are not encoded.
    """

    family: str
    gamma: float
    amplitude: float = 1.0
    width: float = 1.0
    dim: int = 3

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise SolverError(f"unknown forcing family {self.family!r}")
        if not (math.isfinite(self.gamma) and math.isfinite(self.amplitude)):
            raise SolverError(
                f"gamma and amplitude must be finite, got {self.gamma}, {self.amplitude}")
        if not 0 < self.width < math.inf:
            raise SolverError(f"width must be positive and finite, got {self.width}")
        if not is_whole(self.dim) or self.dim < 1:
            raise SolverError(f"dim must be a positive integer, got {self.dim}")
        # stored as an int, as FracParams stores its dim
        object.__setattr__(self, "dim", int(self.dim))
        if self.family == "bump" and self.dim % 2 == 0:
            # its g-hat needs J_{N/2+2}, which bessel_j_half gives at odd N only
            raise SolverError(f"the bump family needs an odd dim, got {self.dim}")
        if self.family == "heavy" and self.width != 1.0:
            raise SolverError(f"the heavy family has no width: it needs width = 1, "
                              f"got {self.width}")

    def g(self, rho):
        """Spatial factor g(rho) (without amplitude)."""
        rho = np.asarray(rho, dtype=float)
        if self.family == "gaussian":
            return np.exp(-((rho / self.width) ** 2))
        if self.family == "bump":
            return np.clip(1.0 - (rho / self.width) ** 2, 0.0, None) ** 2
        return (1.0 + rho**2) ** (-(self.dim + 1) / 2.0)

    def ghat(self, r):
        """Closed-form Fourier transform of g (without amplitude)."""
        r = np.asarray(r, dtype=float)
        n, w = self.dim, self.width
        if self.family == "gaussian":
            # -(w r)^2 / 4, then its exp, in one array of its own, operation
            # by operation as the expression runs.  exp is exactly 0 at or
            # below -746, where it costs 6-32 ns a point against about 1 ns
            # above (numpy 2.4.6): it runs only where the argument is above
            # that, or NaN, and the rest is set to 0
            e = np.multiply(w, r, out=np.empty(r.shape))
            np.square(e, out=e)
            np.negative(e, out=e)
            e /= 4.0
            under = e <= -746.0
            np.exp(e, out=e, where=~under)
            e[under] = 0.0
            e *= (math.pi * w * w) ** (n / 2.0)
            return e
        if self.family == "heavy":
            return math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0) * np.exp(-r)
        # bump: 8 (2 pi)^{N/2} R^N J_{N/2+2}(rR) / (rR)^{N/2+2}
        nu = n / 2.0 + 2.0
        x = r * w
        out = np.empty_like(x)
        small = x < 1e-4
        if small.any():
            # J_nu(x)/x^nu = 2^{-nu} [1/Gamma(nu+1) - (x/2)^2/Gamma(nu+2) + ...]
            xs = x[small]
            z = (xs / 2.0) ** 2
            series = (
                1.0 / math.gamma(nu + 1.0)
                - z / math.gamma(nu + 2.0)
                + z * z / (2.0 * math.gamma(nu + 3.0))
            )
            out[small] = 2.0**-nu * series
        big = ~small
        if big.any():
            # long double keeps the upward recurrence within 1.2e-14 of J
            # (40-digit mpmath) at N = 7, where double loses 1.5e-11 near
            # x = 1.5
            xb = x[big]
            out[big] = bessel_j_half(nu, xb.astype(special._EXTENDED)).astype(float) / xb**nu
        return 8.0 * (2.0 * math.pi) ** (n / 2.0) * w**n * out

    @property
    def mass_g(self) -> float:
        """omega_N int_0^inf g rho^{N-1} d rho, which is g-hat(0) by
        definition, so it is read off the closed-form transform."""
        return float(self.ghat(0.0))

    @property
    def M0(self) -> float:
        return self.amplitude * self.mass_g

    def as_dict(self) -> dict:
        """The forcing as reports and sidecars record it (dim is the problem's)."""
        return {k: getattr(self, k) for k in ("family", "gamma", "amplitude", "width")}


@dataclass(frozen=True)
class SolutionSlice:
    t: float
    u: RadialFunction
    params: FracParams
    diagnostics: dict = field(default_factory=dict)

    def save(self, csv_path):
        self.u.save(
            csv_path,
            extra_metadata={"t": self.t, **self.diagnostics},
        )


# --- the time weight W(lam, t) ------------------------------------------------

_LAM_SPAN = 1e10  # table covers lam * t^alpha in [1/span, span]
_PTS_PER_DECADE = 60
_GL_TAU = gauss_legendre(12)
# Both halves of the Duhamel quadrature are graded over 26 decades with this
# many geometric panels per decade.  A tau-panel then spans a whole number of
# lam-knot steps, which _w_knots uses to evaluate each E argument once.
_PANELS_PER_DECADE = 2
_PANEL_EDGES = 10.0 ** np.linspace(-26.0, 0.0, 26 * _PANELS_PER_DECADE + 1)
if _PTS_PER_DECADE % _PANELS_PER_DECADE:
    raise ImportError("lam knots per decade must be a multiple of panels per decade")
_KNOTS_PER_PANEL = _PTS_PER_DECADE // _PANELS_PER_DECADE
# the largest t the quadrature takes where gamma != 0 (see _duhamel_nodes)
_T_MAX = 1e18


def _duhamel_nodes(alpha: float, gamma: float, t: float):
    """Discretize int_0^t (1+s)^{-gamma} (t-s)^{alpha-1} E_{aa}(-lam (t-s)^alpha) ds
    as sum_k c_k E_{aa}(-lam a_k), lam-independent nodes a_k = (t-s_k)^alpha.

    The forcing weight varies on the s ~ 1 scale near s = 0 and the kernel on
    the tau ~ 1/lam scale near s = t, so the two halves are graded separately:
    s in [0, t/2] geometrically in s, s in [t/2, t] geometrically in
    tau = (t-s)^alpha (which also removes the endpoint singularity exactly).
    The nodes come in that order, s-half then tau-half panel by panel, then
    the two stubs.

    The s-half's stub [0, 0.5 t 1e-26] is summed as a constant, which errs
    by about gamma (gamma - 1)/2 (0.5e-26 t)^2 relative: 2.5e-9 at t = 1e22
    and 5e3 at 1e30 (gamma = 2, alpha = 1).  So where gamma != 0, whose
    integrand that stub does not hold constant, t > _T_MAX is refused.
    """
    if gamma != 0.0 and t > _T_MAX:
        raise SolverError(f"the Duhamel quadrature needs t <= {_T_MAX:g} "
                          f"where gamma != 0, got t={t:g}")
    # old-forcing half: s in [0, t/2], graded toward s = 0
    s_edges = 0.5 * t * _PANEL_EDGES
    s_nodes, s_w = gl_panels(s_edges, *_GL_TAU)
    a_s = (t - s_nodes) ** alpha
    c_s = (1.0 + s_nodes) ** (-gamma) * (t - s_nodes) ** (alpha - 1.0) * s_w
    # recent half: tau in [0, (t/2)^alpha], graded toward tau = 0
    V = (0.5 * t) ** alpha
    tau_edges = V * _PANEL_EDGES
    tau_nodes, tau_w = gl_panels(tau_edges, *_GL_TAU)
    c_tau = (1.0 + t - tau_nodes ** (1.0 / alpha)) ** (-gamma) * tau_w / alpha
    # stubs: [0, s_min] and [0, tau_min], integrands constant to ~1e-16 there
    a = np.concatenate([a_s, tau_nodes, [t**alpha, 0.0]])
    c = np.concatenate(
        [
            c_s,
            c_tau,
            [s_edges[0] * t ** (alpha - 1.0), tau_edges[0] * (1.0 + t) ** (-gamma) / alpha],
        ]
    )
    return a, c


def _w_knots(alpha: float, gamma: float, t: float):
    """The lam knots of the W table and W(lam, t) = sum_k c_k E_{aa}(-lam a_k)
    there, over the nodes of _duhamel_nodes, evaluating E once per distinct
    argument (about 455,000 points, not 1201 x 1250 = 1,501,250):

    * s-half and stubs: (t - s)^alpha rounds to t^alpha for s < t 2^-53, so
      equal nodes are merged and their weights summed (about 350 of 626 are
      distinct);
    * tau-half: panel i's nodes are panel 0's times 10^{i/2} and knot j is
      lam_0 10^{j/60}, so lam_j tau_{i,k} = lam_0 tau_{0,k} 10^{(j + 30 i)/60}
      (30 = _KNOTS_PER_PANEL).  E is evaluated once on the 1201 + 30 x 51
      merged arguments of each of the 12 panel-0 nodes, one node per call,
      and knot j sums the 52 at j, j + 30, ..., j + 30 x 51.
    """
    U = t**alpha
    a, c = _duhamel_nodes(alpha, gamma, t)
    n_dec = 2 * int(round(math.log10(_LAM_SPAN)))
    lam = np.geomspace(1.0 / (_LAM_SPAN * U), _LAM_SPAN / U, n_dec * _PTS_PER_DECADE + 1)

    n_gl = _GL_TAU[0].size
    n = (_PANEL_EDGES.size - 1) * n_gl  # nodes per half
    a_s, inverse = np.unique(np.concatenate([a[:n], a[2 * n :]]), return_inverse=True)
    c_s = np.bincount(inverse, weights=np.concatenate([c[:n], c[2 * n :]]))
    w_vals = np.empty_like(lam)
    # 64 knots per call: all 1201 at once took 33 ms, not 15 ms, per table at
    # a 17.7 MiB traced peak, not 1.9 MiB; 128 took 21 ms (2-vCPU Xeon).
    # With the tau-half below one node per call, these calls set the build's
    # peak: 1.16 MiB traced
    chunk = 64
    for i in range(0, lam.size, chunk):
        e = mittag_leffler(alpha, alpha, -(lam[i : i + chunk, None] * a_s))
        w_vals[i : i + chunk] = e @ c_s

    tau0, c_tau = a[n : n + n_gl], c[n : 2 * n].reshape(-1, n_gl)
    span = _KNOTS_PER_PANEL * (c_tau.shape[0] - 1)
    # whole decades apart: 10 ** (m / 60) for m / 60 up to 45 would carry the
    # exponent's rounding, ~1e-14 relative
    q, r = np.divmod(np.arange(lam.size + span), _PTS_PER_DECADE)
    lam_ext = lam[0] * 10.0**q * 10.0 ** (r / _PTS_PER_DECADE)
    # one panel-0 node per call, into one array: all 12 in one call held 12
    # rows of each of mittag_leffler's temporaries, and a cold table build
    # peaked at 1.66 MiB traced, not 1.16
    e = np.empty((n_gl, lam_ext.size))
    for k, node in enumerate(tau0):
        e[k] = mittag_leffler(alpha, alpha, -(node * lam_ext))
    windows = sliding_window_view(e, span + 1, axis=1)[:, :, ::_KNOTS_PER_PANEL]
    w_vals += np.einsum("kji,ik->j", windows, c_tau)
    return lam, w_vals


@functools.cache
def _build_w_table(alpha: float, gamma: float, t: float):
    """Spline table of log W over log lam, cached per (alpha, gamma, t)."""
    lam, w_vals = _w_knots(alpha, gamma, t)
    if np.any(w_vals <= 0) or not np.all(np.isfinite(w_vals)):
        raise TransformError("time-weight quadrature produced nonpositive values")
    spline = UniformSpline(np.log(lam), np.log(w_vals), k=3)
    return lam[0], lam[-1], w_vals[0], w_vals[-1], spline


def time_weight(alpha: float, gamma: float, t: float):
    """Vectorized lam -> W(lam, t), written into out when it is given (an
    array of lam's shape).  gamma = 0 is exact: W = U E_{alpha,1+alpha}(-x)
    with U = t^alpha and x = lam U, that is U sum_k (-x)^k / Gamma(1 + alpha +
    alpha k), summed by Horner below x = 1, where the closed form
    (1 - E_alpha(-x))/lam cancels (by 1.3e-9 relative at x = 2e-8), and the
    closed form from x = 1 on; otherwise a cached spline table, whose log,
    spline and exp run only from the first to the last column (index on the
    last axis; a 1-D lam is one row) that holds a point inside the table,
    with the closed forms written over every point outside it.  Where
    gamma != 0, t must be at most 1e18 (_duhamel_nodes)."""
    if not 0 < t < math.inf:  # a NaN fails every comparison, so this test too
        raise SolverError(f"time must be positive and finite, got t={t}")
    if gamma == 0.0:
        U = t**alpha
        # the series' coefficients 1/Gamma(1 + alpha + alpha k), through the
        # first below 1e-18 of the leading one: with x < 1 the rest is smaller
        coef = [_rgamma(1.0 + alpha)]
        while abs(coef[-1]) > 1e-18 * coef[0]:
            coef.append(_rgamma(1.0 + alpha * (len(coef) + 1)))

        def w_exact(lam, out=None):
            lam = np.asarray(lam, dtype=float)
            if out is None:
                out = np.empty_like(lam)
            x = lam * U
            small = x < 1.0
            if small.any():
                out[small] = U * _horner(-x[small], coef)
            rest = ~small
            if rest.any():
                out[rest] = (
                    1.0 - mittag_leffler(alpha, 1.0, -lam[rest] * U)
                ) / lam[rest]
            return out

        return w_exact

    lam_lo, lam_hi, w_lo, w_hi, spline = _build_w_table(alpha, gamma, t)

    def w_interp(lam, out=None):
        # the spline from the first to the last column (index on the last
        # axis; a 1-D lam is one row) that holds a point inside the table,
        # then the closed forms written over every point outside it, whose
        # spline values (which may overflow) are dropped
        lam = np.asarray(lam, dtype=float)
        shape, lam = lam.shape, np.atleast_1d(lam)
        if out is None:
            out = np.empty_like(lam)
        low, high = lam <= lam_lo, lam >= lam_hi
        inside = ~(low | high)
        cols = np.flatnonzero(inside.any(axis=tuple(range(lam.ndim - 1))))
        if cols.size:
            span = slice(cols[0], cols[-1] + 1)
            with np.errstate(all="ignore"):
                # the log and the spline in one buffer, the exp into out
                v = np.log(lam[..., span])
                np.exp(spline(v, out=v), out=out[..., span])
        out[low] = w_lo
        out[high] = w_hi * (lam_hi / lam[high])
        return out.reshape(shape)

    return w_interp


def duhamel_symbols(fs: ForcingSpec, params: FracParams, times, profiles=None, spatial=None):
    """r -> spatial(r) W(r^{2b}, t) - profile-hat_t(r) for t in times, yielded
    one at a time: the K symbols whose inverse transforms are the Duhamel
    solution at each checkpoint minus its comparison profile, all served by
    one engine pass, the one path for u-hat minus profile-hat.  spatial
    defaults to amplitude g-hat, which makes the first term u-hat.  The
    t-independent factors s = spatial(r) and lam = r^{2b} (FracParams.lam)
    are formed once per block and handed to profiles(r, lam, s), which
    yields the K profile-hats with their amplitude and mass factors, each
    taken as its term needs it; without profiles the symbols are the
    Duhamel terms alone.  No output is referenced once the next is asked
    for.  A forcing in another dimension than the problem's is refused.

    W is formed only through the last column (index on r's last axis) where s
    is nonzero in some row, in the output's own buffer, and multiplied by s
    there; past that column the output is s's own zero, sign kept, which is
    s W for any finite positive W.  A scalar s, or one without a trailing
    zero column, takes W on the full width.  t <= 1e18 where gamma != 0."""
    _check_dim(fs, params)
    if spatial is None:

        def spatial(r):
            s = fs.ghat(r)  # a fresh array: scaled in place
            s *= fs.amplitude
            return s

    weights = [time_weight(params.alpha, fs.gamma, t) for t in times]

    def symbols(r):
        s, lam = spatial(r), params.lam(r)  # lam may be r: nothing writes into it
        hats = None if profiles is None else iter(profiles(r, lam, s))
        # W only through the last column (index on the last axis) where s is
        # nonzero in some row: past it s W is s's own zero, sign and all; a
        # scalar s takes the full width
        j, head_s, tail = lam.shape[-1], s, s
        if np.ndim(s):
            nonzero = np.flatnonzero(s.any(axis=tuple(range(s.ndim - 1))))
            j = nonzero[-1] + 1 if nonzero.size else 0
            head_s, tail = s[..., :j], s[..., j:]
        for w in weights:
            d = np.empty(lam.shape)
            head = d[..., :j]
            w(lam[..., :j], out=head)
            head *= head_s
            d[..., j:] = tail
            if hats is not None:
                d -= next(hats)  # in d's own buffer: s is shared
            yield d
            del d, head  # before the next term is formed

    return symbols


def _check_dim(fs: ForcingSpec, params: FracParams):
    if fs.dim != params.dim:
        raise SolverError(
            f"forcing dim {fs.dim} does not match problem dim {params.dim}"
        )


def solve_duhamel(
    fs: ForcingSpec, params: FracParams, t: float, grid: RadialGrid | None = None
) -> SolutionSlice:
    """Solution slice u(., t) by inverse transform of the Duhamel symbol."""
    grid = grid or RadialGrid()
    symbols = duhamel_symbols(fs, params, (t,))
    u = radial_fourier_inverse(lambda r: next(symbols(r)), params.dim, grid)
    if fs.amplitude > 0:
        # Y >= 0 forces u >= 0; sub-noise negative garbage is clamped
        neg = u.samples < 0
        if neg.any():
            floor = 1e-12 * np.max(np.abs(u.samples))
            if np.any(u.samples < -floor):
                raise TransformError("solution slice significantly negative")
            cleaned = u.samples.copy()
            cleaned[neg] = 0.0
            u = RadialFunction(grid, cleaned)
    diag = {**fs.as_dict(), **params.as_dict(),
            "time_weight": "closed-form" if fs.gamma == 0.0 else "spline-table"}
    return SolutionSlice(t=float(t), u=u, params=params, diagnostics=diag)


def solution_mass(fs: ForcingSpec, params: FracParams, t: float) -> float:
    """M(t) = (1/Gamma(alpha)) int_0^t M_f(s) (t-s)^{alpha-1} ds = M0 W(0, t),
    the sum of the Duhamel quadrature weights; for gamma = 0 it equals
    M0 t^alpha / Gamma(1 + alpha) to rounding.  A forcing in another
    dimension than the problem's is refused, as duhamel_symbols refuses it."""
    _check_dim(fs, params)
    if not 0 <= t < math.inf:
        raise SolverError(f"t must be nonnegative and finite, got t={t}")
    if t == 0.0:
        return 0.0
    _, c = _duhamel_nodes(params.alpha, fs.gamma, t)
    return fs.M0 * float(np.sum(c)) / math.gamma(params.alpha)
