"""Riesz kernels E_mu(x) = |x|^{mu-N}, their normalization constants c_mu,
and Riesz potentials I_mu[g] of radial functions.

I_mu is computed spectrally: I_mu[g] = F^{-1}(g-hat(r) r^{-mu}) / c_mu, which
matches the convolution definition; direct convolution quadrature is kept only
as a coarse test oracle in the test-suite.

Also implements the tail-theorem check: R^{N(1-1/p)-mu} ||I_mu[g] - M E_mu||
over annuli nu R < |x| < mu_outer R must vanish as R grows, where M is the
(computed, never assumed) mass of g.

Without a closed-form g-hat, two memos serve a sampled g, both keyed on exact
content rather than identity or a digest, so no other profile's result can
come back; a RadialFunction owns a read-only copy of its samples, so equal
content is the same function.
* The numerical forward transform of the samples: a check run over several
  (mu, p) for one g transforms it once.  The key is (grid, the samples'
  bytes, N); at most 8 entries of about 45 KB each (see _ghat_from_samples).
* The deviation I_mu[g] - M E_mu with its mass M (M = 0 for
  riesz_potential): a tail check read at several p inverts it, and
  integrates g for M, once.  The key adds mu, whether M is subtracted, and
  the output grid; at most 8 entries of about 60 KB each, under 0.5 MB (see
  _deviation_from_samples).
A closed-form g-hat is a callable, not content, so its results are not
memoized.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .radialtransform import (
    RadialFunction,
    RadialGrid,
    lp_norm_annulus,
    radial_fourier_forward,
    radial_fourier_inverse,
    radial_integral,
)
from .reporting import ConvergenceReport, make_report
from .spline import UniformSpline


class PotentialError(ValueError):
    pass


def riesz_constant(mu: float, dim: int) -> float:
    """c_mu = Gamma((N-mu)/2) / (pi^{N/2} 2^mu Gamma(mu/2))."""
    if not 0.0 < mu < dim:
        raise PotentialError(f"mu must be in (0, N), got mu={mu}, N={dim}")
    return math.gamma((dim - mu) / 2.0) / (
        math.pi ** (dim / 2.0) * 2.0**mu * math.gamma(mu / 2.0)
    )


@functools.lru_cache(maxsize=8)
def _ghat_from_samples(grid: RadialGrid, samples: bytes, dim: int):
    """Numerical Fourier transform of the profile with these float64 samples
    on grid, splined (cubic, `spline.UniformSpline`) on a wide log grid:
    constant below (the transform is smooth at 0), clamped to zero beyond
    decay.

    Memoized on its arguments, called as (g.grid, g.samples.tobytes(), N).
    The key is the exact content: two profiles share an entry only when every
    sample is bit-equal, and the transform is built from the key alone, so a
    hit returns what a miss would compute.  The bound is 8 entries, each about
    45 KB (a 4-5 KB key, the grid's 4-5 KB of nodes and 36 KB of 900-knot
    cubic spline), under 0.4 MB in all.
    """
    g = RadialFunction(grid, np.frombuffer(samples))
    fwd = radial_fourier_forward(g, dim)
    r_nodes = np.geomspace(1e-5, 1e5, 900)
    vals = fwd(r_nodes)
    peak = np.max(np.abs(vals))
    vals[np.abs(vals) < 1e-13 * peak] = 0.0
    spline = UniformSpline(np.log(r_nodes), vals, k=3)
    lo, hi = r_nodes[0], r_nodes[-1]
    v0 = vals[0]

    def ghat(r):
        out = np.zeros(r.shape)
        inside = (r >= lo) & (r <= hi)
        out[inside] = spline(np.log(r[inside]))
        out[r < lo] = v0
        return out

    return ghat


def riesz_potential(
    g: RadialFunction | None,
    mu: float,
    dim: int,
    grid: RadialGrid | None = None,
    ghat=None,
) -> RadialFunction:
    """I_mu[g] = F^{-1}(g-hat(r) r^{-mu}) / c_mu on the given grid: the
    deviation of potential_deviation with M = 0.

    Pass the closed-form Fourier transform via `ghat` when available (the
    forcing families provide one); otherwise it is computed numerically.
    """
    return _potential(g, mu, dim, grid, ghat, False)[0]


def potential_deviation(
    g: RadialFunction, mu: float, dim: int, grid: RadialGrid | None = None, ghat=None
):
    """I_mu[g] - M E_mu computed through the single difference symbol
    (g-hat(r) - M) r^{-mu} / c_mu, avoiding catastrophic cancellation in the
    far field.  Returns (deviation: RadialFunction, M)."""
    return _potential(g, mu, dim, grid, ghat, True)


def _potential(g, mu, dim, grid, ghat, subtract: bool):
    """(I_mu[g] - M E_mu, M) on grid, with M the mass of g when subtract and
    0 otherwise: the one body of riesz_potential and potential_deviation."""
    if g is None and ghat is None:
        raise PotentialError("need the samples g or a closed-form ghat")
    riesz_constant(mu, dim)  # refuses mu outside (0, N) before any transform
    grid = grid or (g.grid if g is not None else RadialGrid())
    if ghat is None:
        return _deviation_from_samples(g.grid, g.samples.tobytes(), dim, mu, subtract, grid)
    mass = 0.0
    if subtract:
        # g-hat(0) is the mass by definition of the transform; using it keeps
        # the difference symbol exactly vanishing at r = 0 (a quadrature value
        # of the mass would leave a spurious M_err * E_mu residue dominating
        # every far annulus).  Cross-checked against the radial quadrature.
        mass = float(np.asarray(ghat(np.array([0.0]))).ravel()[0])
        if g is not None:
            mass_quad = radial_integral(g, dim)
            if abs(mass_quad / mass - 1.0) > 1e-6:
                raise PotentialError(
                    f"mass mismatch: transform value {mass:g} vs radial "
                    f"quadrature {mass_quad:g}"
                )
    return _deviation(ghat, mass, mu, dim, grid), mass


@functools.lru_cache(maxsize=8)
def _deviation_from_samples(g_grid: RadialGrid, samples: bytes, dim: int, mu: float,
                            subtract: bool, grid: RadialGrid):
    """(I_mu[g] - M E_mu on grid, M) for the profile g with these float64
    samples on g_grid, where M is g's radial quadrature mass when subtract
    and 0 otherwise (riesz_potential).

    Memoized on its arguments, called as (g.grid, g.samples.tobytes(), N, mu,
    subtract, grid): the key is the exact content of everything the result
    depends on, the mass included, and the result is built from the key
    alone, so a hit returns what a miss would compute.  So a tail check read
    at several p inverts its deviation, and integrates g, once.  The bound
    is 8 entries, each a RadialFunction on grid (about 60 KB on 768 points
    once its spline is built) plus a key of the size of g's samples: under
    0.5 MB in all.
    """
    ghat = _ghat_from_samples(g_grid, samples, dim)
    mass = 0.0
    if subtract:
        mass = radial_integral(RadialFunction(g_grid, np.frombuffer(samples)), dim)
    return _deviation(ghat, mass, mu, dim, grid), mass


def _deviation(ghat, mass, mu, dim, grid):
    """I_mu[g] - mass E_mu on grid: the inverse transform of the one symbol
    (g-hat(r) - mass) r^{-mu}, divided by c_mu."""
    out = radial_fourier_inverse(lambda r: (ghat(r) - mass) * r**-mu, dim, grid)
    return RadialFunction(grid, out.samples / riesz_constant(mu, dim))


def riesz_tail_check(
    g: RadialFunction,
    mu: float,
    dim: int,
    p: float,
    nu: float,
    mu_outer: float,
    R_list,
    ghat=None,
    tolerance: float = 1e-6,
) -> ConvergenceReport:
    """Normalized far-field errors R^{N(1-1/p)-mu} ||I_mu[g] - M E_mu||_{L^p}
    over the annuli nu R < rho < mu_outer R for R in R_list (at least two
    finite, positive, strictly increasing radii); pass iff strictly
    decreasing and final value below tolerance.  A zero g (zero samples, or
    a closed-form ghat whose deviation is identically zero at mass 0), a
    non-finite mu_outer and a tolerance that is not finite and positive (a
    NaN or non-positive one fails every series, an infinite one passes every
    decreasing one) are refused."""
    if not 0 < nu < mu_outer < math.inf:
        raise PotentialError("need 0 < nu < mu_outer < inf")
    if not 0.0 < tolerance < math.inf:
        raise PotentialError(f"tolerance must be finite and positive, got {tolerance}")
    if not p >= 1:
        raise PotentialError(f"p must be in [1, inf], got {p}")
    R_list = [float(R) for R in R_list]
    if len(R_list) < 2 or not all(
        0 < R < S < math.inf for R, S in zip(R_list, R_list[1:])
    ):
        raise PotentialError(
            f"need at least two finite, positive, increasing radii, got {R_list}")
    vacuous = "g = 0 has no mass, so its tail statement is vacuous"
    if g is not None and g.is_zero:
        raise PotentialError(vacuous)
    t0 = time.perf_counter()
    grid = RadialGrid(1e-2, max(mu_outer * max(R_list) * 2.0, 1e3), 768)
    dev, mass = potential_deviation(g, mu, dim, grid, ghat=ghat)
    if mass == 0.0 and dev.is_zero:  # a closed-form ghat of a zero g
        raise PotentialError(vacuous)
    # information floor: samples 15+ orders below the peak deviation are
    # quadrature residue (they would otherwise dominate far annuli where the
    # true deviation has decayed super-algebraically)
    floor = 1e-15 * float(np.max(np.abs(dev.samples)))
    if np.any(np.abs(dev.samples) < floor):
        cleaned = dev.samples.copy()
        cleaned[np.abs(cleaned) < floor] = 0.0
        dev = RadialFunction(grid, cleaned)
    raw, norm = [], []
    exponent = dim * (1.0 - 1.0 / p)
    for R in R_list:
        err = lp_norm_annulus(dev, p, dim, nu * R, mu_outer * R)
        raw.append(err)
        norm.append(R ** (exponent - mu) * err)
    rep = make_report(
        "riesz-tail", R_list, raw, norm, tolerance,
        params={"mu": mu, "dim": dim, "mass": mass},
        p=p, scale={"nu": nu, "mu_outer": mu_outer}, grid=grid.as_dict(),
    )
    rep.runtime_seconds = time.perf_counter() - t0
    return rep
