"""Self-similar kernel profiles for the fully nonlocal heat equation.

Z (fundamental kernel) has Fourier transform E_alpha(-|w|^{2b} t^a); its t=1
radial slice is the profile F.  Y (the Duhamel kernel) has Fourier transform
t^{a-1} E_{a,a}(-|w|^{2b} t^a); its t=1 slice is the profile G.  Both are
positive, with G ~ kappa rho^{4b-N} at the origin and an algebraic
rho^{-(N+2b)} tail for b < 1 (exponential-type for b = 1).

Profiles are built once per (alpha, beta, N, grid) and cached on disk; the
cache is also keyed on the engine source, and a corrupt file is a miss.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import radialtransform, special
from .params import Exponents, FracParams, derive_exponents
from .potentials import riesz_constant
from .radialtransform import (
    RadialFunction,
    RadialGrid,
    TransformError,
    radial_fourier_inverse,
)
from .special import gl_panels, mittag_leffler, ml_tail_coefficient


class KernelError(RuntimeError):
    pass


def default_cache_dir() -> str:
    return os.environ.get(
        "FRACASYM_CACHE", os.path.join(os.path.expanduser("~"), ".cache", "fracasym")
    )


# fitted constants a profile carries besides its values (sidecar keys)
_FITTED = ("kappa", "kappa_variation", "constant_A", "bound_report")


@functools.cache
def _engine() -> str:
    """sha256 of the source that computes profile values, so that a profile
    cached by other code is a miss."""
    sources = (special.__file__, radialtransform.__file__, __file__)
    return hashlib.sha256(b"".join(Path(f).read_bytes() for f in sources)).hexdigest()


@dataclass(frozen=True)
class KernelProfile:
    """A t=1 kernel slice with its fitted constants.

    kappa is None in validation mode (alpha = 1: the profile is bounded and
    rho^{N-4b} G -> 0, so the limit is not applicable)."""

    params: FracParams
    exps: Exponents
    which: str  # "F" (Z-profile) or "G" (Y-profile)
    values: RadialFunction
    kappa: float | None = None
    kappa_variation: float | None = None
    constant_A: float | None = None
    bound_report: dict | None = None

    def save(self, csv_path):
        """Values CSV plus a JSON sidecar with the profile's identity
        (which, alpha, beta, dim, engine) and its fitted constants."""
        p = self.params
        meta = {"which": self.which, "alpha": p.alpha, "beta": p.beta, "dim": p.dim,
                "engine": _engine()}
        meta.update({k: getattr(self, k) for k in _FITTED})
        self.values.save(csv_path, extra_metadata=meta)


def _symbol(params: FracParams, which: str):
    a, b = params.alpha, params.beta
    second = 1.0 if which == "F" else a

    def symbol(r):
        r_arr = np.asarray(r, dtype=float)
        return mittag_leffler(a, second if a < 1 else 1.0, -(r_arr ** (2.0 * b)))

    return symbol


def _grid_key(grid: RadialGrid) -> str:
    raw = f"{grid.rho_min:.17g}|{grid.rho_max:.17g}|{grid.points}"
    return hashlib.md5(raw.encode()).hexdigest()[:12]


def _cache_path(params: FracParams, which: str, grid: RadialGrid, cache_dir: str) -> str:
    name = (
        f"profile_{which}_a{params.alpha!r}_b{params.beta!r}_N{params.dim}"
        f"_{_grid_key(grid)}.csv"
    )
    return os.path.join(cache_dir, name)


def _build(params: FracParams, which: str, grid: RadialGrid | None, cache_dir):
    grid = grid or RadialGrid()
    exps = derive_exponents(params)
    cache_dir = default_cache_dir() if cache_dir is None else cache_dir

    path = _cache_path(params, which, grid, cache_dir) if cache_dir else None
    if path and os.path.exists(path):
        try:
            values, meta = RadialFunction.load(path)
        except (OSError, ValueError, KeyError, IndexError, TypeError, TransformError):
            meta = {}  # a corrupt CSV or sidecar is a miss
        # a sidecar written for other parameters or by other engine code is a
        # miss: rebuild over it
        request = {"which": which, "alpha": params.alpha, "beta": params.beta,
                   "dim": params.dim, "engine": _engine()}
        if {k: meta.get(k) for k in request} == request:
            fitted = {k: meta.get(k) for k in _FITTED}
            return KernelProfile(params, exps, which, values, **fitted)

    values = radial_fourier_inverse(_symbol(params, which), params.dim, grid)
    if params.beta == 1.0:
        # exponential-type spatial tail: the profile is positive, so from the
        # first non-positive sample on the samples are quadrature residue
        samples = values.samples.copy()
        samples[np.logical_or.accumulate(samples <= 0.0)] = 0.0
        values = RadialFunction(grid, samples)
    if np.any(values.samples < 0) or values.samples[0] <= 0:
        raise KernelError(f"{which}-profile not positive on the grid")
    profile = KernelProfile(params=params, exps=exps, which=which, values=values)
    if which == "G":
        kappa, variation = (
            estimate_kappa(profile) if params.alpha < 1.0 else (None, None)
        )
        a_const = constant_A(profile)
        report = validate_bounds(profile) if params.alpha < 1.0 else None
        profile = replace(
            profile,
            kappa=kappa,
            kappa_variation=variation,
            constant_A=a_const,
            bound_report=report,
        )
    if path:
        profile.save(path)
    return profile


def build_z_profile(params: FracParams, grid: RadialGrid | None = None, cache_dir=None):
    """F = inverse transform of r -> E_alpha(-r^{2 beta}), i.e. Z(., 1)."""
    return _build(params, "F", grid, cache_dir)


def build_y_profile(params: FracParams, grid: RadialGrid | None = None, cache_dir=None):
    """G = inverse transform of r -> E_{alpha,alpha}(-r^{2 beta}), i.e. the
    t=1 slice of Y under the normalization Y-hat = t^{a-1} E_{a,a}."""
    return _build(params, "G", grid, cache_dir)


def build_y_profile_subtracted(params: FracParams, grid: RadialGrid | None = None):
    """Singular-tail-subtraction route (cross-check for build_y_profile):

        G = F^{-1}[E_{a,a}(-r^{2b}) - c_tail r^{-4b}] + c_tail c_{4b} E_{4b},

    using the exact inverse F^{-1}(|w|^{-mu}) = c_mu |x|^{mu-N}.  The full
    (uncut) power law keeps the residual symbol smooth; it is integrable at
    the origin since N > 4b.  Not available for beta = 1, where subtraction
    would replace the exponential-type tail by an algebraic one.
    """
    if params.alpha >= 1.0:
        raise KernelError("subtraction route requires alpha < 1")
    if params.beta >= 1.0:
        raise KernelError(
            "subtraction route not applicable at beta = 1 (exponential tail)"
        )
    grid = grid or RadialGrid()
    a, b, n = params.alpha, params.beta, params.dim
    c_tail = ml_tail_coefficient(a)
    base = _symbol(params, "G")

    def residual(r):
        r_arr = np.asarray(r, dtype=float)
        return base(r_arr) - c_tail * r_arr ** (-4.0 * b)

    rem = radial_fourier_inverse(residual, n, grid)
    c4b = riesz_constant(4.0 * b, n)
    samples = rem.samples + c_tail * c4b * grid.nodes ** (4.0 * b - n)
    return KernelProfile(
        params=params,
        exps=derive_exponents(params),
        which="G",
        values=RadialFunction(grid, samples),
    )


def estimate_kappa(profile: KernelProfile):
    """Plateau fit of rho^{N-4b} G(rho): mean over the lowest decade whose
    relative variation is below 1% (5% acceptance as a fallback).

    Returns (kappa, variation); raises on fit failure.
    """
    _require_g(profile)
    if profile.params.alpha >= 1.0:
        return None, None
    n, b = profile.params.dim, profile.params.beta
    grid = profile.values.grid
    scaled = grid.nodes ** (n - 4.0 * b) * profile.values.samples

    best = None
    for start in np.arange(
        math.log10(grid.rho_min), math.log10(grid.rho_max) - 1.0, 0.5
    ):
        sel = (grid.nodes >= 10.0**start) & (grid.nodes <= 10.0 ** (start + 1.0))
        window = scaled[sel]
        mean = float(window.mean())
        variation = float((window.max() - window.min()) / abs(mean))
        if variation < 0.01:
            return mean, variation
        if best is None or variation < best[1]:
            best = (mean, variation)
    if best and best[1] < 0.05:
        return best
    raise KernelError(
        f"kappa plateau fit failed: best variation {best[1]:.3g} over all decades"
    )


_GL12 = leggauss(12)


def constant_A(profile: KernelProfile) -> float:
    """A = (1/theta) int_0^inf rho^{N-1-2b} G(rho) drho, grid quadrature plus
    closed-form power-law tail corrections from the fitted exponents."""
    _require_g(profile)
    p = profile.params
    n, b = p.dim, p.beta
    theta = p.alpha / (2.0 * b)
    v = profile.values
    g = v.grid

    # integrand in log coordinates: rho^{N-2b} G(rho)
    x, w = gl_panels(np.log(g.nodes), *_GL12)
    rho = np.exp(x)
    total = float(np.dot(w, v(rho) * rho ** (n - 2.0 * b)))

    e_in = (n - 2.0 * b) + v.inner_exponent
    if e_in <= 0:
        raise KernelError(
            f"inner exponent {v.inner_exponent:.3g} inconsistent with integrability"
        )
    total += v.samples[0] * g.rho_min ** (n - 2.0 * b) / e_in
    if v.samples[-1] > 0:  # zero-clamped exponential-type tails need no piece
        e_out = (n - 2.0 * b) + v.outer_exponent
        if e_out >= 0:
            raise KernelError(
                f"outer exponent {v.outer_exponent:.3g} inconsistent with integrability"
            )
        total += v.samples[-1] * g.rho_max ** (n - 2.0 * b) / (-e_out)
    a_val = total / theta
    if not (a_val > 0 and math.isfinite(a_val)):
        raise KernelError(f"constant A not finite/positive: {a_val}")
    return a_val


def evaluate_Y(profile: KernelProfile, rho, t):
    """Y(rho, t) = t^{-sigma_*} G(rho t^{-theta}), for arrays of rho or of t."""
    _require_g(profile)
    e = profile.exps
    t = np.asarray(t, dtype=float)  # one power routine for scalar and array t
    if np.any(t <= 0):
        raise KernelError("t must be positive")
    return t**-e.sigma_star * profile.values(np.asarray(rho) * t**-e.theta)


def evaluate_Z(profile: KernelProfile, rho, t):
    """Z(rho, t) = t^{-N theta} F(rho t^{-theta})."""
    if profile.which != "F":
        raise KernelError("evaluate_Z requires the F-profile")
    e = profile.exps
    if t <= 0:
        raise KernelError("t must be positive")
    return t ** (-profile.params.dim * e.theta) * profile.values(
        np.asarray(rho) * t**-e.theta
    )


def validate_bounds(profile: KernelProfile) -> dict:
    """Interior two-sided bound, exterior tail slope, and the global upper
    bound G <= C rho^{4b-N}; returns a clause-by-clause report."""
    _require_g(profile)
    p = profile.params
    if p.alpha >= 1.0:
        raise KernelError("bound validation applies to alpha < 1 only")
    n, b = p.dim, p.beta
    grid = profile.values.grid
    nodes, samples = grid.nodes, profile.values.samples
    scaled = nodes ** (n - 4.0 * b) * samples

    interior_sel = nodes <= 1.0
    interior_ratio = float(scaled[interior_sel].max() / scaled[interior_sel].min())
    report = {
        "interior_ratio": interior_ratio,
        "interior_pass": bool(np.all(scaled[interior_sel] > 0)),
        "global_C": float(scaled.max()),
        "global_pass": bool(np.isfinite(scaled.max())),
    }

    if b < 1.0:
        sel = (nodes >= 5.0) & (nodes <= 0.5 * grid.rho_max)
        slope = float(np.polyfit(np.log(nodes[sel]), np.log(samples[sel]), 1)[0])
        target = -(n + 2.0 * b)
        report.update(
            exterior_slope=slope,
            exterior_target=target,
            exterior_pass=bool(abs(slope / target - 1.0) < 0.03),
        )
    else:
        report.update(
            exterior_slope=None,
            exterior_target=None,
            exterior_pass=True,
            exterior_note="exponential-type tail, algebraic fit not applicable",
        )
    return report


def _require_g(profile: KernelProfile):
    if profile.which != "G":
        raise KernelError("operation requires the G-profile")
