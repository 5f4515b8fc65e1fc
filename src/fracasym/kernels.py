"""Self-similar kernel profiles for the fully nonlocal heat equation.

Z (fundamental kernel) has Fourier transform E_alpha(-|w|^{2b} t^a); its t=1
radial slice is the profile F.  Y (the Duhamel kernel) has Fourier transform
t^{a-1} E_{a,a}(-|w|^{2b} t^a); its t=1 slice is the profile G.  Both are
positive, with G ~ kappa rho^{4b-N} at the origin and an algebraic
rho^{-(N+2b)} tail for b < 1 (exponential-type for b = 1).  kappa is known in
closed form (estimate_kappa); validate_bounds measures the profile against it.

G has one route: the inverse transform of its symbol.  At (alpha, beta, N) =
(1/2, 1/2, 3) G itself has a closed form, G = I_2(rho)/(2 pi^2 rho) with I_k
the moments int_0^inf e^{-u^2 - rho u} u^k du, and the tests hold every node
of the default grid to it.

A profile is built once per (alpha, beta, N, grid) in the process, in one
memo, and touches no file unless the caller names a cache_dir.  A cache
file's name carries the parameters and the grid; a hit matches its sidecar
to the identity, a checksum of the engine source and the grid.  In
validation mode (alpha = 1) both symbols are exp(-r^{2b}), so G is F: a G
build holds the F build's samples, and G and F (in either order) transform
once.  A profile is its samples and identity: the constants derived from
them (kappa, A, the bound report) are worked out on first use, never read
back from disk.
"""

from __future__ import annotations

import functools
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import radialtransform, special, spline
from .params import FracParams
from .potentials import riesz_constant
from .radialtransform import (
    RadialFunction,
    RadialGrid,
    TransformError,
    _moment,
    radial_fourier_inverse,
)
from .special import lsq_slope, mittag_leffler, ml_tail_coefficient


class KernelError(RuntimeError):
    pass


@functools.cache
def _engine() -> str:
    """The crc32 and adler32 of the source that computes profile values, 16
    hex digits, so that a profile cached by other code is a miss.  zlib is
    loaded at interpreter start-up; hashlib would load OpenSSL's libcrypto,
    3.7 MB of the process's RSS."""
    sources = (special.__file__, spline.__file__, radialtransform.__file__, __file__)
    data = b"".join(Path(f).read_bytes() for f in sources)
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


@dataclass(frozen=True)
class KernelProfile:
    """A t=1 kernel slice: its samples and their identity.

    kappa, constant_A and bound_report are worked out on first use through
    the module-level estimate_kappa, constant_A and validate_bounds.  All
    three are None for F; kappa and bound_report are None in validation mode
    (alpha = 1: the profile is bounded and rho^{N-4b} G -> 0, so the limit is
    not applicable)."""

    params: FracParams
    which: str  # "F" (Z-profile) or "G" (Y-profile)
    values: RadialFunction

    @functools.cached_property
    def kappa(self) -> float | None:
        return estimate_kappa(self.params) if self.which == "G" else None

    @functools.cached_property
    def constant_A(self) -> float | None:
        return constant_A(self) if self.which == "G" else None

    @functools.cached_property
    def bound_report(self) -> dict | None:
        return validate_bounds(self) if self.kappa is not None else None

    def save(self, csv_path):
        """Values CSV plus a JSON sidecar: the profile's _identity and its
        derived constants, which a load does not read back."""
        meta = _identity(self.params, self.which) | {
            "kappa": self.kappa, "constant_A": self.constant_A,
            "bound_report": self.bound_report}
        self.values.save(csv_path, extra_metadata=meta)


def _identity(params: FracParams, which: str) -> dict:
    """The sidecar keys that name a profile; a disk hit matches all of them
    and the grid.  precision_bits is among them: a profile made in another
    extended precision is a miss."""
    return {"which": which, **params.as_dict(), "engine": _engine(),
            "precision_bits": special.precision_bits()}


def _symbol(params: FracParams, which: str, times=(1.0,)):
    """lam -> the kernel symbols at each t in times, yielded one at a time as
    K arrays of lam's shape, where lam = r^{2b} is formed once per block by
    FracParams.lam (and shared with the time weights of solver) and never
    written: Z-hat = E_a(-lam t^a) for "F", Y-hat = t^{a-1} E_{a,a}(-lam
    t^a) for "G".  The single-t symbol is
    the case times = (t,), read with next.  At a = 1 both are exp(-lam t),
    bit for bit: the second parameter is 1 and the scale t^0 is exactly 1,
    which multiplies exactly."""
    a = params.alpha
    b = 1.0 if which == "F" else a
    factors = [(1.0 if which == "F" else t ** (a - 1.0), -(t**a)) for t in times]

    def symbols(lam):
        for scale, minus_ta in factors:
            e = mittag_leffler(a, b, lam * minus_ta)  # a fresh array: scaled in place
            e *= scale
            yield e
            del e  # before the next is formed

    return symbols


def _cache_path(params: FracParams, which: str, grid: RadialGrid, cache_dir: str) -> str:
    name = (
        f"profile_{which}_a{params.alpha!r}_b{params.beta!r}_N{params.dim}"
        f"_rho{grid.rho_min!r}_{grid.rho_max!r}_n{grid.points}.csv"
    )
    return os.path.join(cache_dir, name)


def _build(params: FracParams, which: str, grid: RadialGrid | None, cache_dir):
    grid = grid or RadialGrid()
    if not cache_dir:
        return _profile(params, which, grid)

    path = _cache_path(params, which, grid, cache_dir)
    try:
        values, meta = RadialFunction.load(path)
    except (OSError, ValueError, KeyError, IndexError, TypeError, TransformError):
        meta = {}  # an absent or corrupt CSV or sidecar is a miss
    # a sidecar written for other parameters or by other engine code, or
    # values on another grid, is a miss: rebuild over it
    if _identity(params, which).items() <= meta.items() and values.grid == grid:
        return KernelProfile(params, which, values)

    profile = _profile(params, which, grid)
    profile.save(path)
    return profile


@functools.lru_cache(maxsize=8)
def _profile(params: FracParams, which: str, grid: RadialGrid) -> KernelProfile:
    """The profile from its symbol: inverse transform, then the positivity
    check.  At alpha = 1 G is F (both symbols are exp(-r^{2b})), so a G build
    holds the F build's samples and a G build followed by an F build (in
    either order) transforms once.  Memoized on its arguments, frozen
    dataclasses compared field by field, so a hit returns the same object a
    miss made, and a miss computes what a hit returns.  The one memo holds at
    most 8 entries of about 62 KB on the default grid (768 samples, the nodes
    and their logs, the quintic's 767 x 6 coefficients): under 0.5 MB."""
    if which == "G" and params.alpha == 1.0:
        return KernelProfile(params, "G", _profile(params, "F", grid).values)
    symbol = _symbol(params, which)
    values = radial_fourier_inverse(lambda r: next(symbol(params.lam(r))), params.dim, grid)
    if params.beta == 1.0:
        # exponential-type spatial tail: the profile is positive, so from the
        # first non-positive sample on the samples are quadrature residue
        samples = values.samples.copy()
        samples[np.logical_or.accumulate(samples <= 0.0)] = 0.0
        values = RadialFunction(grid, samples)
    if np.any(values.samples < 0) or values.samples[0] <= 0:
        raise KernelError(f"{which}-profile not positive on the grid")
    return KernelProfile(params=params, which=which, values=values)


def build_z_profile(params: FracParams, grid: RadialGrid | None = None, cache_dir=None):
    """F = inverse transform of r -> E_alpha(-r^{2 beta}), i.e. Z(., 1)."""
    return _build(params, "F", grid, cache_dir)


def build_y_profile(params: FracParams, grid: RadialGrid | None = None, cache_dir=None):
    """G = inverse transform of r -> E_{alpha,alpha}(-r^{2 beta}), i.e. the
    t=1 slice of Y under the normalization Y-hat = t^{a-1} E_{a,a}."""
    return _build(params, "G", grid, cache_dir)


def estimate_kappa(params: FracParams) -> float | None:
    """kappa in G ~ kappa rho^{4b-N} at the origin, in closed form: the
    symbol's tail E_{a,a}(-r^{2b}) ~ C r^{-4b}, C = ml_tail_coefficient(a),
    inverts to C c_{4b} rho^{4b-N}.  None in validation mode (alpha = 1)."""
    if params.alpha >= 1.0:
        return None
    return ml_tail_coefficient(params.alpha) * riesz_constant(4.0 * params.beta, params.dim)


def constant_A(profile: KernelProfile) -> float:
    """A = (1/theta) int_0^inf rho^{N-1-2b} G(rho) drho, grid quadrature plus
    closed-form power-law tail pieces from the fitted exponents."""
    _require_g(profile)
    p = profile.params
    total = _moment(profile.values, p.dim - 2.0 * p.beta, 0.0, math.inf)
    a_val = total / p.theta
    if not (a_val > 0 and math.isfinite(a_val)):
        raise KernelError(f"constant A not finite/positive: {a_val}")
    return a_val


def evaluate_Y(profile: KernelProfile, rho, t):
    """Y(rho, t) = t^{-sigma_*} G(rho t^{-theta}), for arrays of rho or of t."""
    _require_g(profile)
    t = np.asarray(t, dtype=float)  # one power routine for scalar and array t
    if not np.all((t > 0) & (t < np.inf)):  # a NaN fails both comparisons
        raise KernelError("t must be positive and finite")
    p = profile.params
    return t**-p.sigma_star * profile.values(np.asarray(rho) * t**-p.theta)


def validate_bounds(profile: KernelProfile) -> dict:
    """Interior two-sided bound, exterior tail slope, the global upper bound
    G <= C rho^{4b-N}, and the origin limit rho^{N-4b} G -> kappa against the
    closed form: its relative error at the first node (within 1%) and the
    log-log order of that error over the grid's first decade, i.e. of the
    next term of G at the origin.  Returns a clause-by-clause report.

    The 1% clause presumes that next term is below 1% of kappa rho^{4b-N} at
    rho_min.  Its relative size is O(rho^{min(N-4b, 2b)}), so where that
    order is small the clause fails on a correct profile: on the default
    grid kappa_error is 2.2e-2 at (alpha, beta, N) = (0.8, 0.6, 3), 1.9e-2 at
    (0.4, 0.6, 3) and 1.08e-1 at (0.9, 0.25, 5)."""
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

    rel = scaled / profile.kappa - 1.0
    first = nodes <= 10.0 * grid.rho_min
    order = lsq_slope(np.log(nodes[first]), np.log(np.abs(rel[first])))
    report.update(
        kappa_error=float(rel[0]),
        kappa_order=order,
        kappa_pass=bool(abs(rel[0]) < 1e-2),
    )

    if b < 1.0:
        sel = (nodes >= 5.0) & (nodes <= 0.5 * grid.rho_max)
        slope = lsq_slope(np.log(nodes[sel]), np.log(samples[sel]))
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
