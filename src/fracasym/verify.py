"""Large-time limit-theorem harness.

Each check evaluates the literal o(1) statement of one limit theorem at
geometric time checkpoints and reports strict monotone decrease plus a final
tolerance.  Each annulus check (compact, intermediate, exterior) runs one
checkpoint series: it builds one batched symbol, u-hat minus profile-hat at
every checkpoint t (solver.duhamel_symbols), inverts all of them in one pass
of the transform engine, takes each L^p norm over its region (_region) and
divides it by the sharp rate params.rate_at on its scale.  The factors that
do not depend on t (the forcing's transform, r^{2b}, the Riesz powers) are
formed once per block of the pass, and the K differences are yielded, and
summed by the engine, one at a time; coherence and kernel-bounds batch
their checkpoints the same way.  Forming the difference in the symbol, never as a
difference of two transformed functions, makes the far-field cancellation
between u and its limit profile exact, so the quadrature error budget stays
at the level of the difference itself.  The solution's symbol is always the
forcing's transform times the time weight W(r^{2b}, t), built by
solver.duhamel_symbols.  One owner, _limit_profile, holds the coefficient
table of every limit profile: the class profiles c2 E_{2b} + c4 E_{4b} at
time t and the exterior's M* (log t)^l; the compact limit is its t = 1 case
per unit mass, whose Riesz symbol _compact_limit_symbol builds.  kappa is the closed form kernels.estimate_kappa, so compact
and intermediate build no kernel profile.

run_check is the one entry point.  Before any transform it refuses, with
VerifyError, what the theorem's row of THEOREMS says no check can state:
* a forcing gamma outside the regime of an exterior check (check_gamma, which
  the CLI also applies at parse time);
* an annulus check on a scale of another kind than its row names;
* a zero forcing (amplitude 0) in every check whose row reads the forcing,
  that is all but constant and kernel-bounds: f = 0 has no profile, and each
  normalized statement would be vacuous or 0/0.
_region owns each annulus check's region at t and refuses, also before the
transform, one that the grid leaves empty.  Each check refuses its own
parameter preconditions (p >= p_*, a kappa term at alpha = 1).  The verdict
is make_report's one rule: the series rule and the check's own clauses.
A row's `reads` names the inputs among forcing, p and tolerance that its
check reads, and a row reads the scale if and only if it has a kind; the
CLI refuses a [verify] key outside them.  run_check records on each report
the problem parameters, the runtime and the check's inputs as its row
names them: the five annulus checks record forcing, p and scale, coherence
the forcing (and its own xi values as its scale), kernel-bounds p, and
constant none.

Checks
------
* compact:        t^{min(gamma,1+alpha)} u -> L on balls
* intermediate:   u vs the class profile (S/C1/C/F1/F) on annuli nu phi < rho < mu phi
* outer-general:  u vs the mass convolution int_0^t M_f(s) Y(., t-s) ds outside nu t^theta
* outer-mass:     gamma > 1: M(t) t^{1-alpha} -> M_inf and u vs M_inf Y
* outer-log:      gamma = 1: M(t) ~ M_0 t^{alpha-1} log t and u vs M_0 log t Y
* coherence:      gamma < 1: inner limit of the outer convolution is the Riesz profile
* constant:       A = c_{2 beta} and int_0^T Y(1,s) ds -> c_{2 beta}
* kernel-bounds:  profile bounds, origin limit against the closed-form kappa,
                  and the L^p time-decay slope
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .params import (
    SCALE_FIELDS,
    FracParams,
    ScaleClass,
    ScaleSpec,
    classify_scale,
    rate_at,
    sharp_rate,
    sigma_p,
)
from .potentials import riesz_constant
from .radialtransform import (
    _GL8,
    RadialFunction,
    RadialGrid,
    lp_norm_annulus,
    radial_fourier_inverses,
)
from .reporting import ConvergenceReport, make_report
from .solver import ForcingSpec, duhamel_symbols, solution_mass
from .special import gl_panels, lsq_slope


class VerifyError(ValueError):
    pass


_DEFAULT_TIMES = (1e2, 1e3, 1e4)


@dataclass
class VerifyConfig:
    params: FracParams
    forcing: ForcingSpec
    theorem: str = "compact"
    p: float = 1.0
    scale: ScaleSpec = field(default_factory=lambda: ScaleSpec(kind="compact"))
    times: tuple = _DEFAULT_TIMES
    tolerance: float = 5e-2
    grid: RadialGrid | None = None
    cache_dir: str | None = None

    def __post_init__(self):
        ts = [float(t) for t in self.times]
        # a NaN fails every comparison below, and so would pass them all
        if not all(math.isfinite(t) for t in ts):
            raise VerifyError(f"checkpoints must be finite, got {ts}")
        if len(ts) < 2 or any(b < 10.0 * a for a, b in zip(ts[:-1], ts[1:])):
            raise VerifyError("times must increase geometrically with ratio >= 10")
        # every check states a large-time limit, and its rates, mass laws and
        # scales phi(t) take log t
        if ts[0] <= 1.0:
            raise VerifyError(f"checkpoints must exceed t = 1, got t = {ts[0]:g}")
        if not self.p >= 1.0:
            raise VerifyError(f"p must be in [1, inf], got {self.p}")
        if not 0.0 < self.tolerance < math.inf:
            raise VerifyError(f"tolerance must be finite and positive, got {self.tolerance}")
        self.times = tuple(ts)
        if self.forcing.dim != self.params.dim:
            raise VerifyError("forcing dim does not match problem dim")
        if self.grid is None:
            self.grid = RadialGrid()


def _y_profile(cfg: VerifyConfig):
    return kernels.build_y_profile(cfg.params, grid=cfg.grid, cache_dir=cfg.cache_dir)


def _region(cfg: VerifyConfig, t: float):
    """The region (lo, hi) of cfg's scale at time t, the one place it is
    computed: the ball [rho_min, radius] (compact), the annulus (nu phi(t),
    mu phi(t)) (intermediate) or the exterior (nu t^theta, rho_max) (outer).
    The ball starts and the exterior stops at the grid's ends.  A region that
    the grid leaves empty is refused."""
    s, grid = cfg.scale, cfg.grid
    if s.kind == "compact":
        lo, hi = grid.rho_min, s.radius
    elif s.kind == "intermediate":
        phi = s.phi(t)
        lo, hi = s.nu * phi, s.mu * phi
    else:
        lo, hi = s.nu * t**cfg.params.theta, grid.rho_max
    if not max(lo, grid.rho_min) < min(hi, grid.rho_max):
        raise VerifyError(f"the {s.kind} region ({lo:g}, {hi:g}) at t = {t:g} "
                          f"misses the grid [{grid.rho_min:g}, {grid.rho_max:g}]")
    return lo, hi


def _checkpoint_series(cfg: VerifyConfig, times, symbols):
    """At each checkpoint t: the L^p norm over _region(cfg, t) of the inverse
    transform of its symbol, one of the K that symbols yields (all
    transformed in one pass), and that norm divided by the sharp rate
    params.rate_at on cfg's scale.  Returns (raw, normalized), empty for no
    checkpoints."""
    if not times:
        return [], []
    n = cfg.params.dim
    regions = [_region(cfg, t) for t in times]
    diffs = radial_fourier_inverses(symbols, n, cfg.grid)
    raw = [lp_norm_annulus(d, cfg.p, n, lo, hi) for d, (lo, hi) in zip(diffs, regions)]
    rate = lambda t: rate_at(cfg.params, cfg.p, cfg.forcing.gamma, cfg.scale, t)
    return raw, [err / rate(t) for err, t in zip(raw, times)]


def _limit_profile(params: FracParams, gamma: float, mass: float, t: float, klass):
    """The one table of limit profiles at time t, for a forcing of decay gamma
    and mass `mass`: (c2, c4) of c2 E_{2b} + c4 E_{4b} on an intermediate
    class klass or on klass "compact", and on klass "outer" the factors of
    M* (log t)^l Y(., t), where Gamma(alpha) M(t) ~ M* t^{alpha-1} (log t)^l
    with (M*, l) = (mass, 1) at gamma = 1 and (mass/(gamma-1), 0) above.

        klass        c2                        c4
        S            t^{-gamma} mass c_{2b}    0
        C1, C        t^{-gamma} mass c_{2b}    t^{-(1+alpha)} (log t)^l M* kappa
        F1, F        0                         t^{-(1+alpha)} (log t)^l M* kappa
        coherence    the S row
        "compact"    S, C or F for gamma <, = or > 1+alpha, at t = 1, mass 1
        "outer"      M*                        (log t)^l

    The c4 term is the exterior profile's inner limit: Y(., t) ~ kappa
    t^{-(1+alpha)} E_{4b} near the origin."""
    limit, l = (mass, 1) if gamma == 1.0 else (mass / (gamma - 1.0), 0)
    if klass == "outer":
        return limit, math.log(t) ** l
    if klass == "compact":
        a1 = 1.0 + params.alpha
        klass = (ScaleClass.SLOW if gamma < a1
                 else ScaleClass.CRITICAL if gamma == a1 else ScaleClass.FAST)
    c2 = c4 = 0.0
    if klass in (ScaleClass.SLOW, ScaleClass.CRITICAL1, ScaleClass.CRITICAL):
        c2 = t**-gamma * mass * riesz_constant(2.0 * params.beta, params.dim)
    if klass is not ScaleClass.SLOW:
        kappa = kernels.estimate_kappa(params)
        if kappa is None:  # alpha = 1 (validation mode)
            raise VerifyError("the E_{4b} term needs kappa, which exists for alpha < 1 only")
        c4 = t ** -(1.0 + params.alpha) * math.log(t) ** l * limit * kappa
    return c2, c4


def _riesz_profiles(params: FracParams, coeffs):
    """The profiles c2 E_{2b} + c4 E_{4b}, one per (c2, c4) in coeffs, as
    (symbols, values): E_mu has the transform r^{-mu}/c_mu, so symbols(r)
    yields the K arrays (c2/c_{2b}) r^{-2b} + (c4/c_{4b}) r^{-4b} one at a
    time, each power of r formed once per call, and values[k](rho) =
    c2 rho^{2b-N} + c4 rho^{4b-N}.  A zero coefficient drops its term."""
    n = params.dim
    mus = (2.0 * params.beta, 4.0 * params.beta)
    terms = [[(c, mu) for c, mu in zip(cs, mus) if c] for cs in coeffs]
    spectral = [[(c / riesz_constant(mu, n), mu) for c, mu in ts] for ts in terms]
    used = {mu for ts in terms for _, mu in ts}

    def symbols(r):
        powers = {mu: r**-mu for mu in used}
        for ts in spectral:
            yield sum(c * powers[mu] for c, mu in ts)

    values = [lambda rho, ts=ts: sum(c * rho ** (mu - n) for c, mu in ts) for ts in terms]
    return symbols, values


# --- compact sets -------------------------------------------------------------


def _compact_limit_symbol(params: FracParams, gamma: float):
    """The Riesz symbol r -> L-hat(r) / (amplitude g-hat(r)) of the compact
    limit L of t^{min(gamma,1+alpha)} u: the "compact" row of _limit_profile."""
    symbols = _riesz_profiles(params, [_limit_profile(params, gamma, 1.0, 1.0, "compact")])[0]
    return lambda r: next(symbols(r))


def verify_compact(cfg: VerifyConfig) -> ConvergenceReport:
    """||t^{min(gamma,1+alpha)} u(., t) - L||_{L^p(rho <= K)} -> 0, i.e. the
    norm of u - L t^{-m} divided by the sharp rate t^{-m}: m = -e =
    min(gamma,1+alpha), with e the t-exponent of params.sharp_rate."""
    fs, params = cfg.forcing, cfg.params
    m = -sharp_rate(params, cfg.p, fs.gamma, cfg.scale)[0]
    riesz = _compact_limit_symbol(params, fs.gamma)
    scales = [t**m for t in cfg.times]

    def profiles(r, lam, ag):
        limit = ag * riesz(r)
        for tm in scales:
            yield limit / tm

    _, errs = _checkpoint_series(cfg, cfg.times, duhamel_symbols(fs, params, cfg.times, profiles))
    return make_report("compact", cfg.times, errs, errs, cfg.tolerance)


# --- intermediate scales ------------------------------------------------------


def verify_intermediate(cfg: VerifyConfig) -> ConvergenceReport:
    """u vs the class profile over nu phi(t) < rho < mu phi(t), normalized by
    the sharp rate; also reproduces the exact annulus power law of the Riesz
    kernels (reported in notes)."""
    fs, params = cfg.forcing, cfg.params
    klass = classify_scale(fs.gamma, params, cfg.scale)
    symbols, values = _riesz_profiles(
        params, [_limit_profile(params, fs.gamma, fs.M0, t, klass) for t in cfg.times])
    raw, norm = _checkpoint_series(
        cfg, cfg.times,
        duhamel_symbols(fs, params, cfg.times, lambda r, lam, ag: symbols(r)),
    )
    prof_norms = [
        lp_norm_annulus(RadialFunction(cfg.grid, value(cfg.grid.nodes)),
                        cfg.p, params.dim, *_region(cfg, t))
        for value, t in zip(values, cfg.times)
    ]
    rep = make_report("intermediate", cfg.times, raw, norm, cfg.tolerance)
    rep.notes["profile_norms"] = prof_norms
    rep.notes["annulus_power_law"] = _annulus_power_law(cfg)
    return rep


def _annulus_power_law(cfg: VerifyConfig) -> dict:
    """||E_mu||_{L^p(nu phi < rho < mu phi)} is an exact power of phi with
    exponent (m - sigma-like) = mu - N + N/p; measure it from the annulus-norm
    routine over the checkpoint phis and report measured vs exact."""
    params = cfg.params
    n = params.dim
    phis = [cfg.scale.phi(t) for t in cfg.times]
    regions = [_region(cfg, t) for t in cfg.times]
    out = {}
    for mu in (2.0 * params.beta, 4.0 * params.beta):
        kern = RadialFunction(cfg.grid, cfg.grid.nodes ** (mu - n))
        norms = [lp_norm_annulus(kern, cfg.p, n, *region) for region in regions]
        slope = lsq_slope(np.log(phis), np.log(norms))
        exact = mu - n + n / cfg.p
        out[f"mu={mu:g}"] = {"measured": slope, "exact": exact}
    return out


# --- outer scales -------------------------------------------------------------


def verify_outer_general(cfg: VerifyConfig) -> ConvergenceReport:
    """u vs the mass convolution int_0^t M_f(s) Y(., t-s) ds on the exterior.

    The difference symbol is amplitude (g-hat(r) - mass_g) W(r^{2b}, t)."""
    fs, params = cfg.forcing, cfg.params
    mass_g = fs.mass_g
    # kept factored: ghat W - mass_g W would reintroduce far-field cancellation
    spatial = lambda r: fs.amplitude * (fs.ghat(r) - mass_g)
    raw, norm = _checkpoint_series(
        cfg, cfg.times, duhamel_symbols(fs, params, cfg.times, spatial=spatial))
    return make_report("outer-general", cfg.times, raw, norm, cfg.tolerance)


def _mass_law(cfg: VerifyConfig, kernel_times):
    """The mass law of _limit_profile's "outer" row: the scalar series
    |Gamma(alpha) M(t) / (t^{alpha-1} (log t)^l) - M*| / |M*| at every
    checkpoint, and at kernel_times the exterior norms of u - M* (log t)^l Y
    (raw, and divided by the sharp rate).  Returns (scalar, raw, normalized)."""
    fs, params = cfg.forcing, cfg.params
    a = params.alpha
    law = lambda t: _limit_profile(params, fs.gamma, fs.M0, t, "outer")
    scalar = [abs(math.gamma(a) * solution_mass(fs, params, t) / (t ** (a - 1.0) * log_l) - limit)
              / abs(limit) for t, (limit, log_l) in zip(cfg.times, map(law, cfg.times))]

    y_hats = kernels._symbol(params, "G", kernel_times)
    amps = [limit * log_l for limit, log_l in map(law, kernel_times)]

    def profiles(r, lam, ag):
        kernel = y_hats(lam)
        for amp in amps:
            yield amp * next(kernel)

    raw, norm = _checkpoint_series(
        cfg, kernel_times, duhamel_symbols(fs, params, kernel_times, profiles))
    return scalar, raw, norm


def verify_outer_mass(cfg: VerifyConfig) -> ConvergenceReport:
    """gamma > 1: scalar law Gamma(alpha) M(t) t^{1-alpha} -> M_inf, and
    ||u - M_inf Y|| / rate -> 0 on the exterior; both must decrease."""
    scalar, raw, norm = _mass_law(cfg, cfg.times)
    scalar_ok = all(b < a_ for a_, b in zip(scalar[:-1], scalar[1:]))
    rep = make_report("outer-mass", cfg.times, raw, norm, cfg.tolerance, gates=[scalar_ok])
    rep.notes["scalar_series"] = scalar
    rep.notes["scalar_decreasing"] = scalar_ok
    return rep


def verify_outer_log(cfg: VerifyConfig) -> ConvergenceReport:
    """gamma = 1: Gamma(alpha) M(t) / (t^{alpha-1} log t) -> M0 (scalar, cheap,
    times may extend to 1e6); the exterior kernel comparison
    ||u - M0 log t Y|| / rate is reported in notes
    (kernel_times, kernel_series) for the checkpoints with t <= 1e4 whose
    exterior region (lo, hi) = _region(cfg, t) starts well inside the grid,
    lo <= hi/2; the lists are empty when no checkpoint qualifies."""
    kernel_times = []
    for t in cfg.times:
        try:
            lo, hi = _region(cfg, t)
        except VerifyError:  # the exterior starts beyond the grid
            continue
        if t <= 1e4 and lo <= 0.5 * hi:
            kernel_times.append(t)
    scalar, _, kernel_series = _mass_law(cfg, kernel_times)
    rep = make_report("outer-log", cfg.times, scalar, scalar, cfg.tolerance)
    rep.notes["kernel_times"] = kernel_times
    rep.notes["kernel_series"] = kernel_series
    return rep


# --- coherence ----------------------------------------------------------------

_COHERENCE_XI = (1e-1, 10.0**-1.5, 1e-2)


def verify_coherence(cfg: VerifyConfig) -> ConvergenceReport:
    """gamma < 1: the mass convolution evaluated at |x| = xi t^theta with
    xi -> 0 along t -> infinity matches t^{-gamma} M0 c_{2b} E_{2b}(x); the
    report series is |ratio - 1| over paired (xi_k, t_k)."""
    fs, params = cfg.forcing, cfg.params
    if len(cfg.times) != len(_COHERENCE_XI):
        raise VerifyError(
            f"coherence pairs {len(_COHERENCE_XI)} xi-values with as many times"
        )
    radii = [xi * t**params.theta for xi, t in zip(_COHERENCE_XI, cfg.times)]
    for rho in radii:
        if not cfg.grid.rho_min <= rho <= cfg.grid.rho_max:
            raise VerifyError(f"evaluation radius {rho:g} outside the grid")
    # the mass convolution int_0^t M_f(s) Y(., t-s) ds: the Duhamel symbol
    # with amplitude g-hat replaced by the constant M0
    M0 = fs.M0
    refs = radial_fourier_inverses(
        duhamel_symbols(fs, params, cfg.times, spatial=lambda r: M0), params.dim, cfg.grid)
    targets = _riesz_profiles(
        params, [_limit_profile(params, fs.gamma, M0, t, ScaleClass.SLOW) for t in cfg.times])[1]
    errs = [abs(float(ref(rho)) / target(rho) - 1.0)
            for ref, target, rho in zip(refs, targets, radii)]
    return make_report("coherence", cfg.times, errs, errs, cfg.tolerance,
                       scale={"xi": list(_COHERENCE_XI)})


# --- constants and kernel estimates -------------------------------------------


def _y_time_integral(profile, T: float) -> float:
    """int_0^T Y(1, s) ds by geometric-panel quadrature in s."""
    s, w = gl_panels(T * 10.0 ** np.linspace(-12.0, 0.0, 49), *_GL8)
    return float(np.sum(kernels.evaluate_Y(profile, 1.0, s) * w))


def verify_constant_identity(cfg: VerifyConfig) -> ConvergenceReport:
    """|A/c_{2b} - 1| < 1e-3 and int_0^T Y(1,s) ds -> c_{2b} E_{2b}(1) with a
    strictly decreasing T-indexed relative-error series."""
    params = cfg.params
    profile = _y_profile(cfg)
    c2b = riesz_constant(2.0 * params.beta, params.dim)
    a_ratio = abs(profile.constant_A / c2b - 1.0)
    target = c2b  # E_{2b}(1) = 1
    series = [
        abs(_y_time_integral(profile, T) / target - 1.0) for T in cfg.times
    ]
    rep = make_report("constant-identity", cfg.times, series, series, cfg.tolerance,
                      gates=[a_ratio < 1e-3])
    rep.notes["A"] = profile.constant_A
    rep.notes["c_2beta"] = c2b
    rep.notes["A_relative_error"] = a_ratio
    return rep


def verify_kernel_estimates(cfg: VerifyConfig) -> ConvergenceReport:
    """Profile bound report (interior two-sided bound, exterior slope, global
    bound, and rho^{N-4b} G against the closed-form kappa at the origin) plus
    the ||Y(., t)||_{L^p} time-decay slope -sigma(p) fitted over the
    checkpoints; slope agreement within 1% is gated.  G ~ kappa rho^{4b-N}
    at the origin is in L^p only for p < p_*, so larger p is refused.

    The norms run over [1e-9, 1e9], beyond the [1e-3, 1e5] grid, so they
    rest partly on the power laws fitted at the grid ends (and warn where an
    end has one).  notes["beyond_grid"] says by how much, per checkpoint: the
    share 1 - (norm over the grid) / (norm over [1e-9, 1e9]), and, from
    RadialFunction.tail (the only reader of a fitted end), "fitted" or null
    and each exponent or null."""
    params = cfg.params
    if params.alpha >= 1.0:
        raise VerifyError("kernel estimates apply to alpha < 1 only")
    if cfg.p >= params.p_star:
        raise VerifyError(f"kernel estimates need p < p_* = {params.p_star:g}")
    profile = _y_profile(cfg)
    bounds = profile.bound_report
    # a fresh inverse transform at each time, all in one pass (not a rescaling
    # of the t=1 profile), on a grid wide enough that both power-law tails
    # are asymptotically clean
    wide = RadialGrid(1e-3, 1e5, cfg.grid.points)
    y_hats, two_b = kernels._symbol(params, "G", cfg.times), 2.0 * params.beta
    norms, beyond = [], []
    for t, u in zip(cfg.times, radial_fourier_inverses(
            lambda r: y_hats(r**two_b), params.dim, wide)):
        norms.append(lp_norm_annulus(u, cfg.p, params.dim, 1e-9, 1e9))
        # what the norm rests on beyond the grid: the share it takes from the
        # power laws fitted at the grid ends, and their exponents
        on_grid = lp_norm_annulus(u, cfg.p, params.dim, wide.rho_min, wide.rho_max)
        inner, outer = u.tail(True), u.tail(False)
        beyond.append({"t": t, "share": 1.0 - on_grid / norms[-1],
                       "tails": "fitted" if inner or outer else None,
                       "inner_exponent": inner[2] if inner else None,
                       "outer_exponent": outer[2] if outer else None})
    slope = lsq_slope(np.log(cfg.times), np.log(norms))
    sp = sigma_p(params, cfg.p)
    slope_err = abs(slope + sp) / abs(sp)
    # the series is the one slope error, so the series rule is its 1% gate
    gates = [bounds.get(f"{b}_pass", False) for b in ("interior", "exterior", "global", "kappa")]
    rep = make_report("kernel-bounds", cfg.times, norms, [slope_err], 1e-2, gates)
    rep.slope = slope
    rep.notes["bounds"] = bounds
    rep.notes["kappa"] = profile.kappa
    rep.notes["sigma_p"] = sp
    rep.notes["slope_relative_error"] = slope_err
    rep.notes["beyond_grid"] = beyond
    return rep


class Theorem(NamedTuple):
    """One theorem's contract: its check, the scale kind it states its limit on
    (None: the check reads no scale and sets its own record), its gamma
    regime as (rule, words) (None: every gamma), and the VerifyConfig fields
    among forcing, p and tolerance that the check reads.  run_check records
    exactly these on the report, and the scale when the row has a kind."""

    check: Callable[[VerifyConfig], ConvergenceReport]
    kind: str | None
    gamma: tuple | None
    reads: tuple = ("forcing", "p", "tolerance")


THEOREMS = {
    "compact": Theorem(verify_compact, "compact", None),
    "intermediate": Theorem(verify_intermediate, "intermediate", None),
    "outer-general": Theorem(verify_outer_general, "outer", None),
    "outer-mass": Theorem(verify_outer_mass, "outer", (lambda g: g > 1.0, "gamma > 1")),
    "outer-log": Theorem(verify_outer_log, "outer", (lambda g: g == 1.0, "gamma = 1")),
    "coherence": Theorem(verify_coherence, None, (lambda g: g < 1.0, "gamma < 1"),
                         ("forcing", "tolerance")),
    "constant": Theorem(verify_constant_identity, None, None, ("tolerance",)),
    "kernel-bounds": Theorem(verify_kernel_estimates, None, None, ("p",)),
}


def check_gamma(theorem: str, gamma: float):
    """Raise VerifyError when gamma lies outside the regime of `theorem`."""
    regime = THEOREMS[theorem].gamma
    if regime and not regime[0](gamma):
        raise VerifyError(f"{theorem} requires {regime[1]}")


def run_check(cfg: VerifyConfig) -> ConvergenceReport:
    """Run the check of cfg.theorem after the preconditions of its THEOREMS
    row (the gamma regime, the scale kind, and a nonzero forcing for every
    check that reads it).  The report records the problem parameters, the
    grid, the check's wall time and the inputs the row says the check reads:
    the forcing, p, and on a row with a kind the scale (its kind, an
    intermediate one's class and its SCALE_FIELDS) with the truncation
    radius rho_max where an exterior region stops."""
    if cfg.theorem not in THEOREMS:
        raise VerifyError(
            f"unknown theorem {cfg.theorem!r}; options: {sorted(THEOREMS)}"
        )
    check, kind, _, reads = THEOREMS[cfg.theorem]
    check_gamma(cfg.theorem, cfg.forcing.gamma)
    if kind and cfg.scale.kind != kind:
        raise VerifyError(f"{cfg.theorem} requires the {kind} scale kind, got {cfg.scale.kind!r}")
    if cfg.forcing.amplitude == 0.0 and "forcing" in reads:
        raise VerifyError(
            f"{cfg.theorem} needs a nonzero forcing: f = 0 has no profile"
        )
    t0 = time.perf_counter()
    rep = check(cfg)
    rep.runtime_seconds = time.perf_counter() - t0
    rep.params = cfg.params.as_dict()
    rep.grid = cfg.grid.as_dict()
    if "forcing" in reads:
        rep.forcing = cfg.forcing.as_dict()
    if "p" in reads:
        rep.p = cfg.p
    if kind:
        rep.scale = {"kind": kind}
        if kind == "intermediate":
            rep.scale["class"] = classify_scale(cfg.forcing.gamma, cfg.params, cfg.scale).value
        rep.scale.update((f, getattr(cfg.scale, f)) for f in SCALE_FIELDS[kind])
        if kind == "outer":
            rep.truncation_radius = cfg.grid.rho_max
    return rep
