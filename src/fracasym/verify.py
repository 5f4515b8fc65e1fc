"""Large-time limit-theorem harness.

Each check evaluates the literal o(1) statement of one limit theorem at
geometric time checkpoints and reports strict monotone decrease plus a final
tolerance.  Each annulus check (compact, intermediate, exterior) runs one
checkpoint series: it builds one batched symbol, u-hat minus profile-hat at
every checkpoint t (solver.duhamel_symbols), inverts all of them in one pass
of the transform engine, takes each L^p norm over its region and divides it
by the sharp rate params.rate_at on its scale, through one closure.  The
factors that do not depend on t (the forcing's transform, r^{2b}, the Riesz
powers) are formed once per block of the pass;
coherence and kernel-bounds batch their checkpoints the same way.  Forming
the difference in the symbol, never as a difference of two transformed
functions, makes the far-field cancellation between u and its limit profile
exact, so the quadrature error budget stays at the level of the difference
itself.  The solution's symbol is always the forcing's transform times the
time weight W(r^{2b}, t), built by solver.duhamel_symbols; the Riesz profiles
c2 E_{2b} + c4 E_{4b} come from one builder, and outer-mass and outer-log
share one mass law.  The kappa of their E_{4b} terms is the closed form
kernels.estimate_kappa, so compact and intermediate build no kernel
profile.

run_check is the one entry point.  Before any transform it refuses, with
VerifyError, what no check can state:
* a forcing gamma outside the regime of an exterior check (check_gamma, which
  the CLI also applies at parse time);
* a zero forcing (amplitude 0) in every check that reads the forcing, that is
  all but constant and kernel-bounds: f = 0 has no profile, and each
  normalized statement would be vacuous or 0/0.
Each check refuses its own parameter preconditions (p >= p_*, a kappa term at
alpha = 1, an exterior check on a scale that is not outer).  run_check then times the check and stamps the problem parameters
and runtime on the report.

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

import numpy as np

from . import kernels
from .params import (
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
    radial_fourier_inverse,
    radial_fourier_inverses,
)
from .reporting import ConvergenceReport, make_report
from .solver import ForcingSpec, duhamel_symbols, solution_mass
from .special import gamma_fn, gl_panels


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
        self.times = tuple(ts)
        if self.forcing.dim != self.params.dim:
            raise VerifyError("forcing dim does not match problem dim")
        if self.grid is None:
            self.grid = RadialGrid()


def _y_profile(cfg: VerifyConfig):
    return kernels.build_y_profile(cfg.params, grid=cfg.grid, cache_dir=cfg.cache_dir)


def _kappa(params: FracParams) -> float:
    """kernels.estimate_kappa, refused at alpha = 1 (validation mode), where
    it has no value."""
    kappa = kernels.estimate_kappa(params)
    if kappa is None:
        raise VerifyError("the E_{4b} term needs kappa, which exists for alpha < 1 only")
    return kappa


def _checkpoint_series(cfg: VerifyConfig, times, symbols, region_at):
    """At each checkpoint t: the L^p norm over region_at(t) = (lo, hi) of the
    inverse transform of its symbol, one of the K that symbols returns (all
    transformed in one pass), and that norm divided by the sharp rate
    params.rate_at on cfg's scale.  Returns (raw, normalized), empty for no
    checkpoints."""
    if not times:
        return [], []
    n = cfg.params.dim
    regions = [region_at(t) for t in times]
    diffs = radial_fourier_inverses(symbols, n, cfg.grid)
    raw = [lp_norm_annulus(d, cfg.p, n, lo, hi) for d, (lo, hi) in zip(diffs, regions)]
    rate = lambda t: rate_at(cfg.params, cfg.p, cfg.forcing.gamma, cfg.scale, t)
    return raw, [err / rate(t) for err, t in zip(raw, times)]


def _riesz_profiles(params: FracParams, coeffs):
    """The profiles c2 E_{2b} + c4 E_{4b}, one per (c2, c4) in coeffs, as
    (symbols, values): E_mu has the transform r^{-mu}/c_mu, so symbols(r)
    returns the K arrays (c2/c_{2b}) r^{-2b} + (c4/c_{4b}) r^{-4b}, each
    power of r formed once per call, and values[k](rho) = c2 rho^{2b-N} +
    c4 rho^{4b-N}.  A zero coefficient drops its term."""
    n = params.dim
    mus = (2.0 * params.beta, 4.0 * params.beta)
    terms = [[(c, mu) for c, mu in zip(cs, mus) if c] for cs in coeffs]
    spectral = [[(c / riesz_constant(mu, n), mu) for c, mu in ts] for ts in terms]
    used = {mu for ts in terms for _, mu in ts}

    def symbols(r):
        powers = {mu: r**-mu for mu in used}
        return [sum(c * powers[mu] for c, mu in ts) for ts in spectral]

    values = [lambda rho, ts=ts: sum(c * rho ** (mu - n) for c, mu in ts) for ts in terms]
    return symbols, values


def _report(cfg, theorem, raw, norm, **kw):
    """make_report over cfg.times, stamped with the forcing and p of cfg."""
    return make_report(
        theorem, cfg.times, raw, norm, cfg.tolerance,
        forcing=cfg.forcing.as_dict(), p=cfg.p, **kw,
    )


# --- compact sets -------------------------------------------------------------


def limit_profile_compact(cfg: VerifyConfig):
    """The compact-set limit of t^{min(gamma,1+alpha)} u:

        gamma < 1+alpha:  c_{2b} I_{2b}[g]
        gamma = 1+alpha:  c_{2b} I_{2b}[g] + (kappa/alpha)   I_{4b}[g]
        gamma > 1+alpha:  (kappa/(gamma-1)) I_{4b}[g]

    (all times amplitude), built spectrally from the forcing transform."""
    fs, riesz = cfg.forcing, _compact_limit_riesz(cfg)
    symbol = lambda r: fs.amplitude * fs.ghat(r) * riesz(r)
    return radial_fourier_inverse(symbol, cfg.params.dim, cfg.grid)


def _compact_limit_riesz(cfg: VerifyConfig):
    """The symbol of the compact limit L over amplitude g-hat.  I_mu[g] =
    g * E_mu, so it is that of c2 E_{2b} + c4 E_{4b}, with the (c2, c4) per
    unit amplitude tabulated in limit_profile_compact."""
    fs, a = cfg.forcing, cfg.params.alpha
    c2b = riesz_constant(2.0 * cfg.params.beta, cfg.params.dim)
    if fs.gamma < 1.0 + a:
        coeffs = c2b, 0.0
    else:
        kappa = _kappa(cfg.params)
        coeffs = (c2b, kappa / a) if fs.gamma == 1.0 + a else (0.0, kappa / (fs.gamma - 1.0))
    symbols = _riesz_profiles(cfg.params, [coeffs])[0]
    return lambda r: symbols(r)[0]


def verify_compact(cfg: VerifyConfig) -> ConvergenceReport:
    """||t^{min(gamma,1+alpha)} u(., t) - L||_{L^p(rho <= K)} -> 0, i.e. the
    norm of u - L t^{-m} divided by the sharp rate t^{-m}: m = -e =
    min(gamma,1+alpha), with e the t-exponent of params.sharp_rate."""
    if cfg.scale.kind != "compact":
        raise VerifyError("verify_compact requires a compact scale")
    fs, params = cfg.forcing, cfg.params
    m = -sharp_rate(params, cfg.p, fs.gamma, cfg.scale)[0]
    riesz = _compact_limit_riesz(cfg)
    K = cfg.scale.radius
    scales = [t**m for t in cfg.times]

    def profiles(r, lam, ag):
        limit = ag * riesz(r)
        return [limit / tm for tm in scales]

    _, errs = _checkpoint_series(
        cfg, cfg.times, duhamel_symbols(fs, params, cfg.times, profiles),
        lambda t: (cfg.grid.rho_min, K),
    )
    return _report(cfg, "compact", errs, errs, scale={"kind": "compact", "radius": K})


# --- intermediate scales ------------------------------------------------------


def _intermediate_profile_coeffs(cfg: VerifyConfig, klass: ScaleClass, t: float):
    """Coefficients (c2, c4) of the class profile c2 E_{2b} + c4 E_{4b} at time t:
    c2 = t^{-gamma} M0 c_{2b} on S, C1 and C, and c4 = t^{-(1+alpha)} (log t)^l
    M* kappa on C1, C, F1 and F, with (M*, l) from _limit_mass."""
    fs, params = cfg.forcing, cfg.params
    c2 = c4 = 0.0
    if klass in (ScaleClass.SLOW, ScaleClass.CRITICAL1, ScaleClass.CRITICAL):
        c2 = t**-fs.gamma * fs.M0 * riesz_constant(2.0 * params.beta, params.dim)
    if klass is not ScaleClass.SLOW:
        limit, l = _limit_mass(fs)
        c4 = t ** -(1.0 + params.alpha) * math.log(t) ** l * limit * _kappa(params)
    return c2, c4


def verify_intermediate(cfg: VerifyConfig) -> ConvergenceReport:
    """u vs the class profile over nu phi(t) < rho < mu phi(t), normalized by
    the sharp rate; also reproduces the exact annulus power law of the Riesz
    kernels (reported in notes)."""
    fs, params = cfg.forcing, cfg.params
    klass = classify_scale(fs.gamma, params, cfg.scale)
    symbols, values = _riesz_profiles(
        params, [_intermediate_profile_coeffs(cfg, klass, t) for t in cfg.times])

    def annulus(t):
        phi = cfg.scale.phi(t)
        return cfg.scale.nu * phi, cfg.scale.mu * phi

    raw, norm = _checkpoint_series(
        cfg, cfg.times,
        duhamel_symbols(fs, params, cfg.times, lambda r, lam, ag: symbols(r)),
        annulus,
    )
    prof_norms = [
        lp_norm_annulus(RadialFunction(cfg.grid, value(cfg.grid.nodes)),
                        cfg.p, params.dim, *annulus(t))
        for value, t in zip(values, cfg.times)
    ]
    rep = _report(
        cfg, "intermediate", raw, norm,
        scale={
            "kind": "intermediate", "class": klass.value,
            "exponent": cfg.scale.exponent, "log_exponent": cfg.scale.log_exponent,
            "nu": cfg.scale.nu, "mu": cfg.scale.mu,
        },
    )
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
    out = {}
    for mu in (2.0 * params.beta, 4.0 * params.beta):
        kern = RadialFunction(cfg.grid, cfg.grid.nodes ** (mu - n))
        norms = [
            lp_norm_annulus(kern, cfg.p, n, cfg.scale.nu * f, cfg.scale.mu * f)
            for f in phis
        ]
        slope = float(np.polyfit(np.log(phis), np.log(norms), 1)[0])
        exact = mu - n + (0.0 if math.isinf(cfg.p) else n / cfg.p)
        out[f"mu={mu:g}"] = {"measured": slope, "exact": exact}
    return out


# --- outer scales -------------------------------------------------------------


def _outer_scale(cfg: VerifyConfig) -> dict:
    """The report fields of an exterior check."""
    return {"scale": {"kind": "outer", "nu": cfg.scale.nu},
            "truncation_radius": cfg.grid.rho_max}


def _outer_annulus(cfg: VerifyConfig, t: float):
    """Exterior region nu t^theta < rho, truncated at the grid edge, of an
    outer scale: the exterior norms are divided by its sharp rate."""
    if cfg.scale.kind != "outer":
        raise VerifyError(f"{cfg.theorem} requires an outer scale")
    lo = cfg.scale.nu * t**cfg.params.theta
    hi = cfg.grid.rho_max
    if lo >= hi:
        raise VerifyError(
            f"exterior region starts at rho={lo:g}, beyond the grid edge {hi:g}"
        )
    return lo, hi


def verify_outer_general(cfg: VerifyConfig) -> ConvergenceReport:
    """u vs the mass convolution int_0^t M_f(s) Y(., t-s) ds on the exterior.

    The difference symbol is amplitude (g-hat(r) - mass_g) W(r^{2b}, t)."""
    fs, params = cfg.forcing, cfg.params
    mass_g = fs.mass_g
    # kept factored: ghat W - mass_g W would reintroduce far-field cancellation
    spatial = lambda r: fs.amplitude * (fs.ghat(r) - mass_g)
    raw, norm = _checkpoint_series(
        cfg, cfg.times, duhamel_symbols(fs, params, cfg.times, spatial=spatial),
        lambda t: _outer_annulus(cfg, t),
    )
    return _report(cfg, "outer-general", raw, norm, **_outer_scale(cfg))


def _limit_mass(fs: ForcingSpec):
    """(M*, l) of the gamma >= 1 mass law Gamma(alpha) M(t) ~ M* t^{alpha-1}
    (log t)^l: (M0, 1) at gamma = 1 and (M_inf, 0) = (M0/(gamma-1), 0) above."""
    return (fs.M0, 1) if fs.gamma == 1.0 else (fs.M0 / (fs.gamma - 1.0), 0)


def _mass_law(cfg: VerifyConfig, kernel_times):
    """The mass law of _limit_mass: the scalar series
    |Gamma(alpha) M(t) / (t^{alpha-1} (log t)^l) - M*| / |M*| at every
    checkpoint, and at kernel_times the exterior norms of u - M* (log t)^l Y
    (raw, and divided by the sharp rate).  Returns (scalar, raw, normalized)."""
    fs, params = cfg.forcing, cfg.params
    a = params.alpha
    limit, l = _limit_mass(fs)
    law = [gamma_fn(a) * solution_mass(fs, params, t) / (t ** (a - 1.0) * math.log(t) ** l)
           for t in cfg.times]
    scalar = [abs(m - limit) / abs(limit) for m in law]

    y_hats = kernels._symbol(params, "G", kernel_times)
    amps = [limit * math.log(t) ** l for t in kernel_times]

    def profiles(r, lam, ag):
        return [amp * y_hat for amp, y_hat in zip(amps, y_hats(lam))]

    raw, norm = _checkpoint_series(
        cfg, kernel_times, duhamel_symbols(fs, params, kernel_times, profiles),
        lambda t: _outer_annulus(cfg, t),
    )
    return scalar, raw, norm


def verify_outer_mass(cfg: VerifyConfig) -> ConvergenceReport:
    """gamma > 1: scalar law Gamma(alpha) M(t) t^{1-alpha} -> M_inf, and
    ||u - M_inf Y|| / rate -> 0 on the exterior; both must decrease."""
    scalar, raw, norm = _mass_law(cfg, cfg.times)
    rep = _report(cfg, "outer-mass", raw, norm, **_outer_scale(cfg))
    scalar_ok = all(b < a_ for a_, b in zip(scalar[:-1], scalar[1:]))
    rep.notes["scalar_series"] = scalar
    rep.notes["scalar_decreasing"] = scalar_ok
    if rep.verdict == "pass" and not scalar_ok:
        rep.verdict = "fail"
    return rep


def verify_outer_log(cfg: VerifyConfig) -> ConvergenceReport:
    """gamma = 1: Gamma(alpha) M(t) / (t^{alpha-1} log t) -> M0 (scalar, cheap,
    times may extend to 1e6); the exterior kernel comparison
    ||u - M0 log t Y|| / rate is reported in notes
    (kernel_times, kernel_series) for the checkpoints with t <= 1e4 and
    nu t^theta <= rho_max/2, i.e. whose exterior region starts well inside
    the grid; the lists are empty when no checkpoint qualifies."""
    kernel_times = [
        t
        for t in cfg.times
        if t <= 1e4 and cfg.scale.nu * t**cfg.params.theta <= 0.5 * cfg.grid.rho_max
    ]
    scalar, _, kernel_series = _mass_law(cfg, kernel_times)
    rep = _report(cfg, "outer-log", scalar, scalar, **_outer_scale(cfg))
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
        params, [_intermediate_profile_coeffs(cfg, ScaleClass.SLOW, t) for t in cfg.times])[1]
    errs = [abs(float(ref(rho)) / target(rho) - 1.0)
            for ref, target, rho in zip(refs, targets, radii)]
    return make_report(
        "coherence", cfg.times, errs, errs, cfg.tolerance,
        forcing=fs.as_dict(),
        scale={"xi": list(_COHERENCE_XI)},
    )


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
    rep = make_report("constant-identity", cfg.times, series, series, cfg.tolerance)
    rep.notes["A"] = profile.constant_A
    rep.notes["c_2beta"] = c2b
    rep.notes["A_relative_error"] = a_ratio
    if a_ratio >= 1e-3:
        rep.verdict = "fail"
    return rep


def verify_kernel_estimates(cfg: VerifyConfig) -> ConvergenceReport:
    """Profile bound report (interior two-sided bound, exterior slope, global
    bound, and rho^{N-4b} G against the closed-form kappa at the origin) plus
    the ||Y(., t)||_{L^p} time-decay slope -sigma(p) fitted over the
    checkpoints; slope agreement within 1% is gated.  G ~ kappa rho^{4b-N}
    at the origin is in L^p only for p < p_*, so larger p is refused.

    The norms run over [1e-9, 1e9], beyond the [1e-3, 1e5] grid, so they
    rest partly on the power laws fitted at the grid ends.  notes
    ["beyond_grid"] says by how much, per checkpoint: the share 1 - (norm over
    the grid) / (norm over [1e-9, 1e9]), that the tails were fitted, and the
    fitted inner and outer exponents."""
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
        beyond.append({"t": t, "share": 1.0 - on_grid / norms[-1], "tails": "fitted",
                       "inner_exponent": u.inner_exponent,
                       "outer_exponent": u.outer_exponent})
    slope = float(np.polyfit(np.log(cfg.times), np.log(norms), 1)[0])
    sp = sigma_p(params, cfg.p)
    slope_err = abs(slope + sp) / abs(sp)
    rep = make_report("kernel-bounds", cfg.times, norms, [slope_err], 1e-2, p=cfg.p)
    rep.slope = slope
    rep.notes["bounds"] = bounds
    rep.notes["kappa"] = profile.kappa
    rep.notes["sigma_p"] = sp
    rep.notes["slope_relative_error"] = slope_err
    rep.notes["beyond_grid"] = beyond
    ok = (
        slope_err < 1e-2
        and bounds.get("interior_pass", False)
        and bounds.get("exterior_pass", False)
        and bounds.get("global_pass", False)
        and bounds.get("kappa_pass", False)
    )
    rep.verdict = "pass" if ok else "fail"
    return rep


_CHECKS = {
    "compact": verify_compact,
    "intermediate": verify_intermediate,
    "outer-general": verify_outer_general,
    "outer-mass": verify_outer_mass,
    "outer-log": verify_outer_log,
    "coherence": verify_coherence,
    "constant": verify_constant_identity,
    "kernel-bounds": verify_kernel_estimates,
}


# the forcing regime of each exterior check: theorem -> (message, rule on gamma)
_GAMMA_RULES = {
    "outer-mass": ("outer-mass requires gamma > 1", lambda g: g > 1.0),
    "outer-log": ("outer-log requires gamma = 1", lambda g: g == 1.0),
    "coherence": ("coherence requires gamma < 1", lambda g: g < 1.0),
}


def check_gamma(theorem: str, gamma: float):
    """Raise VerifyError when gamma lies outside the regime of `theorem`."""
    if theorem in _GAMMA_RULES and not _GAMMA_RULES[theorem][1](gamma):
        raise VerifyError(_GAMMA_RULES[theorem][0])


# the checks that never read the forcing, and so run with any amplitude
_FORCING_FREE = ("constant", "kernel-bounds")


def run_check(cfg: VerifyConfig) -> ConvergenceReport:
    """Run the check of cfg.theorem after its preconditions (the gamma regime,
    and a nonzero forcing for every check that reads it); the report carries
    the problem parameters and the check's wall time."""
    if cfg.theorem not in _CHECKS:
        raise VerifyError(
            f"unknown theorem {cfg.theorem!r}; options: {sorted(_CHECKS)}"
        )
    check_gamma(cfg.theorem, cfg.forcing.gamma)
    if cfg.forcing.amplitude == 0.0 and cfg.theorem not in _FORCING_FREE:
        raise VerifyError(
            f"{cfg.theorem} needs a nonzero forcing: f = 0 has no profile"
        )
    t0 = time.perf_counter()
    rep = _CHECKS[cfg.theorem](cfg)
    rep.runtime_seconds = time.perf_counter() - t0
    p = cfg.params
    rep.params = {"alpha": p.alpha, "beta": p.beta, "dim": p.dim}
    return rep
