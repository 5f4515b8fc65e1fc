"""Large-time limit-theorem harness.

Each check evaluates the literal o(1) statement of one limit theorem at
geometric time checkpoints and reports strict monotone decrease plus a final
tolerance.  Each annulus check (compact, intermediate, exterior) runs one
checkpoint series: at each t it takes one difference symbol u-hat minus
profile-hat, applies the inverse transform, takes the L^p norm over its
region and divides by the sharp rate from fracasym.params (t^{-rate_compact},
rate_intermediate or rate_outer).  Forming the difference in the symbol, never
as a difference of two transformed functions, makes the far-field
cancellation between u and its limit profile exact, so the quadrature error
budget stays at the level of the difference itself.  The solution's symbol is
always the forcing's transform times solver.duhamel_weight; the Riesz
profiles c2 E_{2b} + c4 E_{4b} come from one builder, and outer-mass and
outer-log share one mass law.  The kappa of their E_{4b} terms is the
closed form kernels.estimate_kappa, so compact and intermediate build no
kernel profile.

run_check is the one entry point: it applies the gamma precondition of the
exterior checks (check_gamma, which the CLI also applies at parse time), times
the check, and stamps the problem parameters and runtime on the report.

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
    rate_compact,
    rate_intermediate,
    rate_outer,
    sigma_p,
)
from .potentials import riesz_constant
from .radialtransform import (
    _GL8,
    RadialFunction,
    RadialGrid,
    lp_norm_annulus,
    radial_fourier_inverse,
)
from .reporting import ConvergenceReport, make_report
from .solver import ForcingSpec, duhamel_symbol, duhamel_weight, outer_reference, solution_mass
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
    return kernels.build_y_profile(cfg.params, cache_dir=cfg.cache_dir)


def _kappa(params: FracParams) -> float:
    """kernels.estimate_kappa, refused at alpha = 1 (validation mode), where
    it has no value."""
    kappa = kernels.estimate_kappa(params)
    if kappa is None:
        raise VerifyError("the E_{4b} term needs kappa, which exists for alpha < 1 only")
    return kappa


def _difference_symbol(cfg: VerifyConfig, t: float, profile_symbol):
    """r -> u-hat(r, t) - profile_symbol(r, ag), the one symbol whose inverse
    transform is u(., t) minus the comparison profile.  u-hat is
    ag W(r^{2b}, t) with ag = amplitude g-hat(r), formed once per block and
    handed to the profile too, for a profile built on the forcing's transform
    (the compact limit); profile_symbol must already include amplitude/mass
    factors."""
    fs = cfg.forcing
    weight = duhamel_weight(cfg.params, fs.gamma, t)

    def symbol(r):
        ag = fs.amplitude * fs.ghat(r)
        profile = profile_symbol(r, ag)
        # u-hat and then the difference in ag's buffer: the same bits as
        # ag * weight(r) - profile, one block array fewer alive
        ag *= weight(r)
        ag -= profile
        return ag

    return symbol


def _checkpoint_series(cfg: VerifyConfig, times, symbol_at, region_at, rate_at):
    """At each checkpoint t: the L^p norm over region_at(t) = (lo, hi) of the
    inverse transform of symbol_at(t), and that norm divided by the sharp
    rate rate_at(t).  Returns (raw, normalized)."""
    n = cfg.params.dim
    raw, norm = [], []
    for t in times:
        lo, hi = region_at(t)
        diff = radial_fourier_inverse(symbol_at(t), n, cfg.grid)
        err = lp_norm_annulus(diff, cfg.p, n, lo, hi)
        raw.append(err)
        norm.append(err / rate_at(t))
    return raw, norm


def _riesz_profile(params: FracParams, c2: float, c4: float):
    """The profile c2 E_{2b} + c4 E_{4b} as (symbol, values): E_mu has the
    transform r^{-mu}/c_mu, so symbol(r) = (c2/c_{2b}) r^{-2b} +
    (c4/c_{4b}) r^{-4b}, and values(rho) = c2 rho^{2b-N} + c4 rho^{4b-N}.
    A zero coefficient drops its term."""
    n = params.dim
    terms = [(c, k * params.beta) for c, k in ((c2, 2.0), (c4, 4.0)) if c]
    spectral = [(c / riesz_constant(mu, n), mu) for c, mu in terms]

    def symbol(r):
        return sum(c * r**-mu for c, mu in spectral)

    def values(rho):
        return sum(c * rho ** (mu - n) for c, mu in terms)

    return symbol, values


def _report(cfg, theorem, raw, norm, **kw):
    """make_report over cfg.times, stamped with the forcing and p of cfg."""
    return make_report(
        theorem, cfg.times, raw, norm, cfg.tolerance,
        forcing=_forcing_dict(cfg), p=cfg.p, **kw,
    )


def _zero_report(cfg, theorem, extra=None):
    zeros = [0.0] * len(cfg.times)
    rep = _report(cfg, theorem, zeros, zeros)
    if extra:
        rep.notes.update(extra)
    return rep


def _forcing_dict(cfg):
    f = cfg.forcing
    return {
        "family": f.family,
        "gamma": f.gamma,
        "amplitude": f.amplitude,
        "width": f.width,
    }


# --- compact sets -------------------------------------------------------------


def limit_profile_compact(cfg: VerifyConfig):
    """The compact-set limit of t^{min(gamma,1+alpha)} u:

        gamma < 1+alpha:  c_{2b} I_{2b}[g]
        gamma = 1+alpha:  c_{2b} I_{2b}[g] + (kappa/alpha)   I_{4b}[g]
        gamma > 1+alpha:  (kappa/(gamma-1)) I_{4b}[g]

    (all times amplitude), built spectrally from the forcing transform."""
    if cfg.forcing.amplitude == 0.0:
        return RadialFunction(cfg.grid, np.zeros(cfg.grid.points))
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
    return _riesz_profile(cfg.params, *coeffs)[0]


def verify_compact(cfg: VerifyConfig) -> ConvergenceReport:
    """||t^{min(gamma,1+alpha)} u(., t) - L||_{L^p(rho <= K)} -> 0, i.e. the
    norm of u - L t^{-m} divided by the rate t^{-m}, m = min(gamma,1+alpha)."""
    if cfg.scale.kind != "compact":
        raise VerifyError("verify_compact requires a compact scale")
    fs, params = cfg.forcing, cfg.params
    if fs.amplitude == 0.0:
        return _zero_report(cfg, "compact")
    m = rate_compact(fs.gamma, params.alpha)
    riesz = _compact_limit_riesz(cfg)
    K = cfg.scale.radius

    def symbol_at(t):
        tm = t**m
        return _difference_symbol(cfg, t, lambda r, ag: ag * riesz(r) / tm)

    _, errs = _checkpoint_series(
        cfg, cfg.times, symbol_at, lambda t: (cfg.grid.rho_min, K), lambda t: t**-m
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
    if fs.amplitude == 0.0:
        return _zero_report(cfg, "intermediate", {"scale_class": klass.value})
    profiles = {t: _riesz_profile(params, *_intermediate_profile_coeffs(cfg, klass, t))
                for t in cfg.times}

    def annulus(t):
        phi = cfg.scale.phi(t)
        return cfg.scale.nu * phi, cfg.scale.mu * phi

    raw, norm = _checkpoint_series(
        cfg, cfg.times,
        lambda t: _difference_symbol(cfg, t, lambda r, ag: profiles[t][0](r)),
        annulus,
        lambda t: rate_intermediate(params, cfg.p, fs.gamma, klass, cfg.scale.phi(t), t),
    )
    prof_norms = [
        lp_norm_annulus(RadialFunction(cfg.grid, profiles[t][1](cfg.grid.nodes)),
                        cfg.p, params.dim, *annulus(t))
        for t in cfg.times
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
    """Exterior region nu t^theta < rho, truncated at the grid edge."""
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
    if fs.amplitude == 0.0:
        return _zero_report(cfg, "outer-general")
    mass_g = fs.mass_g
    raw, norm = _checkpoint_series(
        cfg, cfg.times,
        # kept factored: ghat W - mass_g W would reintroduce far-field cancellation
        lambda t: duhamel_symbol(fs, params, t, lambda r: fs.amplitude * (fs.ghat(r) - mass_g)),
        lambda t: _outer_annulus(cfg, t),
        lambda t: rate_outer(params, cfg.p, fs.gamma, t),
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
    (raw, and divided by rate_outer).  Returns (scalar, raw, normalized)."""
    fs, params = cfg.forcing, cfg.params
    a = params.alpha
    limit, l = _limit_mass(fs)
    law = [gamma_fn(a) * solution_mass(fs, params, t) / (t ** (a - 1.0) * math.log(t) ** l)
           for t in cfg.times]
    scalar = [abs(m - limit) / abs(limit) for m in law]

    def symbol_at(t):
        y_hat, amp = kernels._symbol(params, "G", t), limit * math.log(t) ** l
        return _difference_symbol(cfg, t, lambda r, ag: amp * y_hat(r))

    raw, norm = _checkpoint_series(
        cfg, kernel_times, symbol_at,
        lambda t: _outer_annulus(cfg, t),
        lambda t: rate_outer(params, cfg.p, fs.gamma, t),
    )
    return scalar, raw, norm


def verify_outer_mass(cfg: VerifyConfig) -> ConvergenceReport:
    """gamma > 1: scalar law Gamma(alpha) M(t) t^{1-alpha} -> M_inf, and
    ||u - M_inf Y|| / rate_outer -> 0 on the exterior; both must decrease."""
    if cfg.forcing.amplitude == 0.0:
        return _zero_report(cfg, "outer-mass")
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
    ||u - M0 log t Y|| / rate_outer is reported in notes
    (kernel_times, kernel_series) for the checkpoints with t <= 1e4 and
    nu t^theta <= rho_max/2, i.e. whose exterior region starts well inside
    the grid; the lists are empty when no checkpoint qualifies."""
    if cfg.forcing.amplitude == 0.0:
        return _zero_report(cfg, "outer-log")
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
    if fs.amplitude == 0.0:
        rep = _zero_report(cfg, "coherence")
        rep.verdict = "not-applicable"
        rep.notes["reason"] = "zero forcing: ratio is 0/0"
        return rep
    errs = []
    for xi, t in zip(_COHERENCE_XI, cfg.times):
        rho = xi * t**params.theta
        if not cfg.grid.rho_min <= rho <= cfg.grid.rho_max:
            raise VerifyError(f"evaluation radius {rho:g} outside the grid")
        ref = outer_reference(fs, params, t, cfg.grid)
        coeffs = _intermediate_profile_coeffs(cfg, ScaleClass.SLOW, t)
        target = _riesz_profile(params, *coeffs)[1](rho)
        errs.append(abs(float(ref(rho)) / target - 1.0))
    return make_report(
        "coherence", cfg.times, errs, errs, cfg.tolerance,
        forcing=_forcing_dict(cfg),
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
    at the origin is in L^p only for p < p_*, so larger p is refused."""
    params = cfg.params
    if params.alpha >= 1.0:
        raise VerifyError("kernel estimates apply to alpha < 1 only")
    if cfg.p >= params.p_star:
        raise VerifyError(f"kernel estimates need p < p_* = {params.p_star:g}")
    profile = _y_profile(cfg)
    bounds = profile.bound_report
    # fresh inverse transform per time (not a rescaling of the t=1 profile),
    # on a grid wide enough that both power-law tails are asymptotically clean
    wide = RadialGrid(1e-3, 1e5, cfg.grid.points)
    norms = []
    for t in cfg.times:
        u = radial_fourier_inverse(kernels._symbol(params, "G", t), params.dim, wide)
        norms.append(lp_norm_annulus(u, cfg.p, params.dim, 1e-9, 1e9))
    slope = float(np.polyfit(np.log(cfg.times), np.log(norms), 1)[0])
    sp = sigma_p(params, cfg.p)
    slope_err = abs(slope + sp) / abs(sp)
    rep = ConvergenceReport(
        theorem="kernel-bounds",
        checkpoints=list(cfg.times),
        raw_errors=norms,
        normalized_errors=[slope_err],
        tolerance=1e-2,
        p=cfg.p,
    )
    rep.slope = slope
    rep.notes["bounds"] = bounds
    rep.notes["kappa"] = profile.kappa
    rep.notes["sigma_p"] = sp
    rep.notes["slope_relative_error"] = slope_err
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


def run_check(cfg: VerifyConfig) -> ConvergenceReport:
    """Run the check of cfg.theorem after its gamma precondition; the report
    carries the problem parameters and the check's wall time."""
    if cfg.theorem not in _CHECKS:
        raise VerifyError(
            f"unknown theorem {cfg.theorem!r}; options: {sorted(_CHECKS)}"
        )
    check_gamma(cfg.theorem, cfg.forcing.gamma)
    t0 = time.perf_counter()
    rep = _CHECKS[cfg.theorem](cfg)
    rep.runtime_seconds = time.perf_counter() - t0
    p = cfg.params
    rep.params = {"alpha": p.alpha, "beta": p.beta, "dim": p.dim}
    return rep
