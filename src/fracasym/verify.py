"""Large-time limit-theorem harness.

Each check evaluates the literal o(1) statement of one limit theorem at
geometric time checkpoints and reports strict monotone decrease plus a final
tolerance.  All solution-minus-profile differences are formed as a single
Fourier symbol before the inverse transform (never as a difference of two
separately transformed functions), so the far-field cancellation between u
and its limit profile is exact in the symbol and the quadrature error budget
stays at the level of the difference itself.  The solution's symbol is always
solver.duhamel_symbol.

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
* kernel-bounds:  profile bounds, kappa plateau, and the L^p time-decay slope
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import kernels
from .params import (
    FracParams,
    ScaleClass,
    ScaleSpec,
    classify_scale,
    derive_exponents,
    rate_compact,
    rate_intermediate,
    rate_outer,
    sigma_p,
)
from .potentials import riesz_constant
from .radialtransform import (
    RadialFunction,
    RadialGrid,
    lp_norm_annulus,
    radial_fourier_inverse,
)
from .reporting import ConvergenceReport, make_report
from .solver import ForcingSpec, duhamel_symbol, outer_reference, solution_mass
from .special import gamma_fn, gl_panels, mittag_leffler


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
        self.times = tuple(ts)
        if self.forcing.dim != self.params.dim:
            raise VerifyError("forcing dim does not match problem dim")
        if self.grid is None:
            self.grid = RadialGrid()


def _y_profile(cfg: VerifyConfig):
    return kernels.build_y_profile(cfg.params, cache_dir=cfg.cache_dir)


def _difference_slice(cfg: VerifyConfig, t: float, profile_symbol):
    """Inverse transform of (u-hat - profile-hat) at time t.

    profile_symbol(r) must return the transform of the comparison profile,
    already including amplitude/mass factors.
    """
    u_hat = duhamel_symbol(cfg.forcing, cfg.params, t)

    def symbol(r):
        r = np.asarray(r, dtype=float)
        return u_hat(r) - profile_symbol(r)

    return radial_fourier_inverse(symbol, cfg.params.dim, cfg.grid)


def _y_hat(params: FracParams, t: float):
    """r -> Y-hat(r, t) = t^{a-1} E_{a,a}(-r^{2b} t^a), the Duhamel kernel's symbol."""
    a, two_b = params.alpha, 2.0 * params.beta
    ta = t**a

    def symbol(r):
        r = np.asarray(r, dtype=float)
        return t ** (a - 1.0) * mittag_leffler(a, a, -(r**two_b) * ta)

    return symbol


def _zero_report(cfg, theorem, extra=None):
    zeros = [0.0] * len(cfg.times)
    rep = make_report(
        theorem, cfg.times, zeros, zeros, cfg.tolerance,
        forcing=_forcing_dict(cfg), p=cfg.p,
    )
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


def limit_profile_compact(cfg: VerifyConfig, grid: RadialGrid | None = None):
    """The compact-set limit of t^{min(gamma,1+alpha)} u:

        gamma < 1+alpha:  c_{2b} I_{2b}[g]
        gamma = 1+alpha:  c_{2b} I_{2b}[g] + (kappa/alpha)   I_{4b}[g]
        gamma > 1+alpha:  (kappa/(gamma-1)) I_{4b}[g]

    (all times amplitude), built spectrally from the forcing transform."""
    fs, params = cfg.forcing, cfg.params
    grid = grid or cfg.grid
    if fs.amplitude == 0.0:
        return RadialFunction(grid, np.zeros(grid.points))
    sym = _compact_profile_symbol(cfg)
    return radial_fourier_inverse(
        lambda r: fs.amplitude * fs.ghat(np.asarray(r, dtype=float)) * sym(r),
        params.dim,
        grid,
    )


def _compact_profile_symbol(cfg: VerifyConfig):
    """Transform of the compact profile divided by (amplitude * g-hat)."""
    fs, params = cfg.forcing, cfg.params
    a, b, n = params.alpha, params.beta, params.dim
    gam = fs.gamma
    two_b, four_b = 2.0 * b, 4.0 * b
    need_kappa = gam >= 1.0 + a
    if need_kappa:
        kappa = _y_profile(cfg).kappa
        c4 = riesz_constant(four_b, n)
    if gam < 1.0 + a:
        return lambda r: np.asarray(r, dtype=float) ** -two_b
    if gam == 1.0 + a:
        k_over = kappa / (a * c4)
        return lambda r: (
            np.asarray(r, dtype=float) ** -two_b
            + k_over * np.asarray(r, dtype=float) ** -four_b
        )
    k_over = kappa / ((gam - 1.0) * c4)
    return lambda r: k_over * np.asarray(r, dtype=float) ** -four_b


def verify_compact(cfg: VerifyConfig) -> ConvergenceReport:
    """||t^{min(gamma,1+alpha)} u(., t) - L||_{L^p(rho <= K)} -> 0."""
    if cfg.scale.kind != "compact":
        raise VerifyError("verify_compact requires a compact scale")
    fs, params = cfg.forcing, cfg.params
    if fs.amplitude == 0.0:
        return _zero_report(cfg, "compact")
    m = rate_compact(fs.gamma, params.alpha)
    prof_sym = _compact_profile_symbol(cfg)
    K = cfg.scale.radius
    errs = []
    for t in cfg.times:
        tm = t**m
        diff = _difference_slice(
            cfg, t, lambda r, tm=tm: fs.amplitude * fs.ghat(r) * prof_sym(r) / tm
        )
        errs.append(tm * lp_norm_annulus(diff, cfg.p, params.dim, cfg.grid.rho_min, K))
    return make_report(
        "compact", cfg.times, errs, errs, cfg.tolerance,
        forcing=_forcing_dict(cfg), p=cfg.p,
        scale={"kind": "compact", "radius": K},
    )


# --- intermediate scales ------------------------------------------------------


def _intermediate_profile_coeffs(cfg: VerifyConfig, klass: ScaleClass, t: float):
    """Coefficients (c2, c4) of the class profile c2 E_{2b} + c4 E_{4b} at time t."""
    fs, params = cfg.forcing, cfg.params
    a = params.alpha
    M0 = fs.M0
    c2b = riesz_constant(2.0 * params.beta, params.dim)
    kappa = None
    if klass in (ScaleClass.CRITICAL1, ScaleClass.CRITICAL, ScaleClass.FAST1, ScaleClass.FAST):
        kappa = _y_profile(cfg).kappa
    if klass is ScaleClass.SLOW:
        return t**-fs.gamma * M0 * c2b, 0.0
    if klass is ScaleClass.CRITICAL1:
        return t**-1.0 * M0 * c2b, t ** -(1.0 + a) * math.log(t) * M0 * kappa
    if klass is ScaleClass.CRITICAL:
        M_inf = M0 / (fs.gamma - 1.0)
        return t**-fs.gamma * M0 * c2b, t ** -(1.0 + a) * M_inf * kappa
    if klass is ScaleClass.FAST1:
        return 0.0, t ** -(1.0 + a) * math.log(t) * M0 * kappa
    if klass is ScaleClass.FAST:
        M_inf = M0 / (fs.gamma - 1.0)
        return 0.0, t ** -(1.0 + a) * M_inf * kappa
    raise VerifyError(f"{klass} is not an intermediate class")


def verify_intermediate(cfg: VerifyConfig) -> ConvergenceReport:
    """u vs the class profile over nu phi(t) < rho < mu phi(t), normalized by
    the sharp rate; also reproduces the exact annulus power law of the Riesz
    kernels (reported in notes)."""
    fs, params = cfg.forcing, cfg.params
    exps = derive_exponents(params)
    klass = classify_scale(fs.gamma, exps, cfg.scale)
    if fs.amplitude == 0.0:
        return _zero_report(cfg, "intermediate", {"scale_class": klass.value})
    b, n = params.beta, params.dim
    two_b, four_b = 2.0 * b, 4.0 * b
    c2b = riesz_constant(two_b, n)
    c4b = riesz_constant(four_b, n)
    raw, norm, prof_norms = [], [], []
    for t in cfg.times:
        c2, c4 = _intermediate_profile_coeffs(cfg, klass, t)

        # L = c2 E_{2b} + c4 E_{4b}; transform of E_mu is r^{-mu}/c_mu
        def prof_sym(r, c2=c2, c4=c4):
            r = np.asarray(r, dtype=float)
            out = (c2 / c2b) * r**-two_b
            if c4:
                out = out + (c4 / c4b) * r**-four_b
            return out

        diff = _difference_slice(cfg, t, prof_sym)
        phi = cfg.scale.phi(t)
        lo, hi = cfg.scale.nu * phi, cfg.scale.mu * phi
        err = lp_norm_annulus(diff, cfg.p, n, lo, hi)
        raw.append(err)
        norm.append(err / rate_intermediate(exps, cfg.p, fs.gamma, klass, phi, t))
        prof = RadialFunction(
            cfg.grid,
            c2 * cfg.grid.nodes ** (two_b - n) + c4 * cfg.grid.nodes ** (four_b - n),
        )
        prof_norms.append(lp_norm_annulus(prof, cfg.p, n, lo, hi))
    rep = make_report(
        "intermediate", cfg.times, raw, norm, cfg.tolerance,
        forcing=_forcing_dict(cfg), p=cfg.p,
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
    exps = derive_exponents(params)
    n = params.dim
    out = {}
    for mu in (2.0 * params.beta, 4.0 * params.beta):
        kern = RadialFunction(cfg.grid, cfg.grid.nodes ** (mu - n))
        phis = [cfg.scale.phi(t) for t in cfg.times]
        norms = [
            lp_norm_annulus(kern, cfg.p, n, cfg.scale.nu * f, cfg.scale.mu * f)
            for f in phis
        ]
        slope = float(np.polyfit(np.log(phis), np.log(norms), 1)[0])
        exact = mu - n + (0.0 if math.isinf(cfg.p) else n / cfg.p)
        out[f"mu={mu:g}"] = {"measured": slope, "exact": exact}
    return out


# --- outer scales -------------------------------------------------------------


def _outer_annulus(cfg: VerifyConfig, t: float):
    """Exterior region nu t^theta < rho, truncated at the grid edge."""
    exps = derive_exponents(cfg.params)
    lo = cfg.scale.nu * t**exps.theta
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
    exps = derive_exponents(params)
    if fs.amplitude == 0.0:
        return _zero_report(cfg, "outer-general")
    mass_g = fs.mass_g
    raw, norm = [], []
    trunc = cfg.grid.rho_max
    for t in cfg.times:
        # kept factored: ghat W - mass_g W would reintroduce far-field cancellation
        symbol = duhamel_symbol(
            fs, params, t, lambda r: fs.amplitude * (fs.ghat(r) - mass_g)
        )
        diff = radial_fourier_inverse(symbol, params.dim, cfg.grid)
        lo, hi = _outer_annulus(cfg, t)
        err = lp_norm_annulus(diff, cfg.p, params.dim, lo, hi)
        raw.append(err)
        norm.append(err / rate_outer(exps, cfg.p, fs.gamma, t))
    return make_report(
        "outer-general", cfg.times, raw, norm, cfg.tolerance,
        forcing=_forcing_dict(cfg), p=cfg.p,
        scale={"kind": "outer", "nu": cfg.scale.nu},
        truncation_radius=trunc,
    )


def verify_outer_mass(cfg: VerifyConfig) -> ConvergenceReport:
    """gamma > 1: scalar law Gamma(alpha) M(t) t^{1-alpha} -> M_inf, and
    t^{sigma(p)} ||u - M_inf Y|| -> 0 on the exterior; both must decrease."""
    fs, params = cfg.forcing, cfg.params
    exps = derive_exponents(params)
    if fs.amplitude == 0.0:
        return _zero_report(cfg, "outer-mass")
    M_inf = fs.M0 / (fs.gamma - 1.0)
    a = params.alpha
    scalar = [
        abs(gamma_fn(a) * solution_mass(fs, params, t) * t ** (1.0 - a) - M_inf)
        / abs(M_inf)
        for t in cfg.times
    ]
    sp = sigma_p(exps, cfg.p)
    raw, norm = [], []
    for t in cfg.times:
        y_hat = _y_hat(params, t)
        diff = _difference_slice(cfg, t, lambda r, y_hat=y_hat: M_inf * y_hat(r))
        lo, hi = _outer_annulus(cfg, t)
        err = lp_norm_annulus(diff, cfg.p, params.dim, lo, hi)
        raw.append(err)
        norm.append(t**sp * err)
    rep = make_report(
        "outer-mass", cfg.times, raw, norm, cfg.tolerance,
        forcing=_forcing_dict(cfg), p=cfg.p,
        scale={"kind": "outer", "nu": cfg.scale.nu},
        truncation_radius=cfg.grid.rho_max,
    )
    scalar_ok = all(b < a_ for a_, b in zip(scalar[:-1], scalar[1:]))
    rep.notes["scalar_series"] = scalar
    rep.notes["scalar_decreasing"] = scalar_ok
    if rep.verdict == "pass" and not scalar_ok:
        rep.verdict = "fail"
    return rep


def verify_outer_log(cfg: VerifyConfig) -> ConvergenceReport:
    """gamma = 1: Gamma(alpha) M(t) / (t^{alpha-1} log t) -> M0 (scalar, cheap,
    times may extend to 1e6); the exterior kernel comparison
    (t^{sigma(p)}/log t) ||u - M0 log t Y|| is reported in notes for the
    checkpoints at or below 1e4."""
    fs, params = cfg.forcing, cfg.params
    if fs.amplitude == 0.0:
        return _zero_report(cfg, "outer-log")
    a = params.alpha
    M0 = fs.M0
    scalar = [
        abs(
            gamma_fn(a) * solution_mass(fs, params, t) / (t ** (a - 1.0) * math.log(t))
            - M0
        )
        / abs(M0)
        for t in cfg.times
    ]
    exps = derive_exponents(params)
    sp = sigma_p(exps, cfg.p)
    theta = exps.theta
    kernel_times = [
        t
        for t in cfg.times
        if t <= 1e4 and cfg.scale.nu * t**theta <= 0.5 * cfg.grid.rho_max
    ]
    kernel_series = []
    for t in kernel_times:
        y_hat = _y_hat(params, t)
        log_t = math.log(t)
        diff = _difference_slice(
            cfg, t, lambda r, y_hat=y_hat, log_t=log_t: M0 * log_t * y_hat(r)
        )
        lo, hi = _outer_annulus(cfg, t)
        err = lp_norm_annulus(diff, cfg.p, params.dim, lo, hi)
        kernel_series.append(t**sp * err / log_t)
    rep = make_report(
        "outer-log", cfg.times, scalar, scalar, cfg.tolerance,
        forcing=_forcing_dict(cfg), p=cfg.p,
        scale={"kind": "outer", "nu": cfg.scale.nu},
        truncation_radius=cfg.grid.rho_max,
    )
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
    exps = derive_exponents(params)
    n, b = params.dim, params.beta
    two_b = 2.0 * b
    c2b = riesz_constant(two_b, n)
    M0 = fs.M0
    errs = []
    for xi, t in zip(_COHERENCE_XI, cfg.times):
        rho = xi * t**exps.theta
        if not cfg.grid.rho_min <= rho <= cfg.grid.rho_max:
            raise VerifyError(f"evaluation radius {rho:g} outside the grid")
        ref = outer_reference(fs, params, t, cfg.grid)
        target = t**-fs.gamma * M0 * c2b * rho ** (two_b - n)
        errs.append(abs(float(ref(rho)) / target - 1.0))
    return make_report(
        "coherence", cfg.times, errs, errs, cfg.tolerance,
        forcing=_forcing_dict(cfg),
        scale={"xi": list(_COHERENCE_XI)},
    )


# --- constants and kernel estimates -------------------------------------------

_GL8 = leggauss(8)


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
    """Profile bound report (interior two-sided bound, kappa plateau, exterior
    slope) plus the ||Y(., t)||_{L^p} time-decay slope -sigma(p) fitted over
    the checkpoints; slope agreement within 1% is gated."""
    params = cfg.params
    if params.alpha >= 1.0:
        raise VerifyError("kernel estimates apply to alpha < 1 only")
    exps = derive_exponents(params)
    profile = _y_profile(cfg)
    bounds = profile.bound_report or kernels.validate_bounds(profile)
    # fresh inverse transform per time (not a rescaling of the t=1 profile),
    # on a grid wide enough that both power-law tails are asymptotically clean
    wide = RadialGrid(1e-3, 1e5, cfg.grid.points)
    norms = []
    for t in cfg.times:
        u = radial_fourier_inverse(_y_hat(params, t), params.dim, wide)
        norms.append(lp_norm_annulus(u, cfg.p, params.dim, 1e-9, 1e9))
    slope = float(np.polyfit(np.log(cfg.times), np.log(norms), 1)[0])
    sp = sigma_p(exps, cfg.p)
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
    rep.notes["kappa_variation"] = profile.kappa_variation
    rep.notes["sigma_p"] = sp
    rep.notes["slope_relative_error"] = slope_err
    ok = (
        slope_err < 1e-2
        and bounds.get("interior_pass", False)
        and bounds.get("exterior_pass", False)
        and bounds.get("global_pass", False)
        and (profile.kappa_variation is None or profile.kappa_variation < 1e-2)
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
