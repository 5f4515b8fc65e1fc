"""Problem parameters, their exponents and space-time scale classification.

The model is u_t^alpha + (-Laplacian)^beta u = f in dimension N > 4*beta.
FracParams holds (alpha, beta, N) and derives the exponents theta, sigma_*
and p_* from them; ScaleClass is the five intermediate classes S, C1, C,
F1 and F; sharp_rate is the one owner of the sharp decay rates of the limit
theorems, as exponents (e, l, k) of t^e (log t)^l phi(t)^k, and rate_at
evaluates them.  Everything here is exact arithmetic on (alpha, beta, N,
gamma); no grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class ParameterError(ValueError):
    """Raised when (alpha, beta, dim) fall outside the supported regime."""


@dataclass(frozen=True)
class FracParams:
    """Orders of the Caputo derivative and Laplacian power, plus the dimension,
    and the exponents theta, sigma_star and p_star derived from them.

    alpha = 1 is admitted only with validation_mode=True, in which case the
    kernels degenerate to classical (heat-type) ones and the singular-profile
    machinery reports "not applicable".  The flag is refused at alpha < 1,
    where nothing reads it: it equals alpha == 1 exactly.
    """

    alpha: float
    beta: float
    dim: int
    validation_mode: bool = False

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.alpha == 1.0 and not self.validation_mode:
            raise ParameterError(
                "alpha = 1 requires validation_mode=True (classical-kernel oracles only)"
            )
        if self.validation_mode and self.alpha != 1.0:
            raise ParameterError(f"validation_mode=True requires alpha = 1, got {self.alpha}")
        if not (0.0 < self.beta <= 1.0):
            raise ParameterError(f"beta must be in (0, 1], got {self.beta}")
        try:
            whole = int(self.dim) == self.dim
        except (TypeError, ValueError, OverflowError):  # not a number, NaN, inf
            whole = False
        if not whole:
            raise ParameterError(f"dim must be an integer, got {self.dim}")
        # stored as an int, so that N = 3.0 names, records and caches as N = 3
        object.__setattr__(self, "dim", int(self.dim))
        if self.dim <= 4.0 * self.beta:
            raise ParameterError(
                f"dim > 4*beta violated: dim={self.dim}, 4*beta={4 * self.beta}"
            )
        if self.dim % 2 == 0:
            raise ParameterError(
                "even dim not supported (half-integer Bessel orders required); "
                f"got dim={self.dim}"
            )

    def as_dict(self) -> dict:
        """(alpha, beta, N) as reports and sidecars record them."""
        return {"alpha": self.alpha, "beta": self.beta, "dim": self.dim}

    @property
    def theta(self) -> float:
        """theta = alpha/(2 beta): space scales like t^theta."""
        return self.alpha / (2.0 * self.beta)

    @property
    def sigma_star(self) -> float:
        """sigma_* = 1 - alpha + N theta."""
        return 1.0 - self.alpha + self.dim * self.theta

    @property
    def p_star(self) -> float:
        """p_* = N/(N - 4 beta)."""
        return self.dim / (self.dim - 4.0 * self.beta)


def sigma_p(params: FracParams, p: float) -> float:
    """L^p decay exponent of the Duhamel kernel: sigma_* - N*theta/p."""
    if not p >= 1.0:  # refuses a NaN p, which p < 1 lets through
        raise ParameterError(f"p must be in [1, inf], got {p}")
    return params.sigma_star - params.dim * params.theta / p


class ScaleClass(Enum):
    """The five intermediate scale classes; classify_scale picks one."""

    SLOW = "S"
    CRITICAL1 = "C1"
    CRITICAL = "C"
    FAST1 = "F1"
    FAST = "F"


# the ScaleSpec fields that each scale kind reads, and so the ones an annulus
# check's report records; the CLI refuses a scale key its kind does not read
SCALE_FIELDS = {"compact": ("radius",), "intermediate": ("exponent", "log_exponent", "nu", "mu"),
                "outer": ("nu",)}


@dataclass(frozen=True)
class ScaleSpec:
    """A space-time scale.

    kind="compact": ball of radius `radius`.
    kind="intermediate": phi(t) = t**exponent * (log t)**log_exponent, with
        annulus bounds (nu, mu) relative to phi(t), which absorb any constant.
    kind="outer": exterior region |x| > nu * t**theta.
    radius, nu and mu are finite and positive, both exponents finite.
    """

    kind: str
    radius: float = 1.0
    exponent: float = 0.0
    log_exponent: float = 0.0
    nu: float = 1.0
    mu: float = 2.0

    def __post_init__(self):
        if self.kind not in SCALE_FIELDS:
            raise ParameterError(f"unknown scale kind {self.kind!r}")
        # a NaN fails every comparison, and so this test
        if not (all(0.0 < v < math.inf for v in (self.radius, self.nu, self.mu))
                and math.isfinite(self.exponent) and math.isfinite(self.log_exponent)):
            raise ParameterError("radius, nu and mu must be finite and positive, "
                                 "exponent and log_exponent finite")
        if self.kind == "intermediate" and not self.nu < self.mu:
            raise ParameterError("annulus bounds require nu < mu")

    def phi(self, t: float) -> float:
        if self.kind != "intermediate":
            raise ParameterError("phi(t) only defined for intermediate scales")
        return t**self.exponent * math.log(t) ** self.log_exponent


def _check_intermediate(params: FracParams, scale: ScaleSpec):
    if scale.kind != "intermediate":
        raise ParameterError("classification requires an intermediate scale")
    e, l = scale.exponent, scale.log_exponent
    theta = params.theta
    # phi must grow unboundedly but be o(t^theta)
    if not (e > 0.0 or (e == 0.0 and l > 0.0)):
        raise ParameterError("phi(t) must grow: need e > 0 or (e = 0, l > 0)")
    if not (e < theta or (e == theta and l < 0.0)):
        raise ParameterError("phi(t) must be o(t^theta)")


def classify_scale(gamma: float, params: FracParams, scale: ScaleSpec) -> ScaleClass:
    """Classify an intermediate power-log scale phi(t) = c t^e (log t)^l.

    Classification is symbolic on (e, l); multiplicative constants are ignored,
    matching the asymptotic-comparison semantics of the case list.
    """
    _check_intermediate(params, scale)
    e, l = scale.exponent, scale.log_exponent
    a, b = params.alpha, params.beta
    theta = params.theta

    if gamma < 1.0:
        return ScaleClass.SLOW
    if gamma >= 1.0 + a:
        return ScaleClass.FAST
    if gamma == 1.0:
        # reference scale t^theta / (log t)^(1/(2 beta))
        ref = (theta, -1.0 / (2.0 * b))
        if (e, l) < ref:
            return ScaleClass.SLOW
        if (e, l) == ref:
            return ScaleClass.CRITICAL1
        return ScaleClass.FAST1
    # gamma in (1, 1 + alpha): reference scale t^((1 + alpha - gamma)/(2 beta))
    ref = ((1.0 + a - gamma) / (2.0 * b), 0.0)
    if (e, l) < ref:
        return ScaleClass.SLOW
    if (e, l) == ref:
        return ScaleClass.CRITICAL
    return ScaleClass.FAST


def sharp_rate(params: FracParams, p: float, gamma: float, scale: ScaleSpec) -> tuple:
    """(e, l, k) of the sharp L^p decay rate t^e (log t)^l phi(t)^k on `scale`,
    the one source of every rate the checks normalize by:

    * compact:      t^{-min(gamma, 1+alpha)} (k = 0);
    * intermediate: by the class of classify_scale, t^{-gamma}
      phi^{(1-sigma_p)/theta} on S, C1 and C, t^{-(1+alpha)} log t
      phi^{(1+alpha-sigma_p)/theta} on F1, and the same without log t on F;
    * outer:        t^{1-gamma-sigma_p} for gamma < 1, t^{-sigma_p} log t at
      gamma = 1 and t^{-sigma_p} above (k = 0).

    A p outside [1, inf] raises ParameterError on every kind, compact included,
    whose rate does not read p.
    """
    a = params.alpha
    sp = sigma_p(params, p)
    if scale.kind == "compact":
        return -min(gamma, 1.0 + a), 0, 0
    if scale.kind == "outer":
        if gamma < 1.0:
            return 1.0 - gamma - sp, 0, 0
        return -sp, 1 if gamma == 1.0 else 0, 0
    klass = classify_scale(gamma, params, scale)
    if klass in (ScaleClass.SLOW, ScaleClass.CRITICAL1, ScaleClass.CRITICAL):
        return -gamma, 0, (1.0 - sp) / params.theta
    return -(1.0 + a), 1 if klass is ScaleClass.FAST1 else 0, (1.0 + a - sp) / params.theta


def rate_at(params: FracParams, p: float, gamma: float, scale: ScaleSpec, t: float) -> float:
    """The sharp rate of sharp_rate at time t, t**e * log(t)**l * phi(t)**k in
    that order; phi(t), which only an intermediate scale has, is not read
    when k = 0."""
    e, l, k = sharp_rate(params, p, gamma, scale)
    rate = t**e * math.log(t) ** l
    return rate * scale.phi(t) ** k if k else rate
