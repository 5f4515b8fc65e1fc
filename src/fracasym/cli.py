"""Command-line front end.

    fracasym <command> --config <path> [--out <dir>]

Commands: kernel, potential, solve, rates, verify.  Configuration is strict
INI with sections [problem], [forcing], [grid], [verify]; unknown sections or
keys are fatal (a silent typo in gamma or beta would invalidate conclusions).
An absent key takes the default of the library object it configures
(FracParams, ForcingSpec, RadialGrid, ScaleSpec, VerifyConfig); only the scale
kind, taken from the theorem's row of verify.THEOREMS, and the Riesz order
mu = 2 beta are set here.  `kernel` writes profile_G.csv and profile_F.csv
with their sidecars and prints kappa, A, c_2beta, |A/c_2beta - 1| and G's
bound report, one (alpha, beta, N) per config.  Profiles are built in the
process; no command caches them on disk.
Exit status: 0 success/pass, 1 check failure or numerical error, 2
configuration error: a value any of those objects rejects (a non-finite
forcing value, a heavy forcing's width other than 1, validation_mode at
alpha < 1 and bad checkpoints among them), a theorem outside
verify.THEOREMS, a p outside [1, inf] (NaN too), a non-finite time, a
scale key that the kind does not read (params.SCALE_FIELDS) or a gamma
outside the theorem's regime (verify.check_gamma) exits 2 with code=config,
in every command.
So does, in `verify` only, a [verify] key that the theorem's check does not
read: mu, which only `potential` reads, and by the theorem's row of
verify.THEOREMS p or tolerance outside the row's `reads` and any scale key
where the row has no kind (coherence, constant, kernel-bounds); the other
commands run no check and accept them.  What verify.run_check refuses before
any transform (a zero forcing, a scale of the wrong kind, a region the grid
leaves empty) exits 2 with code=precondition, and so does, in solve and
verify, a time above 1e18 where gamma != 0 (the Duhamel quadrature's
bound).  Diagnostics go to stderr with
``code=`` prefixes.  --out is created when a command first writes to it, so a
refused command leaves none.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields

from . import kernels
from .params import (
    SCALE_FIELDS,
    FracParams,
    ParameterError,
    ScaleSpec,
    classify_scale,
    sharp_rate,
)
from .radialtransform import RadialGrid, TransformError
from .reporting import atomic_write
from .solver import ForcingSpec, SolverError, solve_duhamel
from .potentials import PotentialError, riesz_constant, riesz_potential
from .verify import THEOREMS, VerifyConfig, VerifyError, check_gamma, run_check


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    params: FracParams
    forcing: ForcingSpec | None
    grid: RadialGrid
    scale: ScaleSpec
    mu: float
    theorem: str = VerifyConfig.theorem
    p: float = VerifyConfig.p
    times: tuple = VerifyConfig.times
    tolerance: float = VerifyConfig.tolerance
    out_dir: str = "."
    unread: tuple = ()  # the [verify] keys given that the theorem's check does not read


def _parse_times(raw: str) -> tuple:
    """The checkpoints; a NaN or infinite time states nothing, in any command."""
    times = tuple(float(x) for x in raw.replace(",", " ").split())
    if not all(math.isfinite(t) for t in times):
        raise ValueError(f"non-finite time in {raw!r}")
    return times


def _parse_tolerance(raw: str) -> float:
    """The pass threshold; a NaN, infinite or non-positive one decides every check."""
    if not 0.0 < float(raw) < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {raw!r}")
    return float(raw)


def _parse_p(raw: str) -> float:
    """The norm's exponent; "inf" and "Infinity" read as p = inf, and a NaN or
    p < 1 names no L^p norm, in any command."""
    if not float(raw) >= 1.0:
        raise ValueError(f"p must be in [1, inf], got {raw!r}")
    return float(raw)


def _parse_theorem(raw: str) -> str:
    """A row of verify.THEOREMS, in any command: a misspelled theorem would
    take the default scale kind, not the theorem's."""
    if raw not in THEOREMS:
        raise ValueError(f"unknown theorem {raw!r}")
    return raw


def _parse_bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


# [section] -> key -> cast.  [problem], [forcing] and [grid] configure
# FracParams, ForcingSpec and RadialGrid; in [verify], keys named after a
# RunConfig field configure the run and the rest ScaleSpec (mu_outer is its mu).
_KEYS = {
    "problem": {"alpha": float, "beta": float, "dim": int, "validation_mode": _parse_bool},
    "forcing": {"family": str, "gamma": float, "amplitude": float, "width": float},
    "grid": {"rho_min": float, "rho_max": float, "points": int},
    "verify": {
        "theorem": _parse_theorem,
        "p": _parse_p,
        "times": _parse_times,
        "tolerance": _parse_tolerance,
        "mu": float,
        "kind": str,
        "radius": float,
        "nu": float,
        "mu_outer": float,
        "exponent": float,
        "log_exponent": float,
    },
}


def _section(cp, section) -> dict:
    """The keys given in [section], cast; an absent section gives none."""
    out = {}
    for key in cp.options(section) if cp.has_section(section) else ():
        raw = cp.get(section, key)
        try:
            out[key] = _KEYS[section][key](raw)
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return out


def _make(cls, section, given, **fixed):
    """cls(**given, **fixed); a field of cls without a default is required."""
    kwargs = {**given, **fixed}
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key [{section}] {f.name}")
    return cls(**kwargs)


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(cp.options(section)) - _KEYS[section].keys()
        if unknown:
            raise ConfigError(
                f"unknown keys in [{section}]: {', '.join(sorted(unknown))}"
            )
    if not cp.has_section("problem"):
        raise ConfigError("missing required section [problem]")

    problem, forcing, grid, scale = (_section(cp, section) for section in _KEYS)
    run = {k: scale.pop(k) for k in list(scale) if k in RunConfig.__dataclass_fields__}
    theorem = run.get("theorem", VerifyConfig.theorem)
    row = THEOREMS[theorem]
    unread = ["mu"] if "mu" in run else []  # no check reads mu; the rest by the row
    unread += [k for k in ("p", "tolerance") if k in run and k not in row.reads]
    if not row.kind:  # a row without a kind reads no scale key
        unread += scale
    kind = scale.setdefault("kind", row.kind or "compact")
    if kind in SCALE_FIELDS:  # ScaleSpec refuses any other kind
        read = {"kind", *("mu_outer" if f == "mu" else f for f in SCALE_FIELDS[kind])}
        stray = sorted(set(scale) - read)
        if stray:
            raise ConfigError(f"keys in [verify] that the {kind} scale kind does not "
                              f"read: {', '.join(stray)}")
    if "mu_outer" in scale:
        scale["mu"] = scale.pop("mu_outer")
    try:
        params = _make(FracParams, "problem", problem)
        if cp.has_section("forcing"):
            forcing = _make(ForcingSpec, "forcing", forcing, dim=params.dim)
        else:
            forcing = None
        run.setdefault("mu", 2.0 * params.beta)
        cfg = RunConfig(params=params, forcing=forcing, grid=RadialGrid(**grid),
                        scale=ScaleSpec(**scale), unread=tuple(sorted(unread)), **run)
        if forcing is not None:
            check_gamma(theorem, forcing.gamma)
    except (ParameterError, SolverError, TransformError, VerifyError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _require_forcing(cfg: RunConfig):
    if cfg.forcing is None:
        raise ConfigError("this command requires a [forcing] section")
    return cfg.forcing


def _cmd_kernel(cfg: RunConfig) -> int:
    for which, builder in (("G", kernels.build_y_profile), ("F", kernels.build_z_profile)):
        profile = builder(cfg.params, grid=cfg.grid)
        path = os.path.join(cfg.out_dir, f"profile_{which}.csv")
        profile.save(path)
        print(f"wrote {path}")
        if which == "G":
            c2b = riesz_constant(2.0 * cfg.params.beta, cfg.params.dim)
            print(f"  kappa       = {profile.kappa}")
            print(f"  constant A  = {profile.constant_A}")
            print(f"  c_2beta     = {c2b}")
            print(f"  |A/c - 1|   = {abs(profile.constant_A / c2b - 1.0):.3e}")
            if profile.bound_report:
                print(f"  bounds      = {profile.bound_report}")
    return 0


def _cmd_potential(cfg: RunConfig) -> int:
    fs = _require_forcing(cfg)
    pot = riesz_potential(
        None, cfg.mu, cfg.params.dim, grid=cfg.grid,
        ghat=lambda r: fs.amplitude * fs.ghat(r),
    )
    path = os.path.join(cfg.out_dir, f"potential_mu{cfg.mu:g}.csv")
    pot.save(path, extra_metadata={"mu": cfg.mu, "dim": cfg.params.dim, **fs.as_dict()})
    print(f"wrote {path}")
    return 0


def _cmd_solve(cfg: RunConfig) -> int:
    fs = _require_forcing(cfg)
    for t in cfg.times:
        sl = solve_duhamel(fs, cfg.params, t, cfg.grid)
        path = os.path.join(cfg.out_dir, f"solution_t{t:g}.csv")
        sl.save(path)
        print(f"wrote {path}")
    return 0


def _cmd_rates(cfg: RunConfig) -> int:
    """rates.csv: the sharp rate t^e (log t)^l phi(t)^k of params.sharp_rate
    on the configured scale, with phi(t) = t^exponent (log t)^log_exponent
    folded into the t and log powers (k = 0 off intermediate scales)."""
    fs, scale = _require_forcing(cfg), cfg.scale
    gamma, p = fs.gamma, cfg.p
    rows = ["regime,p,gamma,t_exponent,log_power"]
    e, l, k = sharp_rate(cfg.params, p, gamma, scale)
    t_exp, log_pow = e + k * scale.exponent, l + k * scale.log_exponent
    regime = scale.kind
    if regime == "intermediate":
        regime += "-" + classify_scale(gamma, cfg.params, scale).value
    rows.append(f"{regime},{p:g},{gamma:.17g},{t_exp:.17g},{log_pow:.17g}")
    path = os.path.join(cfg.out_dir, "rates.csv")
    atomic_write(path, "\n".join(rows) + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    fs = _require_forcing(cfg)
    if cfg.unread:
        raise ConfigError(f"keys in [verify] that {cfg.theorem} does not read: "
                          f"{', '.join(cfg.unread)}")
    try:  # a value VerifyConfig rejects (the times) is a configuration error
        vcfg = VerifyConfig(params=cfg.params, forcing=fs, theorem=cfg.theorem, p=cfg.p,
                            scale=cfg.scale, times=cfg.times, tolerance=cfg.tolerance,
                            grid=cfg.grid)
    except VerifyError as exc:
        raise ConfigError(str(exc)) from exc
    report = run_check(vcfg)
    path = os.path.join(cfg.out_dir, f"report_{cfg.theorem}.json")
    report.save(path)
    print(f"{cfg.theorem}: {report.verdict} (report at {path})")
    return 0 if report.passed else 1


_COMMANDS = {
    "kernel": _cmd_kernel,
    "potential": _cmd_potential,
    "solve": _cmd_solve,
    "rates": _cmd_rates,
    "verify": _cmd_verify,
}


def run_command(command: str, cfg: RunConfig) -> int:
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    return _COMMANDS[command](cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracasym",
        description="Radial spectral engine and limit-theorem harness for the "
        "fully nonlocal heat equation",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config path")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"code=config-io {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"code=config {exc}", file=sys.stderr)
        return 2

    cfg.out_dir = args.out

    try:
        return run_command(args.command, cfg)
    except ConfigError as exc:
        print(f"code=config {exc}", file=sys.stderr)
        return 2
    except (VerifyError, ParameterError, SolverError, PotentialError) as exc:
        print(f"code=precondition {exc}", file=sys.stderr)
        return 2
    except (kernels.KernelError, TransformError) as exc:
        print(f"code=numerical {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
