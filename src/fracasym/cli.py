"""Command-line front end.

    fracasym <command> --config <path> [--out <dir>] [--cache <dir>]

Commands: kernel, potential, solve, rates, verify.  Configuration is strict
INI with sections [problem], [forcing], [grid], [verify]; unknown sections or
keys are fatal (a silent typo in gamma or beta would invalidate conclusions).
Exit status: 0 success/pass, 1 check failure, 2 configuration error.  All
diagnostics go to stderr with machine-parseable ``code=`` prefixes.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

from . import kernels
from .params import (
    FracParams,
    ParameterError,
    ScaleSpec,
    classify_scale,
    derive_exponents,
    intermediate_rate_exponents,
    outer_rate_exponents,
    rate_compact,
)
from .radialtransform import RadialGrid, TransformError
from .reporting import atomic_write
from .solver import ForcingSpec, SolverError, solve_duhamel
from .potentials import PotentialError, riesz_potential
from .verify import VerifyConfig, VerifyError, run_check


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    params: FracParams
    forcing: ForcingSpec | None
    grid: RadialGrid
    theorem: str
    p: float
    times: tuple
    tolerance: float
    scale: ScaleSpec
    mu: float
    out_dir: str = "."
    cache_dir: str | None = None


_SECTION_KEYS = {
    "problem": {"alpha", "beta", "dim", "validation_mode"},
    "forcing": {"family", "gamma", "amplitude", "width"},
    "grid": {"rho_min", "rho_max", "points"},
    "verify": {
        "theorem",
        "p",
        "times",
        "tolerance",
        "kind",
        "radius",
        "nu",
        "mu_outer",
        "exponent",
        "log_exponent",
        "mu",
    },
}

_THEOREM_GAMMA_RULES = {
    "outer-mass": ("outer-mass requires gamma > 1", lambda g: g > 1.0),
    "outer-log": ("outer-log requires gamma = 1", lambda g: g == 1.0),
    "coherence": ("coherence requires gamma < 1", lambda g: g < 1.0),
}


def _get(cp, section, key, cast, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _parse_p(raw: str) -> float:
    if raw.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(raw)


def _parse_times(raw: str) -> tuple:
    return tuple(float(x) for x in raw.replace(",", " ").split())


def _parse_bool(raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(cp.options(section)) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigError(
                f"unknown keys in [{section}]: {', '.join(sorted(unknown))}"
            )
    if not cp.has_section("problem"):
        raise ConfigError("missing required section [problem]")

    try:
        params = FracParams(
            alpha=_get(cp, "problem", "alpha", float, required=True),
            beta=_get(cp, "problem", "beta", float, required=True),
            dim=_get(cp, "problem", "dim", int, required=True),
            validation_mode=_get(cp, "problem", "validation_mode", _parse_bool, False),
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc

    forcing = None
    if cp.has_section("forcing"):
        try:
            forcing = ForcingSpec(
                family=_get(cp, "forcing", "family", str, required=True),
                gamma=_get(cp, "forcing", "gamma", float, required=True),
                amplitude=_get(cp, "forcing", "amplitude", float, 1.0),
                width=_get(cp, "forcing", "width", float, 1.0),
                dim=params.dim,
            )
        except SolverError as exc:
            raise ConfigError(str(exc)) from exc

    grid = RadialGrid(
        rho_min=_get(cp, "grid", "rho_min", float, 1e-3) if cp.has_section("grid") else 1e-3,
        rho_max=_get(cp, "grid", "rho_max", float, 1e3) if cp.has_section("grid") else 1e3,
        points=_get(cp, "grid", "points", int, 768) if cp.has_section("grid") else 768,
    )

    has_v = cp.has_section("verify")
    theorem = _get(cp, "verify", "theorem", str, "compact") if has_v else "compact"
    p_norm = _get(cp, "verify", "p", _parse_p, 1.0) if has_v else 1.0
    times = (
        _get(cp, "verify", "times", _parse_times, (1e2, 1e3, 1e4)) if has_v else (1e2, 1e3, 1e4)
    )
    tolerance = _get(cp, "verify", "tolerance", float, 5e-2) if has_v else 5e-2
    kind = _get(cp, "verify", "kind", str, None) if has_v else None
    if kind is None:
        kind = {
            "compact": "compact",
            "intermediate": "intermediate",
        }.get(theorem, "outer" if theorem.startswith("outer") else "compact")
    try:
        scale = ScaleSpec(
            kind=kind,
            radius=_get(cp, "verify", "radius", float, 1.0) if has_v else 1.0,
            nu=_get(cp, "verify", "nu", float, 1.0) if has_v else 1.0,
            mu=_get(cp, "verify", "mu_outer", float, 2.0) if has_v else 2.0,
            exponent=_get(cp, "verify", "exponent", float, 0.0) if has_v else 0.0,
            log_exponent=_get(cp, "verify", "log_exponent", float, 0.0) if has_v else 0.0,
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    mu = _get(cp, "verify", "mu", float, 2.0 * params.beta) if has_v else 2.0 * params.beta

    if theorem in _THEOREM_GAMMA_RULES and forcing is not None:
        message, rule = _THEOREM_GAMMA_RULES[theorem]
        if not rule(forcing.gamma):
            raise ConfigError(message)

    return RunConfig(
        params=params,
        forcing=forcing,
        grid=grid,
        theorem=theorem,
        p=p_norm,
        times=times,
        tolerance=tolerance,
        scale=scale,
        mu=mu,
    )


def _require_forcing(cfg: RunConfig):
    if cfg.forcing is None:
        raise ConfigError("this command requires a [forcing] section")
    return cfg.forcing


def _cmd_kernel(cfg: RunConfig) -> int:
    for which, builder in (("G", kernels.build_y_profile), ("F", kernels.build_z_profile)):
        profile = builder(cfg.params, grid=cfg.grid, cache_dir=cfg.cache_dir)
        path = os.path.join(cfg.out_dir, f"profile_{which}.csv")
        profile.save(path)
        print(f"wrote {path}")
    return 0


def _cmd_potential(cfg: RunConfig) -> int:
    fs = _require_forcing(cfg)
    from .radialtransform import RadialFunction

    g = RadialFunction(cfg.grid, fs.amplitude * fs.g(cfg.grid.nodes))
    pot = riesz_potential(
        g, cfg.mu, cfg.params.dim, grid=cfg.grid,
        ghat=lambda r: fs.amplitude * fs.ghat(r),
    )
    path = os.path.join(cfg.out_dir, f"potential_mu{cfg.mu:g}.csv")
    pot.save(path, extra_metadata={"mu": cfg.mu, "dim": cfg.params.dim, "family": fs.family})
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
    fs = _require_forcing(cfg)
    exps = derive_exponents(cfg.params)
    gamma, p = fs.gamma, cfg.p
    rows = ["regime,p,gamma,t_exponent,log_power"]
    if cfg.scale.kind == "compact":
        regime, t_exp, log_pow = "compact", -rate_compact(gamma, cfg.params.alpha), 0
    elif cfg.scale.kind == "outer":
        regime = "outer"
        t_exp, log_pow = outer_rate_exponents(exps, p, gamma)
    else:
        klass = classify_scale(gamma, exps, cfg.scale)
        regime = f"intermediate-{klass.value}"
        e, l, k = intermediate_rate_exponents(exps, p, gamma, klass)
        # phi(t) ~ t^exponent (log t)^log_exponent folded into the t and log powers
        t_exp = e + k * cfg.scale.exponent
        log_pow = l + k * cfg.scale.log_exponent
    rows.append(f"{regime},{p:g},{gamma:.17g},{t_exp:.17g},{log_pow:.17g}")
    path = os.path.join(cfg.out_dir, "rates.csv")
    atomic_write(path, "\n".join(rows) + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    fs = _require_forcing(cfg)
    vcfg = VerifyConfig(
        params=cfg.params,
        forcing=fs,
        theorem=cfg.theorem,
        p=cfg.p,
        scale=cfg.scale,
        times=cfg.times,
        tolerance=cfg.tolerance,
        grid=cfg.grid,
        cache_dir=cfg.cache_dir,
    )
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
    os.makedirs(cfg.out_dir, exist_ok=True)
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
    parser.add_argument("--cache", default=None, help="kernel cache directory")
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
    cfg.cache_dir = (
        args.cache if args.cache is not None else os.environ.get("FRACASYM_CACHE")
    )

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
