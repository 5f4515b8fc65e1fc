import glob
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from fracasym import kernels
from fracasym.cli import ConfigError, main, parse_config
from fracasym.params import FracParams, ScaleSpec, rate_at
from fracasym.potentials import riesz_constant
from fracasym.solver import ForcingSpec
from fracasym.verify import THEOREMS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


MINIMAL = """
[problem]
alpha = 0.5
beta = 0.5
dim = 3
"""

FULL = """
[problem]
alpha = 0.5
beta = 0.5
dim = 3

[forcing]
family = gaussian
gamma = 0.5
amplitude = 1.0
width = 1.0

[grid]
rho_min = 1e-2
rho_max = 1e2
points = 256

[verify]
theorem = coherence
p = inf
times = 1e2 1e3 1e4
tolerance = 5e-2
kind = outer
nu = 1.0
"""


# FULL's coherence check without the keys it does not read: p and the scale
COHERENCE = FULL.replace("p = inf\n", "").replace("kind = outer\nnu = 1.0\n", "")


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.params.alpha == 0.5
    assert cfg.forcing is None
    assert cfg.grid.points == 768
    assert cfg.theorem == "compact"
    assert cfg.p == 1.0
    assert cfg.times == (1e2, 1e3, 1e4)


def test_parse_full():
    cfg = parse_config(FULL)
    assert cfg.forcing.family == "gaussian"
    assert math.isinf(cfg.p)
    assert cfg.grid.points == 256
    assert cfg.theorem == "coherence"
    assert cfg.scale.kind == "outer"


def test_parse_times_with_commas():
    cfg = parse_config(MINIMAL + "\n[verify]\ntimes = 1e2, 1e3, 1e4\n")
    assert cfg.times == (1e2, 1e3, 1e4)


def test_parse_bool_infinity_and_mu_outer(tmp_path, capsys):
    keys = ("validation_mode = no\n[verify]\np = Infinity\nkind = intermediate\n"
            "exponent = 0.25\nmu_outer = 3.5\n")
    cfg = parse_config(MINIMAL + keys)
    assert cfg.params.validation_mode is False
    assert math.isinf(cfg.p)
    assert cfg.scale.mu == 3.5  # [verify] mu_outer is the scale's mu
    assert cfg.mu == 1.0  # the Riesz order stays 2 beta
    heat = MINIMAL.replace("alpha = 0.5", "alpha = 1.0") + "validation_mode = On\n"
    assert parse_config(heat).params.validation_mode is True
    path = _write(tmp_path, MINIMAL + "validation_mode = maybe\n")
    assert main(["rates", "--config", path, "--out", str(tmp_path)]) == 2
    assert "code=config bad value for [problem] validation_mode" in capsys.readouterr().err


def test_unsupported_dimension_message():
    bad = MINIMAL.replace("beta = 0.5", "beta = 1.0").replace("dim = 3", "dim = 4")
    with pytest.raises(ConfigError, match="4\\*beta"):
        parse_config(bad)


def test_unknown_section_and_key_fatal():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(MINIMAL.replace("alpha = 0.5", "alpha = 0.5\nalhpa = 0.5"))


def test_gamma_rules():
    bad = FULL.replace("theorem = coherence", "theorem = outer-mass")
    with pytest.raises(ConfigError, match="gamma > 1"):
        parse_config(bad)
    bad = FULL.replace("theorem = coherence", "theorem = outer-log")
    with pytest.raises(ConfigError, match="gamma = 1"):
        parse_config(bad)
    bad = FULL.replace("gamma = 0.5", "gamma = 2.0")
    with pytest.raises(ConfigError, match="gamma < 1"):
        parse_config(bad)


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_exit_code_config_error(tmp_path, capsys):
    for i, extra in enumerate(["[bogus]\nx = 1", "[grid]\npoints = 10"]):
        path = _write(tmp_path, MINIMAL + "\n" + extra + "\n", name=f"config{i}.ini")
        code = main(["rates", "--config", path, "--out", str(tmp_path)])
        assert code == 2
        assert "code=config" in capsys.readouterr().err


def test_exit_code_missing_config(tmp_path, capsys):
    code = main(["rates", "--config", str(tmp_path / "nope.ini")])
    assert code == 2
    assert "code=config-io" in capsys.readouterr().err


def test_verify_precondition_exit_code(tmp_path, capsys):
    # each is refused before any work is done.  p < 1 and a checkpoint at
    # t = 1 are values VerifyConfig rejects, so configuration errors.  The
    # checks refuse kernel-bounds at p = p_* = 3 (G is not in L^p there),
    # outer-log on a compact scale at (0.9, 0.5, 3), where no exterior starts
    # inside the grid (it once passed with exit 0), and a ball of radius
    # rho_min = 1e-2 (it once failed in the norm after a transform, exit 1)
    base = FULL.replace("rho_max = 1e2\npoints = 256", "rho_max = 1e3\npoints = 128")
    compact = base.replace("theorem = coherence", "theorem = compact").replace(
        "kind = outer\nnu = 1.0", "kind = compact")
    outer_log = base.replace("theorem = coherence", "theorem = outer-log").replace(
        "gamma = 0.5", "gamma = 1.0")
    kernel_bounds = base.replace("theorem = coherence", "theorem = kernel-bounds").replace(
        "p = inf", "p = 3").replace("tolerance = 5e-2\nkind = outer\nnu = 1.0\n", "")
    log_compact = outer_log.replace("alpha = 0.5", "alpha = 0.9").replace(
        "times = 1e2 1e3 1e4", "times = 1e4 1e5 1e6").replace(
        "kind = outer\nnu = 1.0", "kind = compact")
    cases = [(compact.replace("p = inf", "p = 0.5"), "config"),
             (outer_log.replace("times = 1e2 1e3 1e4", "times = 1 10 100"), "config"),
             (kernel_bounds, "precondition"), (log_compact, "precondition"),
             (compact + "radius = 1e-2\n", "precondition")]
    for i, (text, code_) in enumerate(cases):
        path = _write(tmp_path, text, name=f"config{i}.ini")
        out = str(tmp_path / f"out{i}")
        code = main(["verify", "--config", path, "--out", out])
        assert code == 2
        assert f"code={code_} " in capsys.readouterr().err


# a scale key the kind does not read: (theorem, gamma, [verify] scale keys, the
# kind, the INI keys named in the refusal)
_STRAY_KEYS = {
    "outer-mass": ("outer-mass", "2.0", "nu = 1.0\nradius = 7\nexponent = 0.3\nmu_outer = 9",
                   "outer", "exponent, mu_outer, radius"),
    "compact": ("compact", "0.5", "nu = 1.0", "compact", "nu"),
    "intermediate": ("intermediate", "0.5", "exponent = 0.25\nradius = 2", "intermediate",
                     "radius"),
    "kind-given": ("coherence", "0.5", "kind = compact\nnu = 1.0\nlog_exponent = 1", "compact",
                   "log_exponent, nu"),
}


@pytest.mark.parametrize("case", sorted(_STRAY_KEYS))
def test_scale_keys_the_kind_does_not_read_are_fatal(tmp_path, capsys, case):
    # an ignored radius or exponent invalidates conclusions as silently as a
    # typo: outer-mass with radius, exponent and mu_outer once exited 0 and
    # recorded only the outer scale's nu
    theorem, gamma, keys, kind, named = _STRAY_KEYS[case]
    text = FULL.replace("theorem = coherence", f"theorem = {theorem}").replace(
        "gamma = 0.5", f"gamma = {gamma}").replace("kind = outer\nnu = 1.0", keys)
    code = main(["verify", "--config", _write(tmp_path, text), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"code=config keys in [verify] that the {kind} scale kind does not read: {named}\n"
    assert not (tmp_path / "out").exists()


# keys the theorem's check does not read: (the [verify] keys, the keys named in
# the refusal), on FULL's check widened to a grid where kernel-bounds passes
_UNREAD_KEYS = {
    "coherence": ("kind = outer\nnu = 7\np = 3", "kind, nu, p"),
    "kernel-bounds": ("radius = 9\ntolerance = 1e-9", "radius, tolerance"),
    "constant": ("p = 7\nradius = 3", "p, radius"),
}


@pytest.mark.filterwarnings(  # kernel-bounds' norm runs beyond its grid
    "ignore::fracasym.radialtransform.ExtrapolationWarning")
@pytest.mark.parametrize("theorem", sorted(_UNREAD_KEYS))
def test_keys_the_check_does_not_read_are_fatal(tmp_path, capsys, theorem):
    # each once exited 0 with a report that dropped the key: coherence
    # recorded "p": null, kernel-bounds its own tolerance 1e-2
    keys, named = _UNREAD_KEYS[theorem]
    text = FULL.replace("theorem = coherence", f"theorem = {theorem}").replace(
        "rho_min = 1e-2\nrho_max = 1e2\npoints = 256",
        "rho_min = 1e-3\nrho_max = 1e3\npoints = 128").replace(
        "p = inf\n", "").replace("tolerance = 5e-2\nkind = outer\nnu = 1.0\n", "")
    out = tmp_path / "out"
    code = main(["verify", "--config", _write(tmp_path, text + keys + "\n"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"code=config keys in [verify] that {theorem} does not read: {named}\n"
    assert not list(out.iterdir())
    # without them the check runs, and passes
    path = _write(tmp_path, text, name="read.ini")
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    assert (out / f"report_{theorem}.json").exists()


def test_keys_the_check_does_not_read_are_recorded_at_parse(tmp_path):
    # FULL is coherence with p and an outer scale: parse_config records them
    # for verify to refuse, and rates, which reads p and the scale whatever
    # the theorem, runs
    assert parse_config(FULL).unread == ("kind", "nu", "p")
    assert parse_config(COHERENCE).unread == ()
    assert main(["rates", "--config", _write(tmp_path, FULL), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_absent_kind_is_the_theorems_own(theorem):
    # the CLI reads the kind from the theorem's row; a check that sets its own
    # scale takes the compact default
    cfg = parse_config(MINIMAL + f"[verify]\ntheorem = {theorem}\n")
    assert cfg.scale.kind == (THEOREMS[theorem].kind or "compact")


def test_potential_command_samples_no_g(tmp_path, monkeypatch):
    # the closed-form g-hat is all the potential reads
    def no_samples(self, rho):
        raise AssertionError("g sampled")

    monkeypatch.setattr(ForcingSpec, "g", no_samples)
    path = _write(tmp_path, FULL + "mu = 1.0\n")
    assert main(["potential", "--config", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("value", ["gamma = nan", "gamma = inf", "amplitude = nan",
                                   "width = nan", "width = inf"])
def test_verify_non_finite_forcing_is_a_config_error(tmp_path, capsys, value):
    # refused at parse time; a NaN gamma once reached a W-table build in the
    # compact check and exited with a misleading quadrature precondition
    compact = FULL.replace("theorem = coherence", "theorem = compact").replace(
        "kind = outer\nnu = 1.0", "kind = compact")
    key = value.split()[0]
    old = next(line for line in compact.splitlines() if line.startswith(key + " ="))
    path = _write(tmp_path, compact.replace(old, value))
    code = main(["verify", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "code=config " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("times", ["1e2 nan 1e4", "1e2 1e3 inf"])
def test_non_finite_checkpoint_is_a_config_error(tmp_path, capsys, command, times):
    # refused at parse time; a NaN checkpoint once passed every comparison of
    # VerifyConfig and failed deep in a W-table build
    path = _write(tmp_path, FULL.replace("times = 1e2 1e3 1e4", f"times = {times}"))
    code = main([command, "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "code=config bad value for [verify] times" in capsys.readouterr().err


# a config per refused value: (theorem, the [verify] scale keys, the value);
# the value replaces its key's line in [grid] or [verify] when there is one
_BAD_VALUES = {
    "rho_max-inf": ("coherence", "kind = outer\nnu = 1.0", "rho_max = inf"),
    "radius-negative": ("compact", "kind = compact", "radius = -1"),
    "radius-inf": ("compact", "kind = compact", "radius = inf"),
    "nu-negative": ("outer-mass", "kind = outer\nnu = 1.0", "nu = -1"),
    "nu-nan": ("outer-mass", "kind = outer\nnu = 1.0", "nu = nan"),
    "mu-inf": ("intermediate", "kind = intermediate\nexponent = 0.25", "mu_outer = inf"),
    "exponent-nan": ("intermediate", "kind = intermediate\nexponent = 0.25", "exponent = nan"),
    "log_exponent-inf": ("intermediate", "kind = intermediate\nexponent = 0.25",
                         "log_exponent = inf"),
}


@pytest.mark.parametrize("case", sorted(_BAD_VALUES))
def test_grid_and_scale_values_are_config_errors(tmp_path, capsys, case):
    # each of these once ran: a NaN grid, an empty or reversed norm interval,
    # or a region extrapolated to infinity, with exit 1 or a precondition
    theorem, scale, value = _BAD_VALUES[case]
    gamma = "2.0" if theorem == "outer-mass" else "0.5"
    text = FULL.replace("theorem = coherence", f"theorem = {theorem}").replace(
        "gamma = 0.5", f"gamma = {gamma}").replace("kind = outer\nnu = 1.0", scale)
    key = value.split()[0]
    old = next((line for line in text.splitlines() if line.startswith(key + " =")), None)
    text = text.replace(old, value) if old else text + value + "\n"
    code = main(["verify", "--config", _write(tmp_path, text), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "code=config " in err


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, value):
    # a NaN or non-positive tolerance failed every check with exit 1, and an
    # infinite one passes whatever the errors
    path = _write(tmp_path, FULL.replace("tolerance = 5e-2", f"tolerance = {value}"))
    code = main(["verify", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "code=config bad value for [verify] tolerance" in capsys.readouterr().err


def test_verify_zero_forcing_exit_code(tmp_path, capsys):
    # f = 0 has no profile: every check that reads the forcing refuses it
    path = _write(tmp_path, COHERENCE.replace("amplitude = 1.0", "amplitude = 0.0"))
    code = main(["verify", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "code=precondition" in err and "nonzero forcing" in err


@pytest.mark.parametrize(
    "scale", ["kind = compact", "kind = intermediate\nexponent = 0.25"],
    ids=["compact", "intermediate-F"])
def test_verify_kappa_term_at_alpha_one(tmp_path, capsys, scale):
    # gamma = 2.5 > 1 + alpha puts a kappa E_{4b} term in the compact limit and
    # in the class-F profile; kappa has no value at alpha = 1
    text = FULL.replace("alpha = 0.5", "alpha = 1.0\nvalidation_mode = true").replace(
        "gamma = 0.5", "gamma = 2.5").replace("p = inf", "p = 1").replace(
        "kind = outer\nnu = 1.0", scale)
    theorem = scale.split()[2]
    path = _write(tmp_path, text.replace("theorem = coherence", f"theorem = {theorem}"))
    code = main(["verify", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "code=precondition" in err and "kappa" in err


def test_rates_command(tmp_path):
    # FULL: p = inf, (alpha, beta, N) = (0.5, 0.5, 3), so sigma_* = 2, theta = 1/2
    params = FracParams(0.5, 0.5, 3)
    outer = FULL.replace("theorem = coherence", "theorem = outer-general")
    intermediate = outer.replace("kind = outer", "kind = intermediate").replace(
        "nu = 1.0", "nu = 1.0\nexponent = 0.5\nlog_exponent = -0.5"
    )
    t = 1e3
    outer_scale = ScaleSpec(kind="outer")
    cases = [
        # gamma = 1/2 < 1: exponent 1 - gamma - sigma_* = 0.5 - 2 = -1.5
        (FULL, "outer", -1.5, 0, rate_at(params, math.inf, 0.5, outer_scale, t)),
        (outer.replace("gamma = 0.5", "gamma = 1.0"), "outer", -2.0, 1,
         rate_at(params, math.inf, 1.0, outer_scale, t)),
        # compact: t^{-min(gamma, 1 + alpha)}
        (outer.replace("kind = outer\nnu = 1.0", "kind = compact").replace(
            "gamma = 0.5", "gamma = 2.0"), "compact", -1.5, 0, t**-1.5),
        # F1 at phi = t^theta (log t)^{-1/2}: t^{-3/2} log t phi^{-1}
        (intermediate.replace("gamma = 0.5", "gamma = 1.0"), "intermediate-F1", -2.0,
         1.5, rate_at(params, math.inf, 1.0, ScaleSpec(
             kind="intermediate", exponent=0.5, log_exponent=-0.5), t)),
    ]
    for i, (text, regime, t_exp, log_pow, rate) in enumerate(cases):
        out = tmp_path / f"out{i}"
        path = _write(tmp_path, text, name=f"config{i}.ini")
        assert main(["rates", "--config", path, "--out", str(out)]) == 0
        rows = (out / "rates.csv").read_text().strip().splitlines()
        assert rows[0] == "regime,p,gamma,t_exponent,log_power"
        fields = rows[1].split(",")
        assert fields[0] == regime
        assert float(fields[3]) == pytest.approx(t_exp, abs=1e-12)
        assert float(fields[4]) == pytest.approx(log_pow, abs=1e-12)
        # the printed exponents reproduce the rate the checks normalize by
        got = t ** float(fields[3]) * math.log(t) ** float(fields[4])
        assert got == pytest.approx(rate, rel=1e-12)


# at (0.5, 0.5, 3) and p = inf: theta = 1/2, and the class references are
# phi = t^{1/2} (log t)^{-1} at gamma = 1 and t^{(3/2 - gamma)} for 1 < gamma < 3/2
@pytest.mark.parametrize("gamma, scale, regime", [
    (2.0, "kind = compact", "compact"),
    (0.5, "kind = intermediate\nexponent = 0.25", "intermediate-S"),
    (1.0, "kind = intermediate\nexponent = 0.5\nlog_exponent = -1", "intermediate-C1"),
    (1.25, "kind = intermediate\nexponent = 0.25", "intermediate-C"),
    (1.0, "kind = intermediate\nexponent = 0.5\nlog_exponent = -0.5", "intermediate-F1"),
    (2.0, "kind = intermediate\nexponent = 0.25", "intermediate-F"),
    (0.5, "kind = outer", "outer"),
    (1.0, "kind = outer", "outer"),
    (2.0, "kind = outer", "outer"),
], ids=["compact", "S", "C1", "C", "F1", "F", "outer-gamma<1", "outer-gamma=1",
        "outer-gamma>1"])
def test_rates_csv_reproduces_rate_at(tmp_path, gamma, scale, regime):
    # the printed exponents, with phi(t) folded in, are the rate the checks
    # normalize by, on every regime
    text = FULL.replace("theorem = coherence", "theorem = compact").replace(
        "gamma = 0.5", f"gamma = {gamma}").replace("kind = outer\nnu = 1.0", scale)
    path = _write(tmp_path, text)
    assert main(["rates", "--config", path, "--out", str(tmp_path)]) == 0
    fields = (tmp_path / "rates.csv").read_text().splitlines()[1].split(",")
    assert fields[0] == regime
    cfg = parse_config(text)
    for t in (1e3, 1e8):
        got = t ** float(fields[3]) * math.log(t) ** float(fields[4])
        want = rate_at(cfg.params, cfg.p, gamma, cfg.scale, t)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_verify_command_exit_zero(tmp_path):
    path = _write(tmp_path, COHERENCE)
    out = tmp_path / "out"
    code = main(["verify", "--config", path, "--out", str(out)])
    assert code == 0
    with open(out / "report_coherence.json") as fh:
        rep = json.load(fh)
    assert rep["verdict"] == "pass"
    assert rep["p"] is None  # coherence is a pointwise ratio, no L^p norm


def test_readme_example_runs(tmp_path):
    # the README's example configuration stays one that verify accepts
    readme = pathlib.Path(ROOT, "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    example = section.split("```ini\n", 1)[1].split("```", 1)[0]
    code = main(["verify", "--config", _write(tmp_path, example), "--out", str(tmp_path / "out")])
    assert code in (0, 1)


def test_solve_deterministic(tmp_path):
    cfg = FULL.replace("theorem = coherence", "theorem = compact").replace(
        "times = 1e2 1e3 1e4", "times = 10"
    )
    path = _write(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", path, "--out", str(out1)]) == 0
    assert main(["solve", "--config", path, "--out", str(out2)]) == 0
    f1 = (out1 / "solution_t10.csv").read_bytes()
    f2 = (out2 / "solution_t10.csv").read_bytes()
    assert f1 == f2


def test_potential_command(tmp_path):
    cfg = FULL + "mu = 1.0\n"
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["potential", "--config", path, "--out", str(out)]) == 0
    data = np.loadtxt(out / "potential_mu1.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 2
    assert np.all(np.isfinite(data))
    with open(out / "potential_mu1.json") as fh:
        meta = json.load(fh)
    assert meta["mu"] == 1.0


def test_kernel_command_deterministic(tmp_path, capsys):
    # widen the grid for the kernel build: on the reduced CLI grid (for speed
    # elsewhere) rho^{N-4b} G at rho_min = 1e-2 misses kappa by 1.1%, outside
    # the 1% kappa clause of the bound report
    cfg = FULL.replace("rho_min = 1e-2", "rho_min = 1e-4").replace(
        "points = 256", "points = 384"
    )
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["kernel", "--config", path, "--out", str(out)]) == 0
    with open(out / "profile_G.json") as fh:
        meta = json.load(fh)
    assert meta["kappa"] == pytest.approx(0.02244839, rel=1e-2)
    assert meta["constant_A"] == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-3)
    assert meta["bound_report"]["kappa_pass"]
    # the summary on stdout states the sidecar's constants
    c2b = riesz_constant(1.0, 3)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"wrote {out / 'profile_G.csv'}",
        f"  kappa       = {meta['kappa']}",
        f"  constant A  = {meta['constant_A']}",
        f"  c_2beta     = {c2b}",
        f"  |A/c - 1|   = {abs(meta['constant_A'] / c2b - 1.0):.3e}",
        f"  bounds      = {meta['bound_report']}",
        f"wrote {out / 'profile_F.csv'}",
    ]
    assert abs(meta["constant_A"] / c2b - 1.0) < 1e-3
    g1 = (out / "profile_G.csv").read_bytes()
    # a second run, rebuilt from the symbol, reproduces the file byte-for-byte
    kernels._profile.cache_clear()
    out2 = tmp_path / "out2"
    assert main(["kernel", "--config", path, "--out", str(out2)]) == 0
    assert (out2 / "profile_G.csv").read_bytes() == g1


def test_profile_metadata_one_key_set(tmp_path, cache_dir, g_profile_heat, f_profile_heat):
    # the session cache holds both validation-mode profiles; the one writer
    # of profile sidecars gives the CLI's output the same keys and values
    cfg = MINIMAL.replace("alpha = 0.5", "alpha = 1.0\nvalidation_mode = true")
    cfg = cfg.replace("beta = 0.5", "beta = 1.0").replace("dim = 3", "dim = 5")
    path = _write(tmp_path, cfg)
    cli_out = tmp_path / "cli"
    assert main(["kernel", "--config", path, "--out", str(cli_out)]) == 0
    for which in "GF":
        (sidecar,) = glob.glob(os.path.join(cache_dir, f"profile_{which}_a1.0_b1.0_N5_*.json"))
        cached, cli_meta = [
            json.loads(pathlib.Path(f).read_text())
            for f in (sidecar, cli_out / f"profile_{which}.json")
        ]
        assert {"which", "alpha", "beta", "dim", "kappa", "constant_A",
                "bound_report"} <= cached.keys()
        assert cli_meta == cached


def test_imports_load_no_scipy():
    # the package runs on numpy alone: importing it and its command line
    # loads no scipy module (scipy is a test oracle only)
    code = (
        "import sys, fracasym, fracasym.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_requires_forcing(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    code = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "forcing" in capsys.readouterr().err
