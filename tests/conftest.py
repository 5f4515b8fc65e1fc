import contextlib

import pytest
from hypothesis import HealthCheck, settings

import run_all_checks
from fracasym.params import FracParams
from fracasym import kernels
from fracasym.radialtransform import ExtrapolationWarning
from fracasym.verify import run_check

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """One on-disk profile cache directory for the whole run.  The profile
    fixtures below and the checks given it build through the disk cache, and
    test_profile_metadata_one_key_set reads the sidecars they write there.
    It saves no time: the in-process memo serves repeated builds."""
    return str(tmp_path_factory.mktemp("kernel-cache"))


@pytest.fixture(scope="session")
def battery(cache_dir):
    """The check battery, label -> VerifyConfig, from its one definition,
    scripts/run_all_checks.configs(), built through the session cache."""
    return dict(run_all_checks.configs(cache_dir))


def _run_battery(configs):
    """label -> the report of each (label, VerifyConfig) in configs, holding
    kernel-bounds' one ExtrapolationWarning: it integrates its norms over
    [1e-9, 1e9], beyond its grid."""
    reports = {}
    for label, cfg in configs:
        held = (pytest.warns(ExtrapolationWarning) if label == "kernel-bounds"
                else contextlib.nullcontext())
        with held:
            reports[label] = run_check(cfg)
    return reports


@pytest.fixture(scope="session")
def run_battery():
    """The battery's runner, for a test that runs it in other settings."""
    return _run_battery


@pytest.fixture(scope="session")
def battery_reports(battery):
    """label -> the report of each battery config, each run once per session:
    the acceptance criteria, the golden test and the tests of one check read
    these rather than run the config again."""
    return _run_battery(battery.items())


@pytest.fixture(scope="session")
def params_ref():
    """Reference fractional parameter set (alpha, beta, N) = (0.5, 0.5, 3)."""
    return FracParams(alpha=0.5, beta=0.5, dim=3)


@pytest.fixture(scope="session")
def params_beta1():
    """Second parameter set (0.5, 1, 5): beta = 1, exponential-type tail."""
    return FracParams(alpha=0.5, beta=1.0, dim=5)


@pytest.fixture(scope="session")
def params_heat():
    """Classical validation mode (1, 1, 5): kernels are Gaussians."""
    return FracParams(alpha=1.0, beta=1.0, dim=5, validation_mode=True)


@pytest.fixture(scope="session")
def g_profile_ref(params_ref, cache_dir):
    return kernels.build_y_profile(params_ref, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def g_profile_beta1(params_beta1, cache_dir):
    return kernels.build_y_profile(params_beta1, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def g_profile_heat(params_heat, cache_dir):
    return kernels.build_y_profile(params_heat, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def f_profile_heat(params_heat, cache_dir):
    return kernels.build_z_profile(params_heat, cache_dir=cache_dir)
