import pytest
from hypothesis import HealthCheck, settings

from fracasym.params import FracParams
from fracasym import kernels

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """Shared on-disk profile cache for the whole run (profiles are expensive)."""
    return str(tmp_path_factory.mktemp("kernel-cache"))


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
