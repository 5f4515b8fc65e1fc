import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracasym.params import (
    FracParams,
    ParameterError,
    ScaleClass,
    ScaleSpec,
    classify_scale,
    rate_at,
    sharp_rate,
    sigma_p,
)


def test_reference_exponents():
    params = FracParams(0.5, 0.5, 3)
    assert params.theta == 0.5
    assert params.sigma_star == pytest.approx(2.0)
    assert params.p_star == pytest.approx(3.0)


def test_beta1_exponents():
    params = FracParams(0.5, 1.0, 5)
    assert params.theta == 0.25
    assert params.sigma_star == pytest.approx(0.5 + 1.25)
    assert params.p_star == pytest.approx(5.0)


def test_sigma_p_values():
    params = FracParams(0.5, 0.5, 3)
    assert sigma_p(params, 1.0) == pytest.approx(0.5)  # 1 - alpha
    assert sigma_p(params, math.inf) == pytest.approx(2.0)


@pytest.mark.parametrize("fn", [sigma_p])
def test_nan_p_is_refused(fn):
    # a NaN p passed the test p < 1 and came back as a NaN exponent
    with pytest.raises(ParameterError, match="p must be in"):
        fn(FracParams(0.5, 0.5, 3), math.nan)


def test_invalid_params():
    with pytest.raises(ParameterError):
        FracParams(0.5, 1.0, 4)  # dim = 4*beta
    with pytest.raises(ParameterError):
        FracParams(1.5, 0.5, 3)
    with pytest.raises(ParameterError):
        FracParams(1.0, 0.5, 3)  # alpha = 1 needs validation_mode
    with pytest.raises(ParameterError):
        FracParams(0.5, 0.5, 4)  # even dim unsupported
    FracParams(1.0, 1.0, 5, validation_mode=True)


@pytest.mark.parametrize(
    "gamma,e_exp,l_exp,expected",
    [
        (0.5, 0.25, 0.0, ScaleClass.SLOW),
        (2.0, 0.25, 0.0, ScaleClass.FAST),
        (1.0, 0.5, -1.0, ScaleClass.CRITICAL1),  # t^theta (log t)^{-1/(2 beta)}
        (1.0, 0.25, 0.0, ScaleClass.SLOW),
        (1.0, 0.5, -0.5, ScaleClass.FAST1),
        (1.25, 0.25, 0.0, ScaleClass.CRITICAL),  # (1+a-g)/(2b) = 0.25
        (1.25, 0.125, 0.0, ScaleClass.SLOW),
        (1.25, 0.3, 0.0, ScaleClass.FAST),
    ],
)
def test_classification(gamma, e_exp, l_exp, expected):
    params = FracParams(0.5, 0.5, 3)
    scale = ScaleSpec(kind="intermediate", exponent=e_exp, log_exponent=l_exp)
    assert classify_scale(gamma, params, scale) is expected


def test_classification_rejects_non_growing_or_outer_scales():
    params = FracParams(0.5, 0.5, 3)
    with pytest.raises(ParameterError):
        classify_scale(0.5, params, ScaleSpec(kind="intermediate", exponent=0.0))
    with pytest.raises(ParameterError):
        classify_scale(0.5, params, ScaleSpec(kind="intermediate", exponent=0.6))
    with pytest.raises(ParameterError):
        classify_scale(0.5, params, ScaleSpec(kind="outer"))


def test_rates():
    params = FracParams(0.5, 0.5, 3)
    compact, outer = ScaleSpec(kind="compact"), ScaleSpec(kind="outer")
    assert sharp_rate(params, 1.0, 2.0, compact) == (-1.5, 0, 0)
    assert sharp_rate(params, 1.0, 0.5, compact) == (-0.5, 0, 0)
    # outer, gamma > 1: t^{-sigma(p)}
    assert rate_at(params, 1.0, 2.0, outer, 100.0) == pytest.approx(100.0**-0.5)
    assert rate_at(params, 1.0, 1.0, outer, 100.0) == pytest.approx(
        100.0**-0.5 * math.log(100.0)
    )
    assert rate_at(params, 1.0, 0.25, outer, 100.0) == pytest.approx(100.0**0.25)


@given(
    p=st.one_of(st.floats(1.0, 50.0), st.just(math.inf)),
    alpha=st.floats(0.1, 0.95),
    beta=st.floats(0.3, 0.7),
)
def test_sigma_p_monotone_in_p(p, alpha, beta):
    params = FracParams(alpha, beta, 3)
    # sigma(p) increases with p toward sigma_*
    assert sigma_p(params, 1.0) <= sigma_p(params, p) + 1e-12
    assert sigma_p(params, p) <= params.sigma_star + 1e-12
