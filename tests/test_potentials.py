import math

import numpy as np
import pytest
from scipy.special import erf

from fracasym.potentials import (
    PotentialError,
    _ghat_from_samples,
    potential_deviation,
    riesz_constant,
    riesz_potential,
    riesz_tail_check,
)
from fracasym.radialtransform import (
    RadialFunction,
    RadialGrid,
    TransformError,
    lp_norm_annulus,
)
from fracasym.solver import ForcingSpec


def _gaussian(grid):
    return RadialFunction(grid, np.exp(-grid.nodes**2))


def _gaussian_hat_n3(r):
    return math.pi**1.5 * np.exp(-np.asarray(r, dtype=float) ** 2 / 4.0)


def test_constants():
    assert riesz_constant(2.0, 3) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    assert riesz_constant(1.0, 3) == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-14)
    assert riesz_constant(2.0, 5) == pytest.approx(1.0 / (8.0 * math.pi**2), rel=1e-14)
    assert riesz_constant(4.0, 5) == pytest.approx(1.0 / (16.0 * math.pi**2), rel=1e-14)
    with pytest.raises(PotentialError):
        riesz_constant(3.0, 3)
    with pytest.raises(PotentialError):
        riesz_constant(-1.0, 3)


def test_newtonian_potential_of_gaussian():
    # I_2[e^{-rho^2}] in N = 3 equals pi^{3/2} erf(rho)/rho in this
    # normalization (I_mu = g * E_mu); at rho = 1 that is ~4.69254
    grid = RadialGrid(1e-2, 50.0, 512)
    g = _gaussian(grid)
    pot = riesz_potential(g, 2.0, 3, grid=grid, ghat=_gaussian_hat_n3)
    rho = np.geomspace(0.1, 50.0, 80)
    ref = math.pi**1.5 * erf(rho) / rho
    assert np.max(np.abs(pot(rho) - ref) / ref) < 1e-5
    assert float(pot(1.0)) == pytest.approx(math.pi**1.5 * erf(1.0), rel=1e-5)


def test_potential_without_closed_form_transform():
    # numeric forward transform route must agree with the closed-form route
    grid = RadialGrid(1e-2, 50.0, 512)
    g = _gaussian(grid)
    pot = riesz_potential(g, 2.0, 3, grid=grid)
    rho = np.geomspace(0.2, 20.0, 40)
    ref = math.pi**1.5 * erf(rho) / rho
    assert np.max(np.abs(pot(rho) - ref) / ref) < 1e-5


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_potential_scaling(lam):
    # I_mu[g(lam .)](rho) = lam^{-mu} I_mu[g](lam rho)
    mu = 1.0
    grid = RadialGrid(1e-2, 50.0, 512)
    g = _gaussian(grid)
    pot = riesz_potential(g, mu, 3, grid=grid, ghat=_gaussian_hat_n3)
    g_scaled = RadialFunction(grid, np.exp(-((lam * grid.nodes) ** 2)))
    ghat_scaled = lambda r: lam**-3.0 * _gaussian_hat_n3(np.asarray(r) / lam)
    pot_scaled = riesz_potential(g_scaled, mu, 3, grid=grid, ghat=ghat_scaled)
    rho = np.geomspace(0.1, 10.0, 30)
    assert np.max(
        np.abs(pot_scaled(rho) - lam**-mu * pot(lam * rho))
        / np.abs(pot(lam * rho))
    ) < 1e-6


def test_inversion_round_trip():
    # forward transform of the deviation I_mu[g] - M E_mu times c_mu r^mu
    # recovers g-hat(r) - M (the full potential itself has a rho^{mu-N} tail
    # and no absolutely convergent forward transform)
    from fracasym.radialtransform import radial_fourier_forward

    mu, dim = 2.0, 3
    grid = RadialGrid(1e-3, 1e3, 640)
    g = _gaussian(grid)
    dev, mass = potential_deviation(g, mu, dim, grid=grid, ghat=_gaussian_hat_n3)
    # drop far-field quadrature residue so the tail is genuinely decaying
    cleaned = dev.samples.copy()
    cleaned[np.abs(cleaned) < 1e-15 * np.max(np.abs(cleaned))] = 0.0
    dev = RadialFunction(grid, cleaned)
    fwd = radial_fourier_forward(dev, dim)
    r = np.geomspace(0.05, 4.0, 25)
    got = riesz_constant(mu, dim) * fwd(r) * r**mu + mass
    ref = _gaussian_hat_n3(r)
    assert np.max(np.abs(got - ref) / ref[0]) < 1e-6


def test_deviation_mass_cross_check():
    grid = RadialGrid(1e-2, 1e3, 512)
    g = _gaussian(grid)
    dev, mass = potential_deviation(g, 2.0, 3, grid=grid, ghat=_gaussian_hat_n3)
    assert mass == pytest.approx(math.pi**1.5, rel=1e-12)
    # a wrong closed-form transform (inconsistent mass) must be rejected
    with pytest.raises(PotentialError):
        potential_deviation(
            g, 2.0, 3, grid=grid, ghat=lambda r: 1.01 * _gaussian_hat_n3(r)
        )


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_tail_check_gaussian(p):
    grid = RadialGrid(1e-2, 50.0, 512)
    g = _gaussian(grid)
    rep = riesz_tail_check(
        g, 2.0, 3, p, nu=1.0, mu_outer=2.0,
        R_list=[4.0, 40.0, 400.0], ghat=_gaussian_hat_n3,
    )
    assert rep.verdict == "pass"
    assert rep.normalized_errors[-1] < 1e-6
    # the Gaussian deviation decays super-algebraically: beyond the first
    # checkpoint it is below the information floor and clamps to zero
    assert rep.normalized_errors[1:] == [0.0, 0.0]


def test_tail_check_heavy_tail():
    # g = (1+rho^2)^{-2} in N = 3 has mass pi^2 and a rho^{-4} tail, so the
    # normalized deviation decays like R^{-1}: slower than the Gaussian but
    # still strictly decreasing
    grid = RadialGrid(1e-2, 1e3, 640)
    g = RadialFunction(grid, (1.0 + grid.nodes**2) ** -2.0)
    ghat = lambda r: math.pi**2 * np.exp(-np.asarray(r, dtype=float))
    rep = riesz_tail_check(
        g, 2.0, 3, 1.0, nu=1.0, mu_outer=2.0,
        R_list=[1e2, 1e3, 1e4], ghat=ghat, tolerance=1e-2,
    )
    assert rep.verdict == "pass"
    ratios = [
        rep.normalized_errors[i + 1] / rep.normalized_errors[i] for i in range(2)
    ]
    # each decade in R loses about one decade of error
    for r in ratios:
        assert 0.05 < r < 0.2


def test_tail_check_zero_input():
    grid = RadialGrid(1e-2, 10.0, 128)
    z = RadialFunction(grid, np.zeros(grid.points))
    rep = riesz_tail_check(z, 2.0, 3, 1.0, nu=1.0, mu_outer=2.0, R_list=[10.0, 100.0])
    assert rep.verdict == "pass"
    assert rep.normalized_errors == [0.0, 0.0]


def test_tail_check_bad_annulus():
    grid = RadialGrid(1e-2, 10.0, 128)
    g = _gaussian(grid)
    with pytest.raises(PotentialError):
        riesz_tail_check(g, 2.0, 3, 1.0, nu=2.0, mu_outer=1.0, R_list=[10.0])


@pytest.mark.parametrize("p", [0.5, 0.0, -math.inf, math.nan])
def test_tail_check_rejects_p_before_transforming(p):
    grid = RadialGrid(1e-2, 10.0, 128)
    g = _gaussian(grid)
    _ghat_from_samples.cache_clear()
    with pytest.raises(PotentialError):
        riesz_tail_check(g, 2.0, 3, p, nu=1.0, mu_outer=2.0, R_list=[10.0])
    assert _ghat_from_samples.cache_info().misses == 0


@pytest.mark.parametrize(
    "zero, R_list",
    [
        (True, []),  # no checkpoint at all: nothing was checked
        (False, []),  # once a raw ValueError from max() of an empty list
        (False, [40.0]),  # one radius: "strictly decreasing" holds vacuously
        (False, [40.0, 4.0]),
        (False, [4.0, 4.0]),
        (False, [0.0, 4.0]),
        (False, [4.0, math.inf]),
        (False, [4.0, math.nan]),
    ],
)
def test_tail_check_rejects_radii_before_transforming(zero, R_list):
    grid = RadialGrid(1e-2, 10.0, 128)
    g = RadialFunction(grid, np.zeros(grid.points)) if zero else _gaussian(grid)
    _ghat_from_samples.cache_clear()
    with pytest.raises(PotentialError, match="radii"):
        riesz_tail_check(g, 2.0, 3, 1.0, nu=1.0, mu_outer=2.0, R_list=R_list)
    assert _ghat_from_samples.cache_info().misses == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: riesz_potential(None, 1.0, 3),
        lambda: potential_deviation(None, 1.0, 3),
        lambda: riesz_tail_check(
            None, 1.0, 3, 1.0, nu=1.0, mu_outer=2.0, R_list=[10.0, 100.0]
        ),
    ],
    ids=["riesz_potential", "potential_deviation", "riesz_tail_check"],
)
def test_needs_g_or_ghat(call):
    with pytest.raises(PotentialError):
        call()


@pytest.mark.parametrize("fn", [riesz_potential, potential_deviation])
def test_failed_transform_raises_transform_error(fn):
    # one failure, one error type: a NaN g-hat fails the engine's finiteness
    # check, and neither function re-raises that as a PotentialError
    nan_hat = lambda r: np.full(np.shape(r), np.nan)
    with pytest.raises(TransformError, match="symbol produced non-finite"):
        fn(None, 2.0, 3, grid=RadialGrid(1e-2, 50.0, 128), ghat=nan_hat)


# the sampled forcing profiles and grids of the benchmark's potentials workload
_FAMILY_GRIDS = {
    "gaussian": (1e-2, 50.0, 512),
    "bump": (1e-2, 50.0, 512),
    "heavy": (1e-2, 1e3, 640),
}


def _sampled(family):
    grid = RadialGrid(*_FAMILY_GRIDS[family])
    return RadialFunction(grid, ForcingSpec(family, gamma=2.0).g(grid.nodes))


def _tail_report(g, R_list):
    rep = riesz_tail_check(g, 2.0, 3, 2.0, nu=1.0, mu_outer=2.0, R_list=R_list)
    return {k: v for k, v in rep.to_dict().items() if k != "runtime_seconds"}


@pytest.mark.parametrize("family", sorted(_FAMILY_GRIDS))
def test_ghat_memo_cold_and_warm_bit_identical(family):
    R_list = [1e2, 1e3, 1e4] if family == "heavy" else [4.0, 40.0, 400.0]
    _ghat_from_samples.cache_clear()
    cold_pot = riesz_potential(_sampled(family), 1.0, 3).samples
    _ghat_from_samples.cache_clear()
    cold_tail = _tail_report(_sampled(family), R_list)
    warm_pot = riesz_potential(_sampled(family), 1.0, 3).samples
    warm_tail = _tail_report(_sampled(family), R_list)
    info = _ghat_from_samples.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert np.array_equal(warm_pot, cold_pot)
    assert warm_tail == cold_tail


def test_ghat_memo_key_is_exact_content():
    # the bound documented in the potentials module
    assert _ghat_from_samples.cache_info().maxsize == 8
    g = _sampled("gaussian")
    _ghat_from_samples.cache_clear()
    pot = riesz_potential(g, 1.0, 3).samples
    # equal samples on an equal (not the same) grid: a hit
    twin = RadialFunction(RadialGrid(*_FAMILY_GRIDS["gaussian"]), g.samples.copy())
    assert np.array_equal(riesz_potential(twin, 1.0, 3).samples, pot)
    assert _ghat_from_samples.cache_info()[:2] == (1, 1)
    # one sample one ulp away, another N, and another profile on the same
    # grid: each a miss
    nudged = g.samples.copy()
    nudged[100] = np.nextafter(nudged[100], 2.0)
    riesz_potential(RadialFunction(g.grid, nudged), 1.0, 3)
    riesz_potential(g, 1.0, 5)
    bump = _sampled("bump")
    pot_bump = riesz_potential(bump, 1.0, 3).samples
    assert _ghat_from_samples.cache_info()[:2] == (1, 4)
    # and the bump's potential is its own (the sampled kink costs ~1%)
    ref = riesz_potential(bump, 1.0, 3, ghat=ForcingSpec("bump", gamma=2.0).ghat)
    assert np.max(np.abs(pot_bump / ref.samples - 1.0)) < 0.05


def test_potential_locally_integrable():
    # I_mu[g] ~ rho^{mu-N} near 0 stays L^1 with the radial weight
    grid = RadialGrid(1e-3, 50.0, 512)
    g = _gaussian(grid)
    pot = riesz_potential(g, 1.0, 3, grid=grid, ghat=_gaussian_hat_n3)
    val = lp_norm_annulus(pot, 1.0, 3, grid.rho_min, 1.0)
    assert math.isfinite(val) and val > 0
