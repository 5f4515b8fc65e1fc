import math

import numpy as np
import pytest
from scipy.special import erf

from fracasym import potentials, radialtransform
from fracasym.potentials import (
    PotentialError,
    _deviation_from_samples,
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
from fracasym.spline import UniformSpline


def _gaussian(grid):
    return RadialFunction(grid, np.exp(-grid.nodes**2))


def _clear_memos():
    _ghat_from_samples.cache_clear()
    _deviation_from_samples.cache_clear()


def _misses():
    """(g-hat misses, deviation misses) since the memos were cleared."""
    return _ghat_from_samples.cache_info().misses, _deviation_from_samples.cache_info().misses


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


@pytest.mark.parametrize("family", ["gaussian", "bump", "heavy"])
def test_closed_form_mass_is_ghat_at_zero(family):
    # the mass subtracted from a closed-form g-hat is g-hat(0), the forcing's
    # own mass_g, to the bit; read at r = 1e-12, the heavy family's was
    # 1.0e-12 low, which left a 1e-12 M r^{-mu} residue in the symbol
    fs = ForcingSpec(family, gamma=2.0, dim=3)
    _, mass = potential_deviation(None, 2.0, 3, RadialGrid(1e-2, 50.0, 128), ghat=fs.ghat)
    assert mass == fs.mass_g


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
    # the report records the grid the check builds, out to 2 mu_outer R
    assert rep.to_dict()["grid"] == {"rho_min": 1e-2, "rho_max": 4e4, "points": 768}
    ratios = [
        rep.normalized_errors[i + 1] / rep.normalized_errors[i] for i in range(2)
    ]
    # each decade in R loses about one decade of error
    for r in ratios:
        assert 0.05 < r < 0.2


def test_tail_check_zero_input(monkeypatch):
    # g = 0 has no mass and no tail statement: refused before any transform
    def no_transform(*args, **kwargs):
        raise AssertionError("transform run before the precondition")

    monkeypatch.setattr(potentials, "radial_fourier_forward", no_transform)
    monkeypatch.setattr(potentials, "radial_fourier_inverse", no_transform)
    grid = RadialGrid(1e-2, 10.0, 128)
    z = RadialFunction(grid, np.zeros(grid.points))
    with pytest.raises(PotentialError, match="vacuous"):
        riesz_tail_check(z, 2.0, 3, 1.0, nu=1.0, mu_outer=2.0, R_list=[10.0, 100.0])


def test_tail_check_refuses_a_zero_closed_form_ghat():
    # a closed-form ghat of g = 0 gives mass 0 and a deviation that is
    # identically zero, which read "pass" with errors [0, 0]; a zero-mass g
    # that is not zero keeps its check
    with pytest.raises(PotentialError, match="vacuous"):
        riesz_tail_check(None, 2.0, 3, 1.0, nu=1.0, mu_outer=2.0, R_list=[10.0, 100.0],
                         ghat=lambda r: np.zeros(np.shape(r)))
    rep = riesz_tail_check(None, 2.0, 3, 1.0, nu=1.0, mu_outer=2.0, R_list=[10.0, 100.0],
                           ghat=lambda r: r**2 * np.exp(-(r**2)))
    assert rep.params["mass"] == 0.0 and any(rep.raw_errors)


def test_tail_check_bad_annulus():
    grid = RadialGrid(1e-2, 10.0, 128)
    g = _gaussian(grid)
    with pytest.raises(PotentialError):
        riesz_tail_check(g, 2.0, 3, 1.0, nu=2.0, mu_outer=1.0, R_list=[10.0])


@pytest.mark.parametrize("p", [0.5, 0.0, -math.inf, math.nan])
def test_tail_check_rejects_p_before_transforming(p):
    grid = RadialGrid(1e-2, 10.0, 128)
    g = _gaussian(grid)
    _clear_memos()
    with pytest.raises(PotentialError):
        riesz_tail_check(g, 2.0, 3, p, nu=1.0, mu_outer=2.0, R_list=[10.0])
    assert _misses() == (0, 0)


@pytest.mark.parametrize("bad", [
    {"tolerance": math.nan}, {"tolerance": -1.0}, {"tolerance": 0.0},
    {"tolerance": math.inf}, {"mu_outer": math.inf},
])
def test_tail_check_rejects_bad_tolerance_or_mu_outer_before_transforming(bad):
    # criterion 15's g and radii: a NaN or non-positive tolerance failed every
    # series, an infinite one passed every decreasing one, and an infinite
    # mu_outer raised TransformError about a grid the caller never gave
    grid = RadialGrid(1e-2, 200.0, 640)
    kw = {"nu": 1.0, "mu_outer": 2.0, "R_list": [5.0, 10.0, 20.0], **bad}
    _clear_memos()
    with pytest.raises(PotentialError):
        riesz_tail_check(_gaussian(grid), 2.0, 3, 1.0, **kw)
    assert _misses() == (0, 0)


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
    _clear_memos()
    with pytest.raises(PotentialError, match="radii"):
        riesz_tail_check(g, 2.0, 3, 1.0, nu=1.0, mu_outer=2.0, R_list=R_list)
    assert _misses() == (0, 0)


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


def _tail_report(g, R_list, p=2.0):
    rep = riesz_tail_check(g, 2.0, 3, p, nu=1.0, mu_outer=2.0, R_list=R_list)
    return {k: v for k, v in rep.to_dict().items() if k != "runtime_seconds"}


@pytest.mark.parametrize("family", sorted(_FAMILY_GRIDS))
def test_ghat_memo_cold_and_warm_bit_identical(family):
    R_list = [1e2, 1e3, 1e4] if family == "heavy" else [4.0, 40.0, 400.0]
    _clear_memos()
    cold_pot = riesz_potential(_sampled(family), 1.0, 3).samples
    _clear_memos()
    cold_tail = _tail_report(_sampled(family), R_list)
    # a deviation miss on a warm g-hat, then a deviation hit
    warm_pot = riesz_potential(_sampled(family), 1.0, 3).samples
    warm_tail = _tail_report(_sampled(family), R_list)
    info = _ghat_from_samples.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    info = _deviation_from_samples.cache_info()
    assert (info.misses, info.hits) == (2, 1)
    assert np.array_equal(warm_pot, cold_pot)
    assert warm_tail == cold_tail


def test_ghat_memo_key_is_exact_content():
    # the bound documented in the potentials module
    assert _ghat_from_samples.cache_info().maxsize == 8
    g = _sampled("gaussian")
    _clear_memos()
    pot = riesz_potential(g, 1.0, 3).samples
    # equal samples on an equal (not the same) grid: a hit, here of the
    # deviation memo, and of the g-hat memo at another mu
    twin = RadialFunction(RadialGrid(*_FAMILY_GRIDS["gaussian"]), g.samples.copy())
    assert np.array_equal(riesz_potential(twin, 1.0, 3).samples, pot)
    riesz_potential(twin, 2.0, 3)
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
    assert _deviation_from_samples.cache_info()[:2] == (1, 5)
    # and the bump's potential is its own (the sampled kink costs ~1%)
    ref = riesz_potential(bump, 1.0, 3, ghat=ForcingSpec("bump", gamma=2.0).ghat)
    assert np.max(np.abs(pot_bump / ref.samples - 1.0)) < 0.05


def test_deviation_memo_key_is_exact_content():
    # the bound documented in the potentials module
    assert _deviation_from_samples.cache_info().maxsize == 8
    g = _sampled("gaussian")
    _clear_memos()
    pot = riesz_potential(g, 1.0, 3)
    # equal samples on an equal grid, to an equal output grid: a hit, which
    # hands back the entry itself (its samples are read-only)
    twin = RadialFunction(RadialGrid(*_FAMILY_GRIDS["gaussian"]), g.samples.copy())
    assert riesz_potential(twin, 1.0, 3, RadialGrid(*_FAMILY_GRIDS["gaussian"])) is pot
    assert _deviation_from_samples.cache_info()[:2] == (1, 1)
    # one sample one ulp away, another N, another mu, another output grid,
    # and the same (g, mu, grid) with the mass subtracted: each a miss
    nudged = g.samples.copy()
    nudged[100] = np.nextafter(nudged[100], 2.0)
    small = RadialGrid(1e-2, 50.0, 128)
    riesz_potential(RadialFunction(g.grid, nudged), 1.0, 3)
    riesz_potential(g, 1.0, 5)
    riesz_potential(g, 1.5, 3)
    riesz_potential(g, 1.0, 3, small)
    potential_deviation(g, 1.0, 3)
    assert _deviation_from_samples.cache_info()[:2] == (1, 6)
    # at most 8 entries
    for mu in np.linspace(0.25, 2.75, 9):
        riesz_potential(g, float(mu), 3, small)
    assert _deviation_from_samples.cache_info().currsize == 8


def test_tail_check_inverts_once_for_every_p(monkeypatch):
    # the tail check at p = 1, 2 and inf reads one deviation: one forward and
    # one inverse transform in all, and the reports of three cold checks
    g, R_list, ps = _sampled("gaussian"), [4.0, 40.0, 400.0], (1.0, 2.0, math.inf)
    cold = []
    for p in ps:
        _clear_memos()
        cold.append(_tail_report(g, R_list, p))
    _clear_memos()
    signs = []
    transform = radialtransform._HankelEngine.transform

    def counting(self, symbol, at, sign):
        signs.append(sign)
        return transform(self, symbol, at, sign)

    monkeypatch.setattr(radialtransform._HankelEngine, "transform", counting)
    integrals, integrate = [], potentials.radial_integral
    monkeypatch.setattr(potentials, "radial_integral",
                        lambda *args: integrals.append(args) or integrate(*args))
    warm, integrated = [], []
    for p in ps:
        warm.append(_tail_report(g, R_list, p))
        integrated.append(len(integrals))
    # the forward transform evaluates g-hat at 900 nodes in one call
    assert sorted(signs) == [-1, 1]
    # g's mass is integrated on the miss alone: a warm call integrates nothing
    assert integrated == [1, 1, 1]
    assert warm == cold


def test_riesz_potential_builds_splines_only_where_read(monkeypatch):
    # a memo miss builds one interpolant: the sampled g's, which the forward
    # transform reads; the inverse transform's output and the potential
    # build none until they are read, and a hit builds none
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs.get("k"))
        return UniformSpline(*args, **kwargs)

    monkeypatch.setattr(radialtransform, "UniformSpline", counting)
    g = _sampled("gaussian")
    _clear_memos()
    pot = riesz_potential(g, 1.0, 3)
    assert built == [5]
    assert riesz_potential(g, 1.0, 3) is pot
    riesz_potential(g, 2.0, 3)  # a deviation miss on a warm g-hat
    assert built == [5]
    pot(1.0)
    assert built == [5, 5]


def test_potential_locally_integrable():
    # I_mu[g] ~ rho^{mu-N} near 0 stays L^1 with the radial weight
    grid = RadialGrid(1e-3, 50.0, 512)
    g = _gaussian(grid)
    pot = riesz_potential(g, 1.0, 3, grid=grid, ghat=_gaussian_hat_n3)
    val = lp_norm_annulus(pot, 1.0, 3, grid.rho_min, 1.0)
    assert math.isfinite(val) and val > 0
