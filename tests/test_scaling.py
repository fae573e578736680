import numpy as np
import pytest

from brinkman2d import (
    Regime,
    ReferenceScales,
    build_grid,
    classify_regime,
    dimensionless_groups,
    nondimensionalize,
    redimensionalize,
)
from brinkman2d.scaling import check_da_values


def test_groups_unit_scales_small_permeability():
    groups = dimensionless_groups(ReferenceScales(1.0, 1.0, 1.0, 1.0, 1e-3))
    assert groups.darcy == 1e-3
    assert groups.anna == 1e-3
    assert groups.p_scale == 1e3


def test_anna_coincides_with_darcy_for_equal_viscosities():
    for k_max in (1e-8, 1e-3, 2.5, 1e4):
        groups = dimensionless_groups(ReferenceScales(2.0, 0.5, 3.0, 3.0, k_max))
        assert groups.viscosity_ratio == 1.0
        assert groups.anna == groups.darcy


def test_groups_hand_computed_point():
    # Da = 1 / 2^2 = 0.25; anna = (8/4) * 0.25 = 0.5; p = 2*3*4 / 1 = 24
    groups = dimensionless_groups(ReferenceScales(2.0, 3.0, 4.0, 8.0, 1.0))
    assert groups.darcy == 0.25
    assert groups.anna == 0.5
    assert groups.p_scale == 24.0


def test_length_scale_homogeneity():
    base = ReferenceScales(1.3, 0.7, 2.0, 5.0, 1e-2)
    g0 = dimensionless_groups(base)
    c = 3.0
    g1 = dimensionless_groups(ReferenceScales(c * 1.3, 0.7, 2.0, 5.0, 1e-2))
    assert g1.darcy == pytest.approx(g0.darcy / c**2, rel=1e-14)
    assert g1.anna == pytest.approx(g0.anna / c**2, rel=1e-14)
    assert g1.p_scale == pytest.approx(c * g0.p_scale, rel=1e-14)


def test_joint_viscosity_scaling():
    base = ReferenceScales(1.0, 2.0, 3.0, 7.0, 0.5)
    g0 = dimensionless_groups(base)
    c = 11.0
    g1 = dimensionless_groups(ReferenceScales(1.0, 2.0, c * 3.0, c * 7.0, 0.5))
    assert g1.anna == pytest.approx(g0.anna, rel=1e-15)
    assert g1.p_scale == pytest.approx(c * g0.p_scale, rel=1e-15)


def test_scales_must_be_positive_and_finite():
    with pytest.raises(ValueError):
        ReferenceScales(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ReferenceScales(1.0, 1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ReferenceScales(1.0, 1.0, 1.0, 1.0, float("nan"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_da_values_must_be_finite(bad):
    # comparisons with NaN are False, so only an explicit check rejects it
    with pytest.raises(ValueError, match="finite"):
        check_da_values((1.0, bad))
    with pytest.raises(ValueError, match="finite"):
        check_da_values((bad,))


def test_redimensionalize_constants():
    grid = build_grid(3, 2)
    scales = ReferenceScales(1.0, 2.5, 1.0, 1.0, 1.0)
    u, p = redimensionalize(grid, np.ones(grid.n_velocity), np.zeros(grid.n_p), scales)
    assert np.all(u == 2.5)
    assert np.all(p == 0.0)


def test_dimension_round_trip():
    grid = build_grid(4, 3)
    rng = np.random.default_rng(0)
    scales = ReferenceScales(0.3, 1.7, 2.0, 9.0, 4e-4)
    u_star = rng.standard_normal(grid.n_velocity)
    p_star = rng.standard_normal(grid.n_p)
    u, p = redimensionalize(grid, u_star, p_star, scales)
    u_back, p_back = nondimensionalize(grid, u, p, scales)
    np.testing.assert_allclose(u_back, u_star, rtol=1e-15)
    np.testing.assert_allclose(p_back, p_star, rtol=1e-15)


def test_redimensionalize_size_mismatch():
    grid = build_grid(3, 2)
    scales = ReferenceScales(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        redimensionalize(grid, np.ones(5), np.zeros(grid.n_p), scales)
    with pytest.raises(ValueError):
        redimensionalize(grid, np.ones(grid.n_velocity), np.zeros(2), scales)


def test_regime_classification():
    assert classify_regime(1e-5) is Regime.DARCY
    assert classify_regime(1.0) is Regime.BRINKMAN
    assert classify_regime(1e5) is Regime.STOKES


def test_regime_bounds_inclusive():
    assert classify_regime(np.nextafter(1e-2, 0.0)) is Regime.DARCY
    assert classify_regime(1e-2) is Regime.BRINKMAN
    assert classify_regime(1e2) is Regime.BRINKMAN
    assert classify_regime(np.nextafter(1e2, np.inf)) is Regime.STOKES


def test_regime_monotone_in_anna():
    order = [Regime.DARCY, Regime.BRINKMAN, Regime.STOKES]
    ranks = [order.index(classify_regime(a)) for a in np.logspace(-8, 8, 33)]
    assert ranks == sorted(ranks)

