import math

import numpy as np
import pytest

from brinkman2d import ConfigError, ReferenceScales, classify_regime
from brinkman2d.scaling import check_da_values


def test_groups_unit_scales_small_permeability():
    scales = ReferenceScales(1.0, 1.0, 1.0, 1e-3)
    assert scales.darcy == 1e-3
    assert scales.anna == 1e-3


def test_anna_coincides_with_darcy_for_equal_viscosities():
    for k_max in (1e-8, 1e-3, 2.5, 1e4):
        scales = ReferenceScales(2.0, 3.0, 3.0, k_max)
        assert scales.viscosity_ratio == 1.0
        assert scales.anna == scales.darcy


def test_groups_hand_computed_point():
    # Da = 1 / 2^2 = 0.25; anna = (8/4) * 0.25 = 0.5
    scales = ReferenceScales(2.0, 4.0, 8.0, 1.0)
    assert scales.darcy == 0.25
    assert scales.viscosity_ratio == 2.0
    assert scales.anna == 0.5


def test_length_scale_homogeneity():
    s0 = ReferenceScales(1.3, 2.0, 5.0, 1e-2)
    c = 3.0
    s1 = ReferenceScales(c * 1.3, 2.0, 5.0, 1e-2)
    assert s1.darcy == pytest.approx(s0.darcy / c**2, rel=1e-14)
    assert s1.anna == pytest.approx(s0.anna / c**2, rel=1e-14)


def test_joint_viscosity_scaling():
    s0 = ReferenceScales(1.0, 3.0, 7.0, 0.5)
    c = 11.0
    s1 = ReferenceScales(1.0, c * 3.0, c * 7.0, 0.5)
    assert s1.anna == pytest.approx(s0.anna, rel=1e-15)


def test_scales_must_be_positive_and_finite():
    with pytest.raises(ValueError):
        ReferenceScales(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ReferenceScales(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ReferenceScales(1.0, 1.0, 1.0, float("nan"))


@pytest.mark.parametrize("scales, name", [
    ((1e5, 1.0, 1.0, 1e-320), "Da"),           # k_max / l_ref**2 underflows
    ((1e200, 1.0, 1.0, 1.0), "Da"),            # l_ref**2 overflows
    ((1.0, 1e-10, 1e300, 1.0), "mu_eff/mu"),   # the ratio overflows
    ((1.0, 1e300, 1e-30, 1.0), "mu_eff/mu"),   # the ratio underflows
    ((1e-150, 1.0, 1e10, 1.0), "anna"),        # Da is finite, anna is not
    ((1e150, 1.0, 1e-30, 1.0), "anna"),        # Da is positive, anna is not
    ((1e-200, 1.0, 1.0, 1.0), "Da"),           # l_ref**2 underflows, so Da overflows
])
def test_numbers_out_of_double_range_rejected(scales, name):
    with pytest.raises(ValueError,
                       match=f"^config key 'scales.l_ref': {name} = .* under- or overflows"):
        ReferenceScales(*scales)


def python_float_anna(l_ref, mu, mu_eff, k_max):
    """``(mu_eff / mu) * (k_max / l_ref**2)`` in Python float arithmetic, or
    None where a step raises or Da, mu_eff/mu or anna is 0 or inf."""
    try:
        da = k_max / l_ref**2
    except (OverflowError, ZeroDivisionError):  # l_ref**2 overflows or underflows
        return None
    ratio = mu_eff / mu
    anna = ratio * da
    return anna if all(0.0 < v < math.inf for v in (da, ratio, anna)) else None


def test_scales_over_the_whole_double_range_never_raise_but_config_error():
    # 10^5 draws of four positive finite doubles, uniform in their bit
    # patterns, so every binade from the smallest subnormal up is drawn
    rng = np.random.default_rng(20240619)
    top = np.float64(np.finfo(float).max).view(np.uint64)
    draws = rng.integers(1, top, size=(100_000, 4), dtype=np.uint64, endpoint=True)
    refused, wrong = 0, []
    for scales in draws.view(np.float64).tolist():
        # a positive finite anna, whose == is equality of bits, or the key
        expected = python_float_anna(*scales) or "scales.l_ref"
        try:  # not pytest.raises, which would double the time of this loop
            got = ReferenceScales(*scales).anna
        except ConfigError as exc:
            got = exc.key
        if got != expected:
            wrong.append((scales, got))
        refused += got == "scales.l_ref"
    assert wrong == []
    assert 10_000 < refused < 90_000  # both outcomes are drawn often


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_da_values_must_be_finite(bad):
    # comparisons with NaN are False, so only an explicit check rejects it
    with pytest.raises(ValueError, match="finite"):
        check_da_values((1.0, bad))
    with pytest.raises(ValueError, match="finite"):
        check_da_values((bad,))


def test_regime_classification():
    assert classify_regime(1e-5) == "darcy"
    assert classify_regime(1.0) == "brinkman"
    assert classify_regime(1e5) == "stokes"


def test_regime_bounds_inclusive():
    assert classify_regime(np.nextafter(1e-2, 0.0)) == "darcy"
    assert classify_regime(1e-2) == "brinkman"
    assert classify_regime(1e2) == "brinkman"
    assert classify_regime(np.nextafter(1e2, np.inf)) == "stokes"


def test_regime_monotone_in_anna():
    order = ["darcy", "brinkman", "stokes"]
    ranks = [order.index(classify_regime(a)) for a in np.logspace(-8, 8, 33)]
    assert ranks == sorted(ranks)

