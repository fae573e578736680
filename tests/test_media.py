import numpy as np
import pytest

from brinkman2d import (
    FieldFormatError,
    InvalidFieldError,
    PermeabilityField,
    build_grid,
    generate_contrast_field,
    load_field,
    normalize,
    write_field,
)


def test_normalize_uniform_field():
    k = np.full(9, 5.0)
    norm = normalize(PermeabilityField(k, k.copy()))
    assert np.all(norm.kstar_xx == 1.0)
    assert np.all(norm.kstar_yy == 1.0)
    assert norm.kmax == 5.0


def test_normalize_two_value_field():
    values = np.array([1.0, 1e5, 1.0, 1e5])
    field = PermeabilityField(values, values[::-1].copy())
    norm = normalize(field)
    assert set(norm.kstar_xx) == {1e-5, 1.0}
    assert set(norm.kstar_yy) == {1e-5, 1.0}
    assert norm.kmax == 1e5


def test_normalize_preserves_ratios():
    rng = np.random.default_rng(3)
    grid = build_grid(6, 5)
    field = PermeabilityField(rng.uniform(0.1, 9.0, grid.n_p), rng.uniform(0.5, 2.0, grid.n_p))
    norm = normalize(field)
    assert max(norm.kstar_xx.max(), norm.kstar_yy.max()) == 1.0
    ratio = norm.kstar_xx[3] / norm.kstar_xx[17]
    assert ratio == pytest.approx(field.kxx[3] / field.kxx[17], rel=1e-12)


def test_normalize_scale_equivariance():
    rng = np.random.default_rng(11)
    field = PermeabilityField(rng.uniform(1.0, 4.0, 12), rng.uniform(1.0, 4.0, 12))
    base = normalize(field)
    # power-of-two scaling is exact in binary floating point
    scaled = normalize(PermeabilityField(4.0 * field.kxx, 4.0 * field.kyy))
    assert np.array_equal(scaled.kstar_xx, base.kstar_xx)
    assert np.array_equal(scaled.kstar_yy, base.kstar_yy)
    assert scaled.kmax == 4.0 * base.kmax
    odd = normalize(PermeabilityField(3.7 * field.kxx, 3.7 * field.kyy))
    np.testing.assert_allclose(odd.kstar_xx, base.kstar_xx, rtol=1e-14)
    assert odd.kmax == pytest.approx(3.7 * base.kmax, rel=1e-15)


@pytest.mark.parametrize("pattern", ["layered", "checkerboard", "lognormal"])
def test_requested_contrast_attained_exactly(pattern):
    field = generate_contrast_field(build_grid(20, 20), 1e5, 1e5, pattern, 1)
    assert field.contrast_x == 1e5
    assert field.contrast_y == 1e5


def test_layered_is_banded():
    grid = build_grid(6, 4)
    field = generate_contrast_field(grid, 100.0, 50.0, "layered", 0)
    kxx = field.kxx.reshape(4, 6)
    kyy = field.kyy.reshape(4, 6)
    # kxx constant along rows, kyy along columns
    assert np.all(kxx == kxx[:, :1])
    assert np.all(kyy == kyy[:1, :])


@pytest.mark.parametrize("pattern", ["layered", "checkerboard", "lognormal"])
def test_contrast_one_forces_uniform(pattern):
    field = generate_contrast_field(build_grid(5, 4), 1.0, 1.0, pattern, 9)
    assert np.all(field.kxx == 1.0)
    assert np.all(field.kyy == 1.0)


def test_checkerboard_determinism():
    a = generate_contrast_field(build_grid(4, 4), 100.0, 10.0, "checkerboard", 7)
    b = generate_contrast_field(build_grid(4, 4), 100.0, 10.0, "checkerboard", 7)
    assert np.array_equal(a.kxx, b.kxx) and np.array_equal(a.kyy, b.kyy)


def test_lognormal_seeding():
    grid = build_grid(6, 6)
    a = generate_contrast_field(grid, 1e3, 1e3, "lognormal", 5)
    b = generate_contrast_field(grid, 1e3, 1e3, "lognormal", 5)
    c = generate_contrast_field(grid, 1e3, 1e3, "lognormal", 6)
    assert np.array_equal(a.kxx, b.kxx) and np.array_equal(a.kyy, b.kyy)
    assert not np.array_equal(a.kxx, c.kxx)
    assert a.contrast_x == 1e3


def test_generator_argument_errors():
    grid = build_grid(4, 4)
    with pytest.raises(ValueError):
        generate_contrast_field(grid, 0.5, 1.0, "layered", 0)
    with pytest.raises(ValueError):
        generate_contrast_field(grid, 10.0, 10.0, "swirl", 0)
    with pytest.raises(InvalidFieldError, match="grid too small"):
        # a single row cannot carry an x-contrast
        generate_contrast_field(build_grid(3, 1), 10.0, 1.0, "layered", 0)


def test_field_validation():
    with pytest.raises(InvalidFieldError):
        PermeabilityField(np.array([1.0, -2.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidFieldError):
        PermeabilityField(np.array([1.0, np.inf]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidFieldError):
        PermeabilityField(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0]))


def test_write_load_round_trip(tmp_path):
    grid = build_grid(5, 3)
    field = generate_contrast_field(grid, 123.0, 7.5, "lognormal", 2)
    path = tmp_path / "field.txt"
    write_field(path, grid, field)
    back = load_field(path, grid)
    assert np.array_equal(back.kxx, field.kxx)
    assert np.array_equal(back.kyy, field.kyy)


def test_load_reads_row_major(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("2 2\n1 5\n2 6\n3 7\n4 8\n")
    field = load_field(path, build_grid(2, 2))
    assert list(field.kxx) == [1.0, 2.0, 3.0, 4.0]
    assert list(field.kyy) == [5.0, 6.0, 7.0, 8.0]


def test_load_format_errors(tmp_path):
    grid = build_grid(2, 2)
    short = tmp_path / "short.txt"
    short.write_text("2 2\n1 1\n1 1\n1 1\n")
    with pytest.raises(FieldFormatError):
        load_field(short, grid)
    wrong_grid = tmp_path / "wrong.txt"
    wrong_grid.write_text("3 3\n" + "1 1\n" * 9)
    with pytest.raises(FieldFormatError):
        load_field(wrong_grid, grid)
    bad_line = tmp_path / "bad.txt"
    bad_line.write_text("2 2\n1 1\n1\n1 1\n1 1\n")
    with pytest.raises(FieldFormatError):
        load_field(bad_line, grid)
    negative = tmp_path / "neg.txt"
    negative.write_text("2 2\n1 1\n1 -1\n1 1\n1 1\n")
    with pytest.raises(InvalidFieldError):
        load_field(negative, grid)
