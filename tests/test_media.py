import hashlib

import numpy as np
import pytest

from brinkman2d import (
    InvalidFieldError,
    PermeabilityField,
    build_grid,
    generate_contrast_field,
    load_field,
    normalize,
    write_field,
)
from brinkman2d._util import NumericOverflowError


def test_normalize_uniform_field():
    k = np.full(9, 5.0)
    norm = normalize(PermeabilityField(k, k.copy()))
    assert np.all(norm.kxx == 1.0)
    assert np.all(norm.kyy == 1.0)


def test_normalize_two_value_field():
    values = np.array([1.0, 1e5, 1.0, 1e5])
    field = PermeabilityField(values, values[::-1].copy())
    norm = normalize(field)
    assert set(norm.kxx) == {1e-5, 1.0}
    assert set(norm.kyy) == {1e-5, 1.0}


def test_normalize_preserves_ratios():
    rng = np.random.default_rng(3)
    grid = build_grid(6, 5)
    field = PermeabilityField(rng.uniform(0.1, 9.0, grid.n_p), rng.uniform(0.5, 2.0, grid.n_p))
    norm = normalize(field)
    assert type(norm) is PermeabilityField  # K* is validated when it is built
    assert max(norm.kxx.max(), norm.kyy.max()) == 1.0
    ratio = norm.kxx[3] / norm.kxx[17]
    assert ratio == pytest.approx(field.kxx[3] / field.kxx[17], rel=1e-12)


def test_normalize_scale_equivariance():
    rng = np.random.default_rng(11)
    field = PermeabilityField(rng.uniform(1.0, 4.0, 12), rng.uniform(1.0, 4.0, 12))
    base = normalize(field)
    # power-of-two scaling is exact in binary floating point
    scaled = normalize(PermeabilityField(4.0 * field.kxx, 4.0 * field.kyy))
    assert np.array_equal(scaled.kxx, base.kxx)
    assert np.array_equal(scaled.kyy, base.kyy)
    odd = normalize(PermeabilityField(3.7 * field.kxx, 3.7 * field.kyy))
    np.testing.assert_allclose(odd.kxx, base.kxx, rtol=1e-14)
    np.testing.assert_allclose(odd.kyy, base.kyy, rtol=1e-14)


@pytest.mark.parametrize("kxx, kyy, cells", [
    ([1e-300] * 4, [1e300] * 4, 4),
    ([1.0, 5e-324, 1.0, 1.0], [1.0, 1.0, 1.0, 1e300], 1),
    ([1e-300, 1.0, 1.0, 1.0], [1.0, 1.0, 1e-310, 1e300], 2),
], ids=["every-kxx", "smallest-subnormal", "one-kxx-one-kyy"])
def test_normalize_names_an_underflow_to_zero(kxx, kyy, cells):
    # positive finite entries whose K* = K / kmax rounds to 0.0; the field
    # check would refuse that 0 as if the file held it
    field = PermeabilityField(np.array(kxx), np.array(kyy))
    with pytest.raises(NumericOverflowError,
                       match=rf"^K\* = K / kmax underflows double precision on {cells} cells "
                             r"\(kmax = 1\.00000e\+300, "):
        normalize(field)


#: Grids, contrast pairs and seeds of the generator byte pins; the grids
#: include single rows and columns, where some contrasts cannot be realized.
FIELD_GRIDS = ((1, 1), (1, 4), (4, 1), (2, 2), (3, 5), (13, 7), (20, 20))
FIELD_CONTRASTS = ((1.0, 1.0), (1.0, 10.0), (10.0, 1.0), (1e5, 1e3), (123.0, 7.5))
FIELD_SEEDS = (0, 3, 11)

#: SHA-256 over every case's kxx and kyy bytes, or its error message, from
#: the per-pattern generators the single log-graded map replaced.
FIELD_DIGESTS = {
    "layered": "985f23754bb0e70b3867cc1a395dd5ab3b50bd5a0baa247fca4add0d83d0f338",
    "checkerboard": "fd048af94ad0ffeb75a7583c90afb3564c84bd2fdddfc5ce8ad10c95d1a0cdcb",
    "lognormal": "913c30998e33576b8098610c3c8de65809742b7d06fae8c902e71fde13692406",
}


@pytest.mark.parametrize("pattern", FIELD_DIGESTS)
def test_generated_field_bytes_pinned(pattern):
    h = hashlib.sha256()
    for nx, ny in FIELD_GRIDS:
        for contrast_x, contrast_y in FIELD_CONTRASTS:
            for seed in FIELD_SEEDS:
                try:
                    field = generate_contrast_field(
                        build_grid(nx, ny), contrast_x, contrast_y, pattern, seed)
                except InvalidFieldError as exc:
                    h.update(str(exc).encode())
                else:
                    h.update(field.kxx.tobytes())
                    h.update(field.kyy.tobytes())
    assert h.hexdigest() == FIELD_DIGESTS[pattern]


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
    with pytest.raises(InvalidFieldError, match="contrasts must be >= 1"):
        generate_contrast_field(grid, 0.5, 1.0, "layered", 0)
    with pytest.raises(InvalidFieldError, match="unknown pattern 'swirl'"):
        generate_contrast_field(grid, 10.0, 10.0, "swirl", 0)
    with pytest.raises(InvalidFieldError, match="grid too small"):
        # a single row cannot carry an x-contrast
        generate_contrast_field(build_grid(3, 1), 10.0, 1.0, "layered", 0)
    # a contrast of 1 needs neither end of the grading: all ones
    flat = generate_contrast_field(build_grid(3, 1), 1.0, 1.0, "layered", 0)
    assert np.array_equal(flat.kxx, np.ones(3)) and np.array_equal(flat.kyy, np.ones(3))


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


def test_load_reads_past_a_byte_order_mark(tmp_path):
    # some editors save UTF-8 text with a leading U+FEFF
    path = tmp_path / "field.txt"
    path.write_bytes(b"\xef\xbb\xbf2 2\n1 5\n2 6\n3 7\n4 8\n")
    field = load_field(path, build_grid(2, 2))
    assert list(field.kxx) == [1.0, 2.0, 3.0, 4.0]
    assert list(field.kyy) == [5.0, 6.0, 7.0, 8.0]


def test_load_format_errors(tmp_path):
    grid = build_grid(2, 2)
    short = tmp_path / "short.txt"
    short.write_text("2 2\n1 1\n1 1\n1 1\n")
    with pytest.raises(InvalidFieldError):
        load_field(short, grid)
    wrong_grid = tmp_path / "wrong.txt"
    wrong_grid.write_text("3 3\n" + "1 1\n" * 9)
    with pytest.raises(InvalidFieldError):
        load_field(wrong_grid, grid)
    bad_line = tmp_path / "bad.txt"
    bad_line.write_text("2 2\n1 1\n1\n1 1\n1 1\n")
    with pytest.raises(InvalidFieldError):
        load_field(bad_line, grid)
    negative = tmp_path / "neg.txt"
    negative.write_text("2 2\n1 1\n1 -1\n1 1\n1 1\n")
    with pytest.raises(InvalidFieldError):
        load_field(negative, grid)


@pytest.mark.parametrize("line, error", [
    ("x 1", "line 5 is not numeric: 'x 1'"),
    ("1", "line 5 must hold two numbers, got '1'"),
    ("1 -1", "line 5 must hold two positive finite numbers, got '1 -1'"),
    ("0 1", "line 5 must hold two positive finite numbers, got '0 1'"),
    ("nan 1", "line 5 must hold two positive finite numbers, got 'nan 1'"),
    ("1 inf", "line 5 must hold two positive finite numbers, got '1 inf'"),
], ids=["not-numeric", "two-numbers", "negative", "zero", "nan", "inf"])
def test_load_error_names_the_file_line(tmp_path, line, error):
    # a comment and a blank line above the header shift every data line
    path = tmp_path / "field.txt"
    path.write_text(f"# generated\n\n2 2\n1 1\n{line}\n1 1\n1 1\n")
    with pytest.raises(InvalidFieldError, match=f"field.txt: {error}$"):
        load_field(path, build_grid(2, 2))
