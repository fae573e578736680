import ctypes
import os
import types

import numpy as np
import pytest

from brinkman2d import InvalidFieldError, build_grid, load_field, parse_config
from brinkman2d._util import atomic_write_text, checked_square_matrix, fix_mmap_threshold
from brinkman2d.config import ConfigError


def test_failed_write_removes_the_temp_file_and_keeps_the_target(tmp_path):
    target = tmp_path / "report.csv"
    target.write_text("before\n")
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate has no UTF-8 form
        atomic_write_text(target, "half\ud800written")
    assert sorted(os.listdir(tmp_path)) == ["report.csv"]  # no .tmp-*.part left
    assert target.read_text() == "before\n"


def test_failed_rename_removes_the_temp_file(tmp_path):
    target = tmp_path / "report.csv"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        atomic_write_text(target, "whole")
    assert sorted(os.listdir(tmp_path)) == ["report.csv"]
    assert target.is_dir() and not any(target.iterdir())


@pytest.mark.parametrize("matrix", [np.ones(4), np.ones((2, 2, 2)), np.float64(1.0)],
                         ids=["1-d", "3-d", "0-d"])
def test_checked_square_matrix_refuses_a_dense_array_that_is_not_2d(matrix):
    with pytest.raises(ValueError, match="^matrix must be two-dimensional$"):
        checked_square_matrix(matrix)


@pytest.mark.parametrize("read, error", [
    (parse_config, ConfigError),
    (lambda path: load_field(path, build_grid(2, 2)), InvalidFieldError),
], ids=["config", "field"])
def test_not_utf8_refusal_counts_bytes_from_the_start_of_the_file(tmp_path, read, error):
    # the bad byte follows a byte-order mark, which the offset still counts
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf2 2\n1 \xe9\n")
    with pytest.raises(error, match=r"not UTF-8 text \(invalid continuation byte at byte 9\)$"):
        read(path)


class TestFixMmapThreshold:
    def test_sets_a_1_mib_threshold(self, monkeypatch):
        calls = []
        libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert fix_mmap_threshold() is None
        assert calls == [(-3, 1 << 20)]  # M_MMAP_THRESHOLD
        assert libc.mallopt.argtypes == [ctypes.c_int, ctypes.c_int]

    def test_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert fix_mmap_threshold() is None

    def test_no_op_when_libc_cannot_be_loaded(self, monkeypatch):
        def fail(name):
            raise OSError("no libc")

        monkeypatch.setattr(ctypes, "CDLL", fail)
        assert fix_mmap_threshold() is None
