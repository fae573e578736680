"""Small shared helpers."""

from __future__ import annotations

import ctypes
import os
import tempfile

import numpy as np
import scipy.sparse as sp


class ConfigError(ValueError):
    """A config value refused where it is checked; ``key`` names its
    config entry (``solver.tol``, ``scales.mu``, ...)."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


class NumericOverflowError(ValueError):
    """Finite inputs whose scale overflows double precision; the message
    names the quantity that did."""


def read_utf8_text(path) -> str:
    """The file's text as UTF-8, without one leading byte-order mark.  It
    decodes as ``utf-8``, not ``utf-8-sig``, so the ``start`` of a
    ``UnicodeDecodeError`` is the file offset of the bad byte."""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().removeprefix("\ufeff")


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename, so readers never see a torn file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def release_freed_heap() -> None:
    """Hand the free pages of the malloc heap back to the OS (glibc's
    ``malloc_trim(0)``); a no-op where libc has no ``malloc_trim``.  Once
    glibc has freed one large block, later ones come from the heap, where a
    freed block stays resident under whatever the process allocates next."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def fix_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at 1 MiB (``mallopt(M_MMAP_THRESHOLD,
    1 MiB)``); a no-op where libc has no ``mallopt``.  glibc otherwise
    raises the threshold each time it frees a mapped block, so whether a
    later large block is mapped or comes from the heap depends on what the
    process freed before.  It changes the whole process's allocator, so
    only the CLI calls it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD


def checked_square_matrix(matrix):
    """``matrix`` as CSR when sparse, else as a float array, after checking
    that it is two-dimensional, square and free of NaN and inf."""
    if sp.issparse(matrix):
        A = matrix.tocsr()
        values = A.data
    else:
        A = values = np.asarray(matrix, dtype=float)
        if A.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.isfinite(values).all():
        raise ValueError("matrix has NaN or inf entries")
    return A
