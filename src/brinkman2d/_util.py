"""Small shared helpers."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import scipy.sparse as sp


class NumericOverflowError(ValueError):
    """Finite inputs whose scale overflows double precision; the message
    names the quantity that did."""


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
