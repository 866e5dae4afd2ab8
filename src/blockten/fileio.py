"""File formats: Matrix Market matrices and plain-text vectors.

All writers go through a temp-file-then-rename so readers never observe a
half-written file.  Text float serialization uses ``repr``, which round-trips
IEEE doubles exactly.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from .errors import ContainerFormatError, ShapeError
from .reconstruct import _check_dense_size

__all__ = [
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
]


def _replace_into(path, write_fn) -> None:
    """Run ``write_fn(tmp_path)`` then atomically rename onto ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_matrix(path) -> np.ndarray:
    """Read a real Matrix Market file as a dense array.

    Symmetric/skew-symmetric storage is expanded to full; coordinate files
    are densified (guarded against enormous results).

    Raises:
        ContainerFormatError: Malformed header, complex/pattern fields, or
            a NaN or infinite entry.
        ShapeError: Matrix too large to densify.
    """
    try:
        rows, cols, _, _, field, _ = scipy.io.mminfo(path)
    except ValueError as exc:
        raise ContainerFormatError(f"malformed Matrix Market file: {exc}") from exc
    if field not in ("real", "integer", "unsigned-integer"):
        raise ContainerFormatError(f"unsupported Matrix Market field {field!r}")
    _check_dense_size(rows, cols)
    mat = scipy.io.mmread(path)
    # a finite sum of the stored values (far fewer than the dense entries
    # for a coordinate file) proves every entry finite without a mask; the
    # exact scan runs only when it is not (non-finite entries or overflow)
    with np.errstate(over="ignore"):
        finite = np.isfinite((mat.data if scipy.sparse.issparse(mat) else mat).sum())
    if scipy.sparse.issparse(mat):
        mat = mat.toarray()
    mat = np.asarray(mat, dtype=np.float64)
    if not finite:
        bad = np.argwhere(~np.isfinite(mat))
        if bad.size:
            i, j = bad[0]
            raise ContainerFormatError(
                f"{path}: non-finite entry {float(mat[i, j])!r} at row {i + 1}, column {j + 1}"
            )
    return mat


def write_matrix(path, a, sparse_threshold: float = 0.25) -> None:
    """Write a matrix to Matrix Market with exact value round-trip.

    Dense arrays denser than ``sparse_threshold`` go out in array format,
    sparser ones in coordinate format; scipy sparse inputs always use
    coordinate format.
    """
    if scipy.sparse.issparse(a):
        payload = a.tocoo()
    else:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeError("write_matrix expects a matrix")
        if a.size and np.count_nonzero(a) / a.size < sparse_threshold:
            payload = scipy.sparse.coo_matrix(a)
        else:
            payload = a

    def _write(tmp):
        with open(tmp, "wb") as fh:  # file object: scipy must not append .mtx
            scipy.io.mmwrite(fh, payload)

    _replace_into(path, _write)


def read_vector(path) -> np.ndarray:
    """Read a vector stored as one decimal literal per line."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("%"):
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise ContainerFormatError(
                    f"{path}:{lineno}: not a decimal literal: {text!r}"
                ) from exc
            if not np.isfinite(values[-1]):
                raise ContainerFormatError(f"{path}:{lineno}: non-finite value {text!r}")
    if not values:
        raise ContainerFormatError(f"{path}: no values")
    return np.array(values, dtype=np.float64)


def write_vector(path, x) -> None:
    x = np.asarray(x, dtype=np.float64).ravel()

    def _write(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(repr(float(v)) + "\n" for v in x)

    _replace_into(path, _write)
