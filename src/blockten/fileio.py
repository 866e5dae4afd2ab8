"""File formats: Matrix Market matrices and plain-text vectors.

All writers go through a temp-file-then-rename so readers never observe a
half-written file.  Text float serialization uses ``repr``, which round-trips
IEEE doubles exactly.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from .blocks import _check_dense_size
from .errors import ContainerFormatError, ShapeError

__all__ = [
    "SparseMatrix",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
]

_SPARSE_THRESHOLD = 0.25  # write_matrix stores sparser dense arrays as coordinates


def _replace_into(path, write_fn) -> None:
    """Run ``write_fn(tmp_path)`` then atomically rename onto ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class SparseMatrix(scipy.sparse.csr_matrix):
    """The CSR matrix :func:`read_matrix` returns for a coordinate file.

    numpy converts it to its dense value (``np.asarray``, ``np.array_equal``),
    refused above ``DENSIFY_LIMIT`` entries; the package itself reads it
    only through its stored entries.
    """

    def __array__(self, dtype=None, copy=None):
        _check_dense_size(*self.shape)
        dense = self.toarray()
        return dense if dtype is None else dense.astype(dtype, copy=False)


def read_matrix(path):
    """Read a real Matrix Market file.

    An array file gives a dense ``float64`` array (guarded against enormous
    results).  A coordinate file gives a :class:`SparseMatrix` in canonical
    CSR form (sorted entries, duplicates summed) at any size; every map in
    the package reads it through its nonzero cells.  Symmetric and
    skew-symmetric storage is expanded to full.

    Raises:
        ContainerFormatError: Malformed header or body (surplus tokens on a line, a byte no
            number holds glued to a value, a fraction or an exponent in an integer file),
            complex/pattern fields, a NaN or an inf.
        ShapeError: Array file too large to hold densely.
    """
    import bz2, gzip, io  # deferred: gzip is slow to import
    unzip = {".gz": gzip.decompress, ".bz2": bz2.decompress}.get(Path(path).suffix, bytes)
    data = unzip(Path(path).read_bytes()) + b"\n"  # scipy crashes on a last line without one
    def parse(read):  # scipy raises ValueError, OverflowError for an index beyond int64
        try:
            return read(io.BytesIO(data))
        except (ValueError, OverflowError) as exc:
            raise ContainerFormatError(f"malformed Matrix Market file: {exc}") from exc

    rows, cols, entries, fmt, field, symmetry = parse(scipy.io.mminfo)
    if field not in ("real", "integer", "unsigned-integer"):
        raise ContainerFormatError(f"unsupported Matrix Market field {field!r}")
    if fmt == "coordinate":
        mat = SparseMatrix(parse(scipy.io.mmread).tocsr(), dtype=np.float64)
        values = mat.data
    else:
        _check_dense_size(rows, cols)
        mat = values = np.asarray(parse(scipy.io.mmread), dtype=np.float64)
    head = io.BytesIO(data)  # read up to the size line, the first line neither blank nor comment
    next(line for line in head if line.strip()[:1] not in (b"", b"%"))
    word = np.frombuffer(data, np.uint8, offset=head.tell() - 1) > 32  # from the size line's end
    found = np.count_nonzero(word[1:] > word[:-1])  # scipy skips a line's surplus tokens
    stored = {"symmetric": rows * (rows + 1) // 2, "skew-symmetric": rows * (rows - 1) // 2}
    expect = 3 * entries if fmt == "coordinate" else stored.get(symmetry, rows * cols)
    if found != expect:
        raise ContainerFormatError(f"malformed Matrix Market file: {path}: {found} tokens "
                                   f"in the body where the header implies {expect}")
    # scipy reads a value up to the first byte no number holds (4x as 4, 1.5 or 1e3 in an
    # integer file as 1); only whole inf and nan tokens go on to the located message below
    keep, body = b"0123456789+- \t\n\r\v\f" + b".eE" * (field == "real"), data[head.tell():]
    if body.translate(None, keep) and (field != "real" or re.sub(
            rb"(?i)(?<!\S)[+-]?(inf|infinity|nan)(?!\S)", b"", body).translate(None, keep)):
        kind = "a number in a" if field == "real" else "an integer in an"
        raise ContainerFormatError(f"malformed Matrix Market file: {path}: a value "
                                   f"that is not {kind} {field} file")
    bad = np.flatnonzero(~np.isfinite(values.ravel()))
    if bad.size:
        k = int(bad[0])  # canonical CSR stores its entries in row-major order
        i, j = ((np.searchsorted(mat.indptr, k, side="right") - 1, mat.indices[k])
                if fmt == "coordinate" else divmod(k, cols))
        raise ContainerFormatError(f"{path}: non-finite entry {float(values.flat[k])!r} "
                                   f"at row {i + 1}, column {j + 1}")
    return mat


def write_matrix(path, a) -> None:
    """Write a matrix to Matrix Market with exact value round-trip.

    Dense arrays denser than ``_SPARSE_THRESHOLD`` go out in array format,
    sparser ones in coordinate format; scipy sparse inputs always use
    coordinate format.
    """
    if scipy.sparse.issparse(a):
        payload = a.tocoo()
    else:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeError("write_matrix expects a matrix")
        if a.size and np.count_nonzero(a) / a.size < _SPARSE_THRESHOLD:
            payload = scipy.sparse.coo_matrix(a)
        else:
            payload = a

    def _write(tmp):
        with open(tmp, "wb") as fh:  # file object: scipy must not append .mtx
            scipy.io.mmwrite(fh, payload)

    _replace_into(path, _write)


def read_vector(path) -> np.ndarray:
    """Read a vector stored as one decimal literal per line: lines end at ``\\n``,
    ``\\r\\n`` or ``\\r`` (not at the other breaks of ``str.splitlines``), and blank
    and ``%`` lines are skipped.  One ``np.array`` call converts the stripped rest as
    ``float()`` does; a file it refuses, or one with a ``_`` or a non-ASCII byte, is read
    line by line, which raises :class:`ContainerFormatError` naming the first line that
    is not one finite ASCII literal without ``_``, as do non-UTF-8 bytes and no values."""
    try:
        with open(path, encoding="utf-8") as fh:  # text mode: lines end at \n, \r\n or \r
            data = fh.read()
    except UnicodeDecodeError as exc:  # raised on the whole file, where bytes split as text mode
        lineno = len((exc.object[:exc.start] + b".").splitlines())
        raise ContainerFormatError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
    lines = data.split("\n")
    tokens = [text for text in map(str.strip, lines) if text and text[0] != "%"]
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        values = None
    if values is None or not (data.isascii() and "_" not in data and np.isfinite(values).all()):
        values = []
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text or text.startswith("%"):
                continue
            try:
                if not text.isascii() or "_" in text:  # float() also reads 1_0 and ١٢
                    raise ValueError(text)
                values.append(float(text))
            except ValueError as exc:
                raise ContainerFormatError(
                    f"{path}:{lineno}: not a decimal literal: {text!r}") from exc
            if not np.isfinite(values[-1]):
                raise ContainerFormatError(f"{path}:{lineno}: non-finite value {text!r}")
    if not len(values):
        raise ContainerFormatError(f"{path}: no values")
    return np.asarray(values, dtype=np.float64)


def write_vector(path, x) -> None:
    """Write ``x`` as one ``repr`` literal per line, in one write (an empty file for no values)."""
    text = "\n".join([*map(repr, np.asarray(x, dtype=np.float64).ravel().tolist()), ""])
    _replace_into(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))
