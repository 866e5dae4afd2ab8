"""Block patterns and the matrix <-> tensor correspondence.

A block pattern describes an ``(ell*m) x (q*n)`` matrix built from ``p``
distinct ``m x n`` blocks: class ``k`` owns a set of cells of the
``ell x q`` block grid (its *placements*), every one of which holds the same
block ``A_k``.  The normalized placement matrix ``E_k`` carries the value
``1/sqrt(eta_k)`` on those cells (``eta_k`` = cell count), so each ``E_k``
has unit Frobenius norm and the supports are pairwise disjoint.

A pattern is one table, sorted by class: the ``N x 2`` grid ``cells`` and
the class ``klass`` of each.  The maps index it in two ways.
``BlockPattern.class_of`` is the ``ell x q`` grid of class indices (``-1`` on
cells no class claims).  A matrix is read through its 4-D block view
``a.reshape(ell, m, q, n)``, whose ``[i, :, j, :]`` is the block at grid cell
``(i, j)``; with ``rows_k`` and ``cols_k`` the columns of ``placements[k]``
(class ``k``'s rows of the table), ``view[rows_k, :, cols_k, :]``
gathers every copy of class ``k`` at once, and the same index on the left of
an assignment scatters them.  Products read the cells in row-major order
through a class grid, CSR or, on a filled grid, dense (:func:`_grid_is_filled`).

With that normalization the matrix and its weighted tensor are isometric:
``mat_to_tensor`` stacks ``sqrt(eta_k) * A_k`` as lateral slices of an
``m x p x n`` tensor, ``tensor_to_mat`` sums ``E_k (x) slice_k`` back, and
the Frobenius error of any tensor approximation equals the Frobenius error
of the reassembled matrix.

Every map reads a dense array or a scipy sparse matrix alike through one
private view of its nonzero cells (:func:`_cells`), and no map builds
anything the size of a dense matrix.

Grid cells are 0-based ``(row, col)`` internally; file formats and printed
reports are 1-based.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .errors import PatternMismatchError, ShapeError
from .tensor import scale_exponent

__all__ = ["BlockPattern", "build_pattern", "detect_pattern", "struct_assemble", "struct_expand",
           "extract_blocks", "mat_to_tensor", "blocks_to_tensor", "blocks_to_rows", "extract_rows",
           "tensor_to_mat", "DENSIFY_LIMIT"]

DENSIFY_LIMIT = 10**8  # refuse to build dense matrices beyond this many entries
_DENSE_FILL = 4  # the densest class grid still multiplied dense, in blocks per claimed cell
_CHUNK = 2**15  # entries of the cells checked together (scripts/cell_pass_sweep.py)


def _check_dense_size(rows: int, cols: int) -> None:
    """Raise :class:`ShapeError` if a dense ``rows x cols`` result would
    exceed ``DENSIFY_LIMIT`` entries."""
    if rows * cols > DENSIFY_LIMIT:
        raise ShapeError(f"dense result would hold {rows * cols} entries (limit {DENSIFY_LIMIT})")


@dataclass(frozen=True, eq=False)
class BlockPattern:
    """Placement structure of a block matrix with repeated blocks.

    The pattern is one table: ``cells`` lists grid cells and ``klass`` the
    class of each.  The constructor sorts the table stably by class, so the
    order of the cells inside a class is the order they were given in; that
    order, and the class order, are the container order and the equality key.

    Attributes:
        ell: Block-grid rows.
        q: Block-grid columns.
        m: Rows of each block.
        n: Columns of each block.
        cells: ``(N, 2)`` int array of 0-based grid cells, pairwise distinct
            and in range.
        klass: ``(N,)`` int array, the class of each cell; the classes are
            numbered ``0 .. p-1`` and none is empty.
        structure_class: Report tag such as ``"toeplitz"`` or ``"banded:1"``;
            purely descriptive.
        class_of: Derived read-only ``(ell, q)`` int64 grid holding the class
            of every cell, ``-1`` where no class claims it.
        row_major: Derived read-only ``(indptr, cols, klass)``: the cells in
            row-major order, block row ``i`` holding ``indptr[i]:indptr[i + 1]``,
            with the grid column and the class of each.

    ``counts``, ``placements`` (one read-only ``(eta_k, 2)`` view of ``cells``
    per class) and ``_placement_rows`` are derived from the table on first use.
    """

    ell: int
    q: int
    m: int
    n: int
    cells: np.ndarray
    klass: np.ndarray
    structure_class: str = "general"
    class_of: np.ndarray = field(init=False, repr=False)
    row_major: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def _key(self) -> tuple:  # the table is normalized: equal bytes, equal tables
        return (self.ell, self.q, self.m, self.n, self.structure_class,
                self.cells.tobytes(), self.klass.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockPattern):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __post_init__(self) -> None:
        if min(self.ell, self.q, self.m, self.n) < 1:
            raise ShapeError("pattern extents must be positive")
        cells = np.asarray(self.cells, dtype=np.int64)
        klass = np.asarray(self.klass, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != 2 or klass.shape != cells.shape[:1]:
            raise ShapeError("cells must be an (N, 2) array with one class per cell")
        order = np.argsort(klass, kind="stable")
        cells, klass = cells[order], klass[order]
        if klass.size and klass[0] < 0:
            raise ShapeError("classes must be numbered from 0")
        counts = np.bincount(klass)
        i, j = cells.T  # by column: a reduction along a length-2 axis runs a pair per step
        outside = (i < 0) | (j < 0) | (i >= self.ell) | (j >= self.q)
        bad = [*klass[outside][:1], *np.flatnonzero(counts == 0)[:1]]
        if bad:  # the lowest class at fault, as a class-by-class check finds it
            k = min(bad)
            raise ShapeError(f"class {k + 1}: " + (
                f"placement outside the {self.ell} x {self.q} grid" if counts[k]
                else "placements must be a nonempty (eta, 2) array"))
        flat = i * self.q + j
        ids, first = np.unique(flat, return_index=True)  # ids: the cells row-major
        if len(first) < len(flat):
            repeated = np.ones(len(flat), dtype=bool)
            repeated[first] = False
            i, j = cells[np.argmax(repeated)]
            raise ShapeError(f"grid cell ({i + 1}, {j + 1}) claimed by two classes")
        class_of = np.full((self.ell, self.q), -1, dtype=np.int64)
        class_of.flat[flat] = klass
        indptr = np.searchsorted(ids, self.q * np.arange(self.ell + 1))
        row_major = (indptr, ids % self.q, klass[first])
        for arr in (cells, klass, class_of, *row_major):
            arr.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "klass", klass)
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "row_major", row_major)

    @cached_property
    def counts(self) -> tuple[int, ...]:
        """Repetition count ``eta_k`` of every class."""
        return tuple(np.bincount(self.klass).tolist())

    @cached_property
    def placements(self) -> tuple[np.ndarray, ...]:
        """The ``(eta_k, 2)`` cells of every class: read-only views of ``cells``."""
        return tuple(np.split(self.cells, np.cumsum(self.counts)[:-1])) if self.p else ()

    @cached_property
    def _placement_rows(self) -> scipy.sparse.csr_matrix:
        """``(ell * p, q)`` CSR whose row ``i * p + k`` is row ``i`` of ``E_k``."""
        indptr, cols, klass = self.row_major
        rows = np.repeat(np.arange(self.ell) * self.p, np.diff(indptr)) + klass
        order = np.argsort(rows, kind="stable")  # columns stay ascending in each row
        ptr = np.searchsorted(rows[order], np.arange(self.ell * self.p + 1))
        return scipy.sparse.csr_matrix(((1 / np.sqrt(self.counts))[klass[order]], cols[order],
                                        ptr), shape=(self.ell * self.p, self.q))

    @property
    def p(self) -> int:
        """Number of block classes."""
        return len(self.counts)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the assembled matrix."""
        return (self.ell * self.m, self.q * self.n)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _band_cells(ell: int, band: int) -> np.ndarray:
    """The cells ``|col - row| <= band`` of an ell x ell grid, row-major."""
    grid = np.arange(ell)
    return np.argwhere(np.abs(grid[:, None] - grid) <= band)


def build_pattern(kind: str, ell: int, q: int, m: int, n: int, band: int | None = None,
                  block_symmetric: bool = False) -> BlockPattern:
    """Construct one of the named block patterns.

    Args:
        kind: ``"diagonal"``, ``"banded"``, ``"toeplitz"`` or ``"hankel"``.
            All four require a square block grid (``ell == q``).
        ell, q: Block-grid extents.
        m, n: Block extents.
        band: Semibandwidth for ``"banded"`` (required there) or an optional
            diagonal cutoff for ``"toeplitz"``.
        block_symmetric: For ``"banded"``: cells ``(i, j)`` and ``(j, i)``
            share a class.  For ``"toeplitz"``: the ``+d`` and ``-d``
            diagonals share a class.

    Class ordering: ``diagonal`` walks the grid diagonal; ``banded`` takes
    first occurrence in row-major order; ``toeplitz`` lists the main
    diagonal, then subdiagonals by distance, then superdiagonals (or, in the
    block-symmetric case, offsets ``0, 1, 2, ...``); ``hankel`` walks
    anti-diagonals ``i + j = const`` top-left to bottom-right.  Inside a
    class, cells run down the rows; a block-symmetric toeplitz class lists
    its subdiagonal before its superdiagonal.
    """
    if ell != q:
        raise ShapeError(f"{kind} patterns need a square block grid, got {ell} x {q}")
    tag = kind
    if kind == "diagonal":
        cells = _band_cells(ell, 0)
        klass = np.arange(ell)
    elif kind == "banded":
        if band is None or band < 0 or band >= ell:
            raise ShapeError(f"banded pattern needs 0 <= band < {ell}")
        cells = _band_cells(ell, band)
        if block_symmetric:
            # a class first occurs at its upper cell, so numbering classes
            # by the (min, max) key keeps first-occurrence order
            key = cells.min(axis=1) * q + cells.max(axis=1)
            klass = np.unique(key, return_inverse=True)[1]
        else:
            klass = np.arange(len(cells))
        tag = f"banded_symmetric:{band}" if block_symmetric else f"banded:{band}"
    elif kind == "toeplitz":
        cutoff = ell - 1 if band is None else band
        if not 0 <= cutoff < ell:
            raise ShapeError(f"toeplitz cutoff must lie in [0, {ell - 1}]")
        cells = _band_cells(ell, cutoff)
        d = cells[:, 1] - cells[:, 0]
        if block_symmetric:
            cells = cells[np.argsort(d > 0, kind="stable")]  # subdiagonal cells first
            klass = np.abs(cells[:, 1] - cells[:, 0])
            tag = "toeplitz_symmetric"
        else:
            klass = np.where(d > 0, cutoff + d, -d)
        if band is not None and band < ell - 1:
            tag += f":{band}"
    elif kind == "hankel":
        cells = _band_cells(ell, ell - 1)
        klass = cells.sum(axis=1)
    else:
        raise ValueError(f"unknown pattern kind {kind!r}")
    return BlockPattern(ell, q, m, n, cells, klass, tag)


# ---------------------------------------------------------------------------
# the nonzero-cell view
# ---------------------------------------------------------------------------

_SIGN = np.uint64(1 << 63)


def _fingerprint(bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Fingerprint of every cell of an ``(m, c, n)`` stack of cell bits: the
    sum of ``bits * keys`` modulo ``2**64``, which no summation order
    changes.  Equal cells get equal fingerprints; unequal cells collide only
    by chance, and detection checks every group on its bytes."""
    return np.einsum("rjs,rs->j", bits, keys)


def _fingerprint_keys(m: int, n: int) -> np.ndarray:
    """Fixed odd random ``uint64`` keys, one per entry of an ``m x n`` block."""
    keys = np.random.default_rng(0x5EED).integers(
        0, 2**64 - 1, size=(m, n), dtype=np.uint64, endpoint=True)
    return keys | np.uint64(1)


class _DenseCells:
    """The cells of a dense float64 array, read in place: nothing the size
    of the array is allocated."""

    def __init__(self, a: np.ndarray, ell: int, q: int, m: int, n: int) -> None:
        self.ell, self.q, self.m, self.n = ell, q, m, n
        self.a = a
        # splitting axes needs no copy at any strides, so these are views
        self.view = a.reshape(ell, m, q, n)
        self.bits = a.view(np.uint64).reshape(ell, m, q, n)

    def _row_or(self, i: int) -> np.ndarray:
        """Bitwise OR of the entries of every cell of block row ``i``."""
        down = np.bitwise_or.reduce(self.bits[i].reshape(self.m, -1), axis=0)
        return np.bitwise_or.reduce(down.reshape(self.q, self.n), axis=1)

    def present(self, rows) -> np.ndarray:
        return np.array([self._row_or(i) != 0 for i in rows], dtype=bool).reshape(-1, self.q)

    def take(self, ids) -> np.ndarray:
        return self.view[ids // self.q, :, ids % self.q, :]

    def nonzero_fingerprints(self, keys) -> tuple[np.ndarray, np.ndarray]:
        ids, prints = [], []
        for i in range(self.ell):
            cols = np.flatnonzero(self._row_or(i) & ~_SIGN)  # a nonzero value
            bits = self.bits[i] if len(cols) == self.q else self.bits[i][:, cols]
            ids.append(i * self.q + cols)
            prints.append(_fingerprint(bits, keys))
        return np.concatenate(ids), np.concatenate(prints)

    def scale_exponent(self) -> int:
        return scale_exponent(self.a)


class _SparseCells:
    """The present cells of a scipy sparse matrix, scattered once into a
    ``(c, m, n)`` stack ordered by flat cell id."""

    def __init__(self, a, ell: int, q: int, m: int, n: int) -> None:
        self.ell, self.q, self.m, self.n = ell, q, m, n
        rows, cols, values = _stored_entries(a, q * n)
        self.ids, slot = np.unique((rows // m) * q + cols // n, return_inverse=True)
        size = len(self.ids) * m * n
        if size > DENSIFY_LIMIT:
            raise ShapeError(f"the {len(self.ids)} nonzero {m} x {n} cells would hold "
                             f"{size} entries (limit {DENSIFY_LIMIT})")
        self.stack = np.zeros((len(self.ids), m, n))
        self.stack[slot, rows % m, cols % n] = values

    def present(self, rows) -> np.ndarray:
        mask = np.zeros(self.ell * self.q, dtype=bool)
        mask[self.ids] = True
        return mask.reshape(self.ell, self.q)[rows]

    def take(self, ids) -> np.ndarray:
        out = np.zeros((len(ids), self.m, self.n))
        if len(self.ids):
            pos = np.minimum(np.searchsorted(self.ids, ids), len(self.ids) - 1)
            hit = self.ids[pos] == ids
            out[hit] = self.stack[pos[hit]]
        return out

    def nonzero_fingerprints(self, keys) -> tuple[np.ndarray, np.ndarray]:
        nonzero = self.stack.any(axis=(1, 2))
        bits = self.stack[nonzero].view(np.uint64).transpose(1, 0, 2)
        return self.ids[nonzero], _fingerprint(bits, keys)

    def scale_exponent(self) -> int:
        return scale_exponent(self.stack)


def _stored_entries(a, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` of the entries of a scipy sparse matrix ``width`` columns wide,
    row-major: duplicates add up in storage order, as ``toarray()`` adds them, and a stored
    ``+0.0`` is no entry (``-0.0`` is one)."""
    coo = a.tocoo()
    flat = coo.row.astype(np.int64) * width + coo.col
    values = np.asarray(coo.data, dtype=np.float64)
    if np.any(flat[1:] <= flat[:-1]):  # else row-major with no duplicate, as canonical CSR is
        order = np.argsort(flat, kind="stable")
        flat, values = flat[order], values[order]
        first = np.flatnonzero(np.diff(flat, prepend=-1))
        if len(first) < len(flat):
            flat, values = flat[first], np.add.reduceat(values, first)
    keep = values.view(np.uint64) != 0
    return (*np.divmod(flat[keep], width), values[keep])


def _cells(a, ell: int, q: int, m: int, n: int):
    """The nonzero-cell view of ``a``, a dense array or a scipy sparse
    matrix of shape ``(ell * m, q * n)``, on its ``ell x q`` grid of
    ``m x n`` cells.  A cell is *present* when one of its entries has a
    nonzero bit.  Both kinds answer:

    * ``present(rows)`` -- the ``(len(rows), q)`` presence mask of the block
      rows ``rows`` (a dense array reads only those rows);
    * ``take(ids)`` -- a fresh ``(len(ids), m, n)`` stack of the cells with
      flat ids ``row * q + col``, an absent cell reading as zeros; the checks
      take a chunk of about ``_CHUNK`` entries at a time (:func:`_per_cell`);
    * ``nonzero_fingerprints(keys)`` -- the flat ids, in row-major order, of
      the cells holding a nonzero value, and their :func:`_fingerprint`;
    * ``scale_exponent()`` of the whole matrix.

    Raises:
        ShapeError: If the present cells of a sparse matrix would hold more
            than ``DENSIFY_LIMIT`` entries.
    """
    if scipy.sparse.issparse(a):
        return _SparseCells(a, ell, q, m, n)
    return _DenseCells(np.asarray(a, dtype=np.float64), ell, q, m, n)


def _per_cell(cells, ids: np.ndarray, reduce) -> np.ndarray:
    """``reduce(stack, where)`` over the cells ``ids``, about ``_CHUNK`` entries (at least one
    cell) at a time, so a chunk stays in cache: ``stack`` holds the cells ``ids[where]``."""
    step = max(1, _CHUNK // (cells.m * cells.n))
    parts = [reduce(cells.take(ids[s:s + step]), slice(s, s + step))
             for s in range(0, len(ids), step)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


def _to_check(cells, pattern: BlockPattern) -> tuple[np.ndarray, np.ndarray]:
    """Flat ids of every claimed cell, then of the present cells no class claims (only dense
    block rows holding an unclaimed cell are read), each row-major, so neighbouring cells of
    a dense array are read together; and the class of each (``p`` for an unclaimed cell)."""
    indptr, cols, klass = pattern.row_major
    claimed = np.repeat(np.arange(pattern.ell) * pattern.q, np.diff(indptr)) + cols
    free = pattern.class_of < 0
    rows = np.flatnonzero(free.any(axis=1))
    grid = rows[:, None] * pattern.q + np.arange(pattern.q)
    unclaimed = grid[free[rows] & cells.present(rows)]
    return (np.concatenate([claimed, unclaimed]),
            np.concatenate([klass, np.full(len(unclaimed), pattern.p)]))


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def _classify(cells: np.ndarray, klass: np.ndarray, ell: int, q: int) -> str:
    """Best-fitting descriptive tag for a table of grid cells whose classes
    ``klass`` are sorted and numbered ``0 .. p-1``."""
    if not len(cells):
        return "general"
    d = cells[:, 1] - cells[:, 0]
    if not d.any():
        return "diagonal"
    counts = np.bincount(klass)
    starts = np.cumsum(counts) - counts
    if ell == q:
        # toeplitz: every class is one full diagonal or a full +-d pair
        lo, hi = np.minimum.reduceat(d, starts), np.maximum.reduceat(d, starts)
        ends = np.logical_and.reduceat((d == lo[klass]) | (d == hi[klass]), starts)
        if np.all(ends & ((lo == hi) | (lo == -hi))
                  & (counts == (ell - np.abs(hi)) * (1 + (lo != hi)))):
            return "toeplitz"
        # hankel: every class is one full anti-diagonal
        s = cells.sum(axis=1)
        lo, hi = np.minimum.reduceat(s, starts), np.maximum.reduceat(s, starts)
        if np.all((lo == hi) & (counts == np.minimum(np.minimum(lo + 1, ell), 2 * ell - 1 - lo))):
            return "hankel"
    b = int(np.max(np.abs(d)))
    return f"banded:{b}" if b < max(ell, q) - 1 else "general"


def detect_pattern(a, m: int, n: int,
                   tol: float = 0.0) -> tuple[BlockPattern, tuple[np.ndarray, ...]]:
    """Partition ``a`` into ``m x n`` blocks and group the repeated ones.

    ``a`` is a dense array or a scipy sparse matrix.  With ``tol == 0``
    blocks are grouped by exact bit equality: every cell holding a nonzero
    value gets a ``uint64`` fingerprint of its bits, cells are grouped by
    fingerprint, and each group is checked against the bytes of its first
    member, a collision splitting it.  With ``tol > 0`` every present cell is
    compared entrywise within ``tol`` against the class representatives in
    turn.  Classes are ordered by first occurrence in row-major block order;
    blocks with no nonzero value (every entry ``+0.0`` or ``-0.0``) never
    become a class.

    Returns:
        ``(pattern, blocks)`` where ``blocks[k]`` is the representative (the
        first occurrence) of class ``k``.  The matrix is verified against
        them, so ``blocks_to_tensor(pattern, blocks)`` equals
        ``mat_to_tensor(a, pattern, tol)``.

    Raises:
        ShapeError: If ``a``'s shape is not divisible into ``m x n`` blocks.
        PatternMismatchError: If ``a`` holds no nonzero value, or a NaN or an infinity.
    """
    if a.ndim != 2:
        raise ShapeError("detect_pattern expects a matrix")
    rows, cols = a.shape
    if rows % m or cols % n:
        raise ShapeError(f"matrix {a.shape} does not tile into {m} x {n} blocks")
    ell, q = rows // m, cols // n
    cells = _cells(a, ell, q, m, n)
    ids, klass, reps = _exact_classes(cells) if tol == 0.0 else _tolerant_classes(cells, tol)
    if not ids.size:
        raise PatternMismatchError("matrix is identically zero; nothing to detect")
    order = np.argsort(klass, kind="stable")
    at, klass = np.column_stack(np.divmod(ids[order], q)), klass[order]
    pattern = BlockPattern(ell, q, m, n, at, klass, _classify(at, klass, ell, q))
    _check_finite(pattern, np.flatnonzero(~np.isfinite(reps).all(axis=(1, 2))))
    return pattern, tuple(reps)


def _exact_classes(cells) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """``(ids, klass, reps)``: the flat ids of the nonzero cells, each class
    of bit-equal cells in row-major order, the class of each, numbered in
    order of first occurrence, and the first cell of each class.

    Cells are grouped by fingerprint and every cell is checked against the
    bytes of its group's first cell; the cells that differ (fingerprint
    collisions) are grouped again in another round."""
    ids, prints = cells.nonzero_fingerprints(_fingerprint_keys(cells.m, cells.n))
    members, groups, firsts, reps = [], [], [], []
    while ids.size:
        _, first, group = np.unique(prints, return_index=True, return_inverse=True)
        round_reps = cells.take(ids[first])
        same = _per_cell(cells, ids, lambda b, where: (
            b.view(np.uint64) == round_reps[group[where]].view(np.uint64)).all(axis=(1, 2)))
        members.append(ids[same])
        groups.append(group[same] + len(reps))  # numbered apart from earlier rounds
        firsts.append(ids[first])
        reps.extend(round_reps)
        ids, prints = ids[~same], prints[~same]
    if not reps:
        return ids, ids, reps
    by_first = np.argsort(np.concatenate(firsts))
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    return (np.concatenate(members), rank[np.concatenate(groups)],
            [reps[g] for g in by_first])


def _tolerant_classes(cells, tol: float) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """:func:`_exact_classes` for cells within ``tol`` of their class's first
    cell, by a linear scan of the present cells in row-major order."""
    rows = np.arange(cells.ell)
    ids = (rows[:, None] * cells.q + np.arange(cells.q))[cells.present(rows)]
    reps: list[np.ndarray] = []
    kept: list[tuple[int, int]] = []  # (cell, class)
    for start in range(0, len(ids), cells.q):
        chunk = ids[start:start + cells.q]
        for cell, blk in zip(chunk, cells.take(chunk)):
            if np.max(np.abs(blk)) <= tol:
                continue
            for k, rep in enumerate(reps):
                if np.max(np.abs(blk - rep)) <= tol:
                    break
            else:
                k = len(reps)
                reps.append(blk.copy())
            kept.append((cell, k))
    ids, klass = np.array(kept, dtype=np.int64).reshape(-1, 2).T
    return ids, klass, reps


# ---------------------------------------------------------------------------
# assembly and the tensor maps
# ---------------------------------------------------------------------------


def _scatter(pattern: BlockPattern, items, divisors, block_shape=None) -> np.ndarray:
    """Grid of blocks holding ``items[k] / divisors[k]`` on every cell of
    class ``k`` and zeros elsewhere.  Every item must have ``block_shape``
    (default: the first item's shape, or the pattern's block shape when
    there are no classes)."""
    if len(items) != pattern.p:
        raise ShapeError(f"expected {pattern.p} blocks, got {len(items)}")
    items = [np.atleast_2d(np.asarray(it, dtype=np.float64)) for it in items]
    bm, bn = block_shape or (items[0].shape if items else (pattern.m, pattern.n))
    out = np.zeros((pattern.ell, bm, pattern.q, bn))
    for k, (item, divisor, cells) in enumerate(zip(items, divisors, pattern.placements)):
        if item.shape != (bm, bn):
            raise ShapeError(f"class {k + 1}: block shape {item.shape} != {(bm, bn)}")
        out[cells[:, 0], :, cells[:, 1], :] = item / divisor
    return out.reshape(pattern.ell * bm, pattern.q * bn)


def _class_grid(pattern: BlockPattern, values: np.ndarray, key: str,
                like: scipy.sparse.csr_matrix | None = None) -> scipy.sparse.csr_matrix:
    """The class-grid CSR matrix: block row ``i`` holds, for every claimed
    cell ``(i, c)`` of class ``k`` in row-major order, the ``w`` entries
    ``values[k] / sqrt(eta_k)`` under column block ``c`` (``key="col"``:
    ``sum_k E_k (x) values[k]``, shape ``(ell, q * w)``) or ``values[c] /
    sqrt(eta_k)`` under column block ``k`` (``key="class"``: column block
    ``k`` is ``E_k @ values``, shape ``(ell, p * w)``).  A class met twice in
    one block row repeats its columns there, and a product adds them.  The grid
    shares the index arrays of ``like``, one of the same pattern, key and width."""
    indptr, cols, klass = pattern.row_major
    by, pick, extent = (cols, klass, pattern.q) if key == "col" else (klass, cols, pattern.p)
    w = values.shape[1]
    data = (values[pick] / np.sqrt(pattern.counts)[klass, None]).ravel()
    if like is not None:
        grid = copy.copy(like)  # the index arrays are shared, never written
        grid.data = data
        return grid
    indices = (by[:, None] * w + np.arange(w)).ravel()
    return scipy.sparse.csr_matrix((data, indices, indptr * w), shape=(pattern.ell, extent * w))


def _grid_is_filled(pattern: BlockPattern, extent: int) -> bool:
    """Whether the class grid keyed by column (``extent = q``) or class (``extent = p``)
    multiplies dense: ``ell * extent <= _DENSE_FILL * sum(eta)`` (scripts/class_grid_sweep.py)."""
    return pattern.ell * extent <= _DENSE_FILL * len(pattern.klass)


def _dense_class_grid(pattern: BlockPattern, values: np.ndarray | None) -> np.ndarray:
    """The column-keyed :func:`_class_grid` of ``values`` (identity if ``None``), dense, as
    ``(ell, q, w)``: rows of ``values / sqrt(eta)`` and a zero row, gathered by ``class_of``."""
    values = np.eye(pattern.p) if values is None else values
    rows = np.vstack([values / np.sqrt(pattern.counts)[:, None], np.zeros(values.shape[1])])
    return rows[pattern.class_of]


def struct_assemble(pattern: BlockPattern, blocks) -> np.ndarray:
    """Assemble ``sum_k E_k (x) sqrt(eta_k) A_k``: block ``A_k`` lands
    verbatim on every cell of class ``k``."""
    return _scatter(pattern, blocks, np.ones(pattern.p), (pattern.m, pattern.n))


def struct_expand(pattern: BlockPattern, items) -> np.ndarray:
    """Assemble ``sum_k E_k (x) item_k`` with the ``1/sqrt(eta_k)`` weights
    kept inside ``E_k`` (so cell values are ``item_k / sqrt(eta_k)``).

    ``items`` may have any common block shape; the output grid is
    ``ell x q`` blocks of that shape.
    """
    return _scatter(pattern, items, np.sqrt(pattern.counts))


def extract_blocks(a, pattern: BlockPattern, tol: float = 0.0) -> tuple[np.ndarray, ...]:
    """Pull the representative block of every class out of ``a``.

    ``a`` is a dense array or a scipy sparse matrix.  Verifies, in the chunks
    and order of :func:`_per_cell` and :func:`_to_check`, that every later
    copy of a class agrees with its representative (the first copy) within
    ``tol``, an absent copy reading as zeros, and that the present cells no
    class claims are within ``tol`` of zero.  At ``tol == 0`` the test is
    ``copy == rep``: ``|copy - rep| <= 0`` for a finite representative.  The
    first bad cell in table order, unclaimed cells last, is reported.

    Raises:
        PatternMismatchError: On any disagreement, or a NaN or an infinity in a checked cell.
        ShapeError: If ``a``'s shape is not ``pattern.shape``.
    """
    if a.shape != pattern.shape:
        raise ShapeError(f"matrix shape {a.shape} != pattern shape {pattern.shape}")
    cells = _cells(a, pattern.ell, pattern.q, pattern.m, pattern.n)
    ids, klass = _to_check(cells, pattern)
    table = pattern.cells[:, 0] * pattern.q + pattern.cells[:, 1]
    first = table[np.cumsum([0, *pattern.counts])[:-1]]  # the first copies: the representatives
    reps = cells.take(first)
    _check_finite(pattern, np.flatnonzero(~np.isfinite(reps).all(axis=(1, 2))))
    later = np.isin(ids, first, invert=True, kind="table")
    ids, klass = ids[later], klass[later]

    def agrees(stack, where):
        k = klass[where]
        claimed = np.searchsorted(k, pattern.p)  # unclaimed cells come last
        if tol == 0.0:
            return np.concatenate([(stack[:claimed] == reps[k[:claimed]]).all(axis=(1, 2)),
                                   ~stack[claimed:].any(axis=(1, 2))])
        stack[:claimed] -= reps[k[:claimed]]
        return np.max(np.abs(stack, out=stack), axis=(1, 2)) <= tol  # a NaN is bad too

    _refuse(pattern, ids[~_per_cell(cells, ids, agrees)])
    return tuple(reps)


def _refuse(pattern: BlockPattern, bad: np.ndarray) -> None:
    """Refuse the first of the flat ids ``bad`` in table order, else (no class claims any)
    the first row-major: the cells that fail :func:`extract_blocks`'s check."""
    if not bad.size:
        return
    hit = np.flatnonzero(np.isin(pattern.cells[:, 0] * pattern.q + pattern.cells[:, 1], bad))
    if hit.size:
        (i, j), k = pattern.cells[hit[0]], pattern.klass[hit[0]]
        raise PatternMismatchError(f"class {k + 1}: block at grid cell ({i + 1}, {j + 1}) "
                                   "differs from its representative")
    i, j = divmod(int(np.min(bad)), pattern.q)
    raise PatternMismatchError(f"grid cell ({i + 1}, {j + 1}) is outside every class but not zero")


def _check_finite(pattern: BlockPattern, bad) -> None:
    """Refuse the lowest of the classes ``bad``, whose representative (the class's first cell)
    holds a NaN or an infinity."""
    if len(bad):
        k = int(np.min(bad))
        i, j = pattern.placements[k][0]
        raise PatternMismatchError(f"class {k + 1}: block at grid cell ({i + 1}, {j + 1}) "
                                   "is not finite")


def blocks_to_rows(pattern: BlockPattern, blocks) -> tuple[np.ndarray, np.ndarray]:
    """``(support, rows)``: the mode-2 unfolding of :func:`blocks_to_tensor` on its columns
    holding a nonzero value.  ``support`` lists them ascending as in-block positions
    ``l * m + i`` (the unfolding's column order), and row ``k`` of the ``p x len(support)``
    ``rows`` holds ``sqrt(eta_k) blocks[k]`` there."""
    b = np.asarray(blocks, dtype=np.float64).reshape(pattern.p, pattern.m, pattern.n)
    cols, i = np.nonzero(np.any(b != 0, axis=0).T)
    return cols * pattern.m + i, b[:, i, cols] * np.sqrt(pattern.counts)[:, None]


def extract_rows(a, pattern: BlockPattern, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """:func:`blocks_to_rows` of :func:`extract_blocks`, which it raises alike.  A scipy sparse
    ``a`` at ``tol == 0`` is read from its stored entries alone, with every check of
    :func:`extract_blocks` made and the same first bad cell refused.  No cell is scattered:
    only a block, or the ``p x len(support)`` rows, beyond ``DENSIFY_LIMIT`` entries is refused."""
    if tol or not scipy.sparse.issparse(a):
        return blocks_to_rows(pattern, extract_blocks(a, pattern, tol))
    if a.shape != pattern.shape:
        raise ShapeError(f"matrix shape {a.shape} != pattern shape {pattern.shape}")
    m, n, q = pattern.m, pattern.n, pattern.q
    _check_dense_size(m, n)  # the support mask below spans a block
    rows, cols, values = _stored_entries(a, q * n)
    (bi, i), (bj, j) = np.divmod(rows, m), np.divmod(cols, n)
    cell, pos, nz = bi * q + bj, j * m + i, values != 0  # -0.0 equals an absent entry
    grid = pattern.class_of.ravel()  # the class of each cell, -1 where none claims it
    first = pattern.cells[np.cumsum([0, *pattern.counts])[:-1]] @ np.array([q, 1])
    klass, rep = grid[cell], np.isin(cell, first, kind="table")  # first: the representatives
    _check_finite(pattern, klass[rep & ~np.isfinite(values)])
    key, held, later = klass * (m * n) + pos, rep & nz, nz & (klass >= 0) & ~rep
    order = np.argsort(key[held])
    rkey, rval = (np.append(x[held][order], end) for x, end in ((key, -1), (values, 0.0)))
    near = np.searchsorted(rkey[:-1], key[later])  # a key the representative lacks may meet -1
    same = (rkey[near] == key[later]) & (rval[near] == values[later])  # NaN differs
    need = np.append(np.bincount(klass[held], minlength=pattern.p), 0)[grid]  # entries a copy holds
    wrong = np.bincount(cell[later][same], minlength=grid.size) != need
    wrong |= np.bincount(cell[later], minlength=grid.size) != need
    wrong[first] = False
    _refuse(pattern, np.concatenate([np.flatnonzero(wrong), cell[nz & (klass < 0)]]))
    mask = np.zeros(m * n, dtype=bool)  # a position holding only -0.0 is outside the support
    mask[pos[held]] = True
    support = np.flatnonzero(mask)
    _check_dense_size(pattern.p, len(support))
    rep &= mask[pos]
    mat = np.zeros((pattern.p, len(support)))
    mat[klass[rep], np.searchsorted(support, pos[rep])] = (
        values[rep] * np.sqrt(pattern.counts)[klass[rep]])
    return support, mat


def blocks_to_tensor(pattern: BlockPattern, blocks) -> np.ndarray:
    """The ``m x p x n`` tensor whose lateral slice ``k`` holds ``sqrt(eta_k) * blocks[k]``."""
    if len(blocks) != pattern.p:
        raise ShapeError(f"expected {pattern.p} blocks, got {len(blocks)}")
    if not pattern.p:
        return np.zeros((pattern.m, 0, pattern.n))
    t = np.stack(list(blocks), axis=1)  # one allocation, scaled in place
    t *= np.sqrt(pattern.counts)[:, None]
    return t


def mat_to_tensor(a, pattern: BlockPattern, tol: float = 0.0) -> np.ndarray:
    """Map a conforming matrix (dense or scipy sparse) to its ``m x p x n``
    tensor: :func:`blocks_to_tensor` of :func:`extract_blocks`.

    Lateral slice ``k`` holds ``sqrt(eta_k) * A_k``.  The norm identity
    ``||T|| == ||a||`` holds exactly when the uncovered cells of ``a`` are
    zero.
    """
    return blocks_to_tensor(pattern, extract_blocks(a, pattern, tol=tol))


def tensor_to_mat(t: np.ndarray, pattern: BlockPattern) -> np.ndarray:
    """Map an ``m x p x n`` tensor back to the block matrix
    ``sum_k E_k (x) slice_k``; the exact inverse of :func:`mat_to_tensor`."""
    if t.ndim != 3:
        raise ShapeError("tensor_to_mat expects an order-3 tensor")
    if t.shape[1] != pattern.p or t.shape[0] != pattern.m or t.shape[2] != pattern.n:
        raise ShapeError(f"tensor extents {t.shape} do not match pattern "
                         f"({pattern.m}, {pattern.p}, {pattern.n})")
    return struct_expand(pattern, [t[:, k, :] for k in range(pattern.p)])
