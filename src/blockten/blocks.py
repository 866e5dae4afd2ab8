"""Block patterns and the matrix <-> tensor correspondence.

A block pattern describes an ``(ell*m) x (q*n)`` matrix built from ``p``
distinct ``m x n`` blocks: class ``k`` owns a set of cells of the
``ell x q`` block grid (its *placements*), every one of which holds the same
block ``A_k``.  The normalized placement matrix ``E_k`` carries the value
``1/sqrt(eta_k)`` on those cells (``eta_k`` = cell count), so each ``E_k``
has unit Frobenius norm and the supports are pairwise disjoint.

The maps index the pattern in two ways.  ``BlockPattern.class_of`` is the
``ell x q`` grid of class indices (``-1`` on cells no class claims).  A
matrix is read through its 4-D block view ``a.reshape(ell, m, q, n)``, whose
``[i, :, j, :]`` is the block at grid cell ``(i, j)``; with ``rows_k`` and
``cols_k`` the columns of ``placements[k]``, ``view[rows_k, :, cols_k, :]``
gathers every copy of class ``k`` at once, and the same index on the left of
an assignment scatters them.  Loops run over classes, never over cells.

With that normalization the matrix and its weighted tensor are isometric:
``mat_to_tensor`` stacks ``sqrt(eta_k) * A_k`` as lateral slices of an
``m x p x n`` tensor, ``tensor_to_mat`` sums ``E_k (x) slice_k`` back, and
the Frobenius error of any tensor approximation equals the Frobenius error
of the reassembled matrix.

Grid cells are 0-based ``(row, col)`` internally; file formats and printed
reports are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PatternMismatchError, ShapeError

__all__ = [
    "BlockPattern",
    "build_pattern",
    "detect_pattern",
    "classify_placements",
    "struct_assemble",
    "struct_expand",
    "struct_scalars",
    "extract_blocks",
    "mat_to_tensor",
    "tensor_to_mat",
]


@dataclass(frozen=True, eq=False)
class BlockPattern:
    """Placement structure of a block matrix with repeated blocks.

    Attributes:
        ell: Block-grid rows.
        q: Block-grid columns.
        m: Rows of each block.
        n: Columns of each block.
        placements: One ``(eta_k, 2)`` int array of 0-based grid cells per
            class; supports must be pairwise disjoint and in range.  Their
            order is the class order, the container header order and the
            equality key.
        structure_class: Report tag such as ``"toeplitz"`` or ``"banded:1"``;
            purely descriptive.
        class_of: Derived read-only ``(ell, q)`` int64 grid holding the class
            of every cell, ``-1`` where no class claims it.
    """

    ell: int
    q: int
    m: int
    n: int
    placements: tuple[np.ndarray, ...]
    structure_class: str = "general"
    class_of: np.ndarray = field(init=False, repr=False)

    def _key(self) -> tuple:  # placements are normalized: equal bytes, equal arrays
        return (self.ell, self.q, self.m, self.n, self.structure_class,
                tuple(c.tobytes() for c in self.placements))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockPattern):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __post_init__(self) -> None:
        if min(self.ell, self.q, self.m, self.n) < 1:
            raise ShapeError("pattern extents must be positive")
        normalized = tuple(np.asarray(c, dtype=np.int64) for c in self.placements)
        for k, cells in enumerate(normalized):
            if cells.ndim != 2 or cells.shape[1] != 2 or cells.shape[0] < 1:
                raise ShapeError(f"class {k + 1}: placements must be a nonempty (eta, 2) array")
            if cells.min() < 0 or cells[:, 0].max() >= self.ell or cells[:, 1].max() >= self.q:
                raise ShapeError(f"class {k + 1}: placement outside the {self.ell} x {self.q} grid")
        class_of = np.full((self.ell, self.q), -1, dtype=np.int64)
        if normalized:
            cells = np.concatenate(normalized)
            flat = cells[:, 0] * self.q + cells[:, 1]
            first = np.unique(flat, return_index=True)[1]
            if len(first) < len(flat):
                repeated = np.ones(len(flat), dtype=bool)
                repeated[first] = False
                i, j = cells[np.argmax(repeated)]
                raise ShapeError(f"grid cell ({i + 1}, {j + 1}) claimed by two classes")
            class_of.flat[flat] = np.repeat(np.arange(len(normalized)),
                                            [len(c) for c in normalized])
        class_of.flags.writeable = False
        object.__setattr__(self, "placements", normalized)
        object.__setattr__(self, "class_of", class_of)

    @property
    def p(self) -> int:
        """Number of block classes."""
        return len(self.placements)

    @property
    def counts(self) -> tuple[int, ...]:
        """Repetition count ``eta_k`` of every class."""
        return tuple(len(c) for c in self.placements)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the assembled matrix."""
        return (self.ell * self.m, self.q * self.n)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _toeplitz_cells(ell: int, offset: int) -> np.ndarray:
    """Cells of the diagonal ``col - row == offset`` of an ell x ell grid."""
    rows = np.arange(max(0, -offset), min(ell, ell - offset))
    return np.column_stack([rows, rows + offset])


def build_pattern(
    kind: str,
    ell: int,
    q: int,
    m: int,
    n: int,
    band: int | None = None,
    block_symmetric: bool = False,
) -> BlockPattern:
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
    anti-diagonals ``i + j = const`` top-left to bottom-right.
    """
    if ell != q:
        raise ShapeError(f"{kind} patterns need a square block grid, got {ell} x {q}")
    cells_per_class: list[np.ndarray] = []
    tag = kind

    if kind == "diagonal":
        cells_per_class = [np.array([[k, k]]) for k in range(ell)]
    elif kind == "banded":
        if band is None or band < 0 or band >= ell:
            raise ShapeError(f"banded pattern needs 0 <= band < {ell}")
        rows, cols = np.nonzero(np.abs(np.arange(ell)[:, None] - np.arange(q)) <= band)
        cells = np.column_stack([rows, cols])
        if block_symmetric:
            # a class first occurs at its upper cell, so ordering by the
            # (min, max) key keeps first-occurrence order
            key = np.minimum(rows, cols) * q + np.maximum(rows, cols)
            order = np.argsort(key, kind="stable")
            cells_per_class = np.split(cells[order], np.flatnonzero(np.diff(key[order])) + 1)
        else:
            cells_per_class = np.split(cells, len(cells))
        tag = f"banded_symmetric:{band}" if block_symmetric else f"banded:{band}"
    elif kind == "toeplitz":
        cutoff = ell - 1 if band is None else band
        if not 0 <= cutoff < ell:
            raise ShapeError(f"toeplitz cutoff must lie in [0, {ell - 1}]")
        if block_symmetric:
            cells_per_class = [_toeplitz_cells(ell, 0)] + [
                np.vstack([_toeplitz_cells(ell, -d), _toeplitz_cells(ell, d)])
                for d in range(1, cutoff + 1)
            ]
            tag = "toeplitz_symmetric"
        else:
            offsets = [0, *range(-1, -cutoff - 1, -1), *range(1, cutoff + 1)]
            cells_per_class = [_toeplitz_cells(ell, d) for d in offsets]
        if band is not None and band < ell - 1:
            tag += f":{band}"
    elif kind == "hankel":
        for s in range(2 * ell - 1):
            lo, hi = max(0, s - ell + 1), min(s, ell - 1)
            rows = np.arange(lo, hi + 1)
            cells_per_class.append(np.column_stack([rows, s - rows]))
    else:
        raise ValueError(f"unknown pattern kind {kind!r}")

    return BlockPattern(ell=ell, q=q, m=m, n=n,
                        placements=tuple(cells_per_class), structure_class=tag)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def classify_placements(placements: tuple[np.ndarray, ...], ell: int, q: int) -> str:
    """Best-fitting descriptive tag for a placement family."""
    all_cells = np.vstack(placements) if placements else np.zeros((0, 2), dtype=np.int64)
    if len(all_cells) and np.all(all_cells[:, 0] == all_cells[:, 1]):
        return "diagonal"

    def full_diagonal(cells: np.ndarray) -> int | None:
        offs = set(np.unique(cells[:, 1] - cells[:, 0]).tolist())
        if ell != q:
            return None
        if len(offs) == 1:
            (d,) = offs
            return d if len(cells) == ell - abs(d) else None
        if len(offs) == 2:
            d1, d2 = sorted(offs)
            if d1 == -d2 and d2 > 0 and len(cells) == 2 * (ell - d2):
                return d2
        return None

    def full_antidiagonal(cells: np.ndarray) -> int | None:
        sums = set(np.unique(cells.sum(axis=1)).tolist())
        if ell != q or len(sums) != 1:
            return None
        (s,) = sums
        expected = min(s + 1, ell, 2 * ell - 1 - s)
        return s if len(cells) == expected else None

    if placements and all(full_diagonal(c) is not None for c in placements):
        return "toeplitz"
    if placements and all(full_antidiagonal(c) is not None for c in placements):
        return "hankel"
    if len(all_cells):
        b = int(np.max(np.abs(all_cells[:, 0] - all_cells[:, 1])))
        if b < max(ell, q) - 1:
            return f"banded:{b}"
    return "general"


def detect_pattern(
    a: np.ndarray,
    m: int,
    n: int,
    tol: float = 0.0,
) -> tuple[BlockPattern, tuple[np.ndarray, ...]]:
    """Partition ``a`` into ``m x n`` blocks and group the repeated ones.

    Blocks are compared for exact bit equality when ``tol == 0`` (hashed on
    their bytes) and entrywise within ``tol`` otherwise (linear scan against
    class representatives).  Classes are ordered by first occurrence in
    row-major block order; all-zero blocks are skipped entirely, so they
    never become a class.

    Returns:
        ``(pattern, blocks)`` where ``blocks[k]`` is the representative (the
        first occurrence) of class ``k``.

    Raises:
        ShapeError: If ``a``'s shape is not divisible into ``m x n`` blocks.
    """
    if a.ndim != 2:
        raise ShapeError("detect_pattern expects a matrix")
    rows, cols = a.shape
    if rows % m or cols % n:
        raise ShapeError(f"matrix {a.shape} does not tile into {m} x {n} blocks")
    ell, q = rows // m, cols // n

    reps: list[np.ndarray] = []
    cells: list[list[tuple[int, int]]] = []
    by_bytes: dict[bytes, int] = {}
    for i in range(ell):
        for j in range(q):
            blk = np.ascontiguousarray(a[i * m : (i + 1) * m, j * n : (j + 1) * n])
            if tol == 0.0:
                if not blk.any():
                    continue
                key = blk.tobytes()
                k = by_bytes.get(key)
                if k is None:
                    k = len(reps)
                    by_bytes[key] = k
                    reps.append(blk)
                    cells.append([])
            else:
                if np.max(np.abs(blk)) <= tol:
                    continue
                for k, rep in enumerate(reps):
                    if np.max(np.abs(blk - rep)) <= tol:
                        break
                else:
                    k = len(reps)
                    reps.append(blk)
                    cells.append([])
            cells[k].append((i, j))

    if not reps:
        raise PatternMismatchError("matrix is identically zero; nothing to detect")
    placements = tuple(np.array(c, dtype=np.int64) for c in cells)
    pattern = BlockPattern(
        ell=ell, q=q, m=m, n=n, placements=placements,
        structure_class=classify_placements(placements, ell, q),
    )
    return pattern, tuple(reps)


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


def struct_scalars(pattern: BlockPattern, coeffs: np.ndarray) -> np.ndarray:
    """Dense ``sum_k coeffs[k] * E_k``; see :func:`struct_expand` with 1x1 items."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (pattern.p,):
        raise ShapeError(f"expected {pattern.p} coefficients")
    return _scatter(pattern, coeffs, np.sqrt(pattern.counts), (1, 1))


def extract_blocks(a: np.ndarray, pattern: BlockPattern, tol: float = 0.0) -> tuple[np.ndarray, ...]:
    """Pull the representative block of every class out of ``a``.

    Verifies that every placement of a class agrees with its representative
    within ``tol`` and that cells claimed by no class are zero.

    Raises:
        PatternMismatchError: On any disagreement.
        ShapeError: If ``a``'s shape is not ``pattern.shape``.
    """
    if a.shape != pattern.shape:
        raise ShapeError(f"matrix shape {a.shape} != pattern shape {pattern.shape}")
    view = a.reshape(pattern.ell, pattern.m, pattern.q, pattern.n)
    blocks = []
    for k, cells in enumerate(pattern.placements):
        rep = np.ascontiguousarray(view[cells[0, 0], :, cells[0, 1], :])
        dev = view[cells[:, 0], :, cells[:, 1], :] - rep
        bad = np.flatnonzero(np.max(np.abs(dev, out=dev), axis=(1, 2)) > tol)
        if bad.size:
            i, j = cells[bad[0]]
            raise PatternMismatchError(
                f"class {k + 1}: block at grid cell ({i + 1}, {j + 1}) "
                f"differs from its representative"
            )
        blocks.append(rep)
    for i in np.flatnonzero((pattern.class_of < 0).any(axis=1)):
        cols = np.flatnonzero(pattern.class_of[i] < 0)
        bad = np.flatnonzero(np.max(np.abs(view[i][:, cols, :]), axis=(0, 2)) > tol)
        if bad.size:
            raise PatternMismatchError(
                f"grid cell ({i + 1}, {cols[bad[0]] + 1}) is outside every class but not zero"
            )
    return tuple(blocks)


def mat_to_tensor(a: np.ndarray, pattern: BlockPattern, tol: float = 0.0) -> np.ndarray:
    """Map a conforming matrix to its ``m x p x n`` tensor.

    Lateral slice ``k`` holds ``sqrt(eta_k) * A_k``.  The norm identity
    ``||T|| == ||a||`` holds exactly when the uncovered cells of ``a`` are
    zero.
    """
    blocks = extract_blocks(a, pattern, tol=tol)
    if not blocks:
        return np.zeros((pattern.m, 0, pattern.n))
    t = np.stack(blocks, axis=1)
    t *= np.sqrt(pattern.counts)[:, None]
    return t


def tensor_to_mat(t: np.ndarray, pattern: BlockPattern) -> np.ndarray:
    """Map an ``m x p x n`` tensor back to the block matrix
    ``sum_k E_k (x) slice_k``; the exact inverse of :func:`mat_to_tensor`."""
    if t.ndim != 3:
        raise ShapeError("tensor_to_mat expects an order-3 tensor")
    if t.shape[1] != pattern.p or t.shape[0] != pattern.m or t.shape[2] != pattern.n:
        raise ShapeError(
            f"tensor extents {t.shape} do not match pattern "
            f"({pattern.m}, {pattern.p}, {pattern.n})"
        )
    return struct_expand(pattern, [t[:, k, :] for k in range(pattern.p)])
