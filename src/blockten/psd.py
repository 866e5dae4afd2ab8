"""Symmetry-aware compression that preserves (semi)definiteness.

Two constructions for symmetric block matrices whose pattern is
*transpose-closed* (every class is either symmetric-supported with a
symmetric block, or mirrored exactly by the class holding the transposed
block):

* :func:`spsd_compress` shares one orthonormal basis ``U`` between tensor
  modes 1 and 3 (legitimate because transpose-closure makes the two
  unfoldings span the same subspace), which reproduces the two-sided
  projection ``(I (x) UU^T) A (I (x) UU^T)`` -- symmetric always, and
  positive semidefinite whenever ``A`` is.

* :func:`spd_compress` peels off the block-diagonal anchor ``I (x) T0``,
  scales the remainder by the anchor's Cholesky factor, compresses it with
  the shared-basis projection, and reassembles
  ``(I (x) L)(I + M)(I (x) L^T)``.  The result is provably SPD: the
  quadratic form splits into ``||x2||^2 + x1^T (I + A) x1`` over the
  projected/unprojected parts, and ``I + A`` is congruent to the original
  SPD matrix.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .blocks import BlockPattern, _classify, blocks_to_tensor, extract_blocks
from .decomp import _certified_gram_basis, _mode_basis, cholesky
from .errors import PatternMismatchError, ShapeError
from .reconstruct import BlockLowRankRep, FlopCounter, _check_vector, _form

__all__ = [
    "SpsdRep",
    "SpdRep",
    "check_transpose_closed",
    "spsd_compress",
    "spsd_compress_blocks",
    "spd_compress",
    "spd_compress_blocks",
]

_TRANSPOSE_TOL = 1e-12  # transpose partners may differ by this share of the largest entry


@_form
class SpsdRep:
    """Shared-basis projection of a symmetric block matrix.

    Attributes:
        pattern: The (square, transpose-closed) source pattern.
        basis: ``n x r`` shared orthonormal basis ``U`` (``n x 0`` with no class).
        blocks: ``(p, r, r)`` projected distinct blocks ``U^T A_k U``.
    """

    pattern: BlockPattern
    basis: np.ndarray
    blocks: np.ndarray

    def __post_init__(self) -> None:
        n, r = self.basis.shape
        if self.pattern.m != n or self.pattern.n != n:
            raise ShapeError("basis rows must equal the square block extent")
        if self.blocks.shape != (self.pattern.p, r, r):
            raise ShapeError(f"blocks shape {self.blocks.shape} != ({self.pattern.p}, {r}, {r})")

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def as_blr(self) -> BlockLowRankRep:
        """The same operator as a block-low-rank representation."""
        eta = np.sqrt(self.pattern.counts)[:, None, None]
        return BlockLowRankRep(pattern=self.pattern, left=self.basis.copy(),
                               right=self.basis.copy(), middles=self.blocks * eta)

    @cached_property
    def _blr(self) -> BlockLowRankRep:
        return self.as_blr()  # built at the first product and kept

    def matvec(self, x: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
        return self._blr.matvec(x, counter)

    def cell_blocks(self) -> tuple[BlockPattern, np.ndarray]:
        """Every cell of class ``k`` holds ``U blocks[k] U^T``."""
        return self.pattern, self.basis @ self.blocks @ self.basis.T

    def stored_scalars(self) -> int:
        return self.basis.size + self.blocks.size

    def distinct_scalars(self) -> int:
        """Scalars of the ``p`` distinct dense blocks the form replaces."""
        return self.pattern.p * self.pattern.m * self.pattern.n

    def trace(self) -> float:
        """Trace of the represented matrix, computed without densifying."""
        classes, diag_cells = np.unique(np.diag(self.pattern.class_of), return_counts=True)
        return float(sum(c * float(np.trace(self.blocks[k]))
                         for k, c in zip(classes, diag_cells) if k >= 0))


@_form
class SpdRep:
    """SPD-preserving compression ``(I (x) chol)(I + M)(I (x) chol^T)``.

    ``M`` is the shared-basis projection (an :class:`SpsdRep` over the
    scaled remainder pattern, which may have zero classes when the input is
    exactly block diagonal).  ``spd_compress`` splits every remainder class
    into its diagonal and off-diagonal cells.
    """

    chol: np.ndarray
    remainder: SpsdRep
    ell: int

    def __post_init__(self) -> None:
        pat = self.remainder.pattern
        if not self.ell == pat.ell == pat.q or self.chol.shape != (pat.m, pat.m):
            raise ShapeError(f"anchor count {self.ell} and chol {self.chol.shape} do not fit "
                             f"a {pat.ell} x {pat.q} grid of {pat.m} x {pat.n} remainder blocks")

    @property
    def rank(self) -> int:
        return self.remainder.rank

    @property
    def shape(self) -> tuple[int, int]:
        return self.remainder.shape

    def matvec(self, x: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
        """``(I (x) L)(I + M)(I (x) L^T) x`` blockwise, ``M`` applied in its
        block-low-rank form."""
        ell, nb = self.ell, self.chol.shape[0]
        _check_vector(x, ell * nb)
        z = (x.reshape(ell, nb) @ self.chol).ravel()  # blockwise L^T x_i
        if counter is not None:
            counter.add(4 * ell * nb * nb)
        z = z + self.remainder.matvec(z, counter)
        return (z.reshape(ell, nb) @ self.chol.T).ravel()

    def cell_blocks(self) -> tuple[BlockPattern, np.ndarray]:
        """A diagonal cell holds ``T0 + L U b_k U^T L^T`` (``T0 = L L^T``, or
        ``T0`` alone where no remainder class reaches), an off-diagonal one
        ``L U b_k U^T L^T``."""
        pat, inner = self.remainder.cell_blocks()
        anchor = self.chol @ self.chol.T
        cells, klass, items = _split_diagonal(pat, self.chol @ inner @ self.chol.T, anchor)
        free = np.flatnonzero(np.diag(pat.class_of) < 0)
        if free.size:
            cells = np.vstack([cells, np.column_stack([free, free])])
            klass = np.append(klass, np.full(free.size, len(items)))
            items = np.vstack([items, anchor[None]])
        return BlockPattern(self.ell, self.ell, pat.m, pat.n, cells, klass), items

    def stored_scalars(self) -> int:
        n = self.chol.shape[0]
        return n * (n + 1) // 2 + self.remainder.stored_scalars()

    def distinct_scalars(self) -> int:
        return self.remainder.distinct_scalars() + self.chol.size  # plus the anchor block


def _split_diagonal(pattern: BlockPattern, items, shift: np.ndarray, nonzero: bool = False):
    """Every class ``k`` split into part ``2k``, its diagonal cells holding
    ``items[k] + shift``, and part ``2k + 1``, its other cells holding
    ``items[k]``.  Returns the ``(cells, klass, items)`` table of the parts
    that have cells (and, with ``nonzero``, an item not all zero), numbered
    and sorted in part order; only the parts kept are copied."""
    part = 2 * pattern.klass + (pattern.cells[:, 0] != pattern.cells[:, 1])
    keep = np.bincount(part, minlength=2 * pattern.p) > 0
    parts = [items[j // 2] + shift if j % 2 == 0 else items[j // 2] for j in np.flatnonzero(keep)]
    if nonzero:  # a diagonal part is a sum, any other a view of its item
        keep[keep] = live = [np.any(x) for x in parts]
        parts = [x for x, ok in zip(parts, live) if ok]
    order = np.argsort(part, kind="stable")
    order = order[keep[part[order]]]
    parts = np.array(parts, dtype=np.float64).reshape(-1, *shift.shape)
    return pattern.cells[order], (np.cumsum(keep) - 1)[part[order]], parts


def check_transpose_closed(pattern: BlockPattern, blocks) -> list[int]:
    """Verify that transposing the matrix permutes the classes.

    For every class ``k``, the transposed support must be the support of
    some class ``j`` (possibly ``k`` itself) whose block equals ``A_k^T``
    within ``_TRANSPOSE_TOL * max(1, max |A|)``.  Returns the partner ``j``
    of every class.

    Raises:
        ShapeError: If the grid or the blocks are not square.
        PatternMismatchError: If any class has no transpose partner.
    """
    if pattern.ell != pattern.q or pattern.m != pattern.n:
        raise ShapeError("transpose closure needs a square grid of square blocks")
    mirror = pattern.class_of.T  # class of the transposed cell, -1 if none
    scale = None  # max(1, max |A|), read at the first pair that is not exactly equal
    found = []
    for k, cells in enumerate(pattern.placements):
        partners = mirror[cells[:, 0], cells[:, 1]]
        partner = int(partners[0])
        if partner < 0 or np.any(partners != partner) or pattern.counts[partner] != len(cells):
            raise PatternMismatchError(f"class {k + 1}: transposed support matches no class")
        pair, transpose = np.asarray(blocks[partner]), np.asarray(blocks[k]).T
        if not np.array_equal(pair, transpose):
            scale = scale or max([1.0, *(float(np.abs(b).max(initial=0.0)) for b in blocks)])
            if np.max(np.abs(pair - transpose)) > _TRANSPOSE_TOL * scale:
                raise PatternMismatchError(f"class {k + 1}: block transpose differs from class "
                                           f"{partner + 1}")
        found.append(partner)
    return found


def _shared_basis_rep(pattern: BlockPattern, blocks, r: int) -> SpsdRep:
    """Mode-1 basis of the weighted tensor, shared with mode 3: certified from
    ``G = sum eta_k B_k B_k^T`` over the nonzero classes, else the stacked one."""
    n = pattern.m
    if not 1 <= r <= n:
        raise ShapeError(f"rank {r} out of range for block extent {n}")
    nz = [k for k, blk in enumerate(blocks) if np.any(blk)]
    weighted = [(pattern.counts[k], blocks[k]) for k in nz]
    r = r if pattern.p else 0  # no class to project: an n x 0 basis, (0, 0, 0) blocks
    u = _certified_gram_basis(weighted, r) if nz else np.eye(n, r)  # the basis of a zero unfolding
    if u is None:  # its zero classes add zero columns, which _mode_basis drops
        u = _mode_basis(blocks_to_tensor(pattern, blocks).reshape(n, -1), r)
    proj = np.zeros((pattern.p, r, r))  # a zero class projects to a zero block
    for k in nz:
        proj[k] = u.T @ blocks[k] @ u
    return SpsdRep(pattern=pattern, basis=u, blocks=proj)


def spsd_compress_blocks(pattern: BlockPattern, blocks, r: int) -> SpsdRep:
    """:func:`spsd_compress` from the distinct blocks, for matrices too large to
    assemble densely; they are stacked only when the basis's Gram certificate fails."""
    check_transpose_closed(pattern, blocks)
    return _shared_basis_rep(pattern, blocks, r)


def spsd_compress(a: np.ndarray, pattern: BlockPattern, r: int) -> SpsdRep:
    """Compress a symmetric block matrix with one basis on both sides.

    Args:
        a: Symmetric matrix conforming to ``pattern`` (square grid, square
            blocks, transpose-closed classes).
        r: Shared basis rank, ``1 <= r <= n``.

    Returns:
        :class:`SpsdRep` representing ``(I (x) UU^T) A (I (x) UU^T)``.
    """
    return spsd_compress_blocks(pattern, extract_blocks(a, pattern), r)


def spd_compress(a: np.ndarray, pattern: BlockPattern, r: int) -> SpdRep:
    """SPD-preserving compression of ``a``: :func:`spd_compress_blocks` of
    its blocks, extracted exactly."""
    return spd_compress_blocks(pattern, extract_blocks(a, pattern), r)


def spd_compress_blocks(pattern: BlockPattern, blocks, r: int) -> SpdRep:
    """SPD-preserving compression anchored at the leading diagonal block.

    The block at grid cell (1, 1) is taken as the anchor ``T0`` (it must be
    SPD -- its failed Cholesky is the error signal).  Classes are split into
    diagonal/off-diagonal parts, the anchor is subtracted on the diagonal,
    the remainder blocks are scaled to ``L^-1 B L^-T``, and the scaled
    remainder is compressed with the shared-basis projection at rank ``r``.
    Closure is checked before scaling, and partners are scaled as exact transposes
    (solves against an ill-conditioned anchor break symmetry beyond rounding).

    Returns:
        :class:`SpdRep`; its ``densify()`` is SPD for every ``1 <= r <= n``.

    Raises:
        NotPositiveDefiniteError: If the anchor block is not SPD.
        PatternMismatchError: If cell (1, 1) belongs to no class or the
            remainder is not transpose-closed.
    """
    anchor_class = pattern.class_of[0, 0]
    if anchor_class < 0:
        raise PatternMismatchError("grid cell (1, 1) belongs to no class; no anchor block")
    anchor = blocks[anchor_class]
    low = cholesky(anchor)

    from scipy.linalg import solve_triangular  # deferred: scipy.linalg is slow to import

    # subtract the anchor on the diagonal, drop exactly-zero remainders
    cells, klass, parts = _split_diagonal(pattern, blocks, -anchor, nonzero=True)
    rem_pattern = BlockPattern(pattern.ell, pattern.q, pattern.m, pattern.n, cells, klass,
                               _classify(cells, klass, pattern.ell, pattern.q))
    for k, j in enumerate(check_transpose_closed(rem_pattern, parts)):
        if k <= j:  # scaled in place: part j, the partner of k, is not read again
            s = solve_triangular(low, solve_triangular(low, parts[k], lower=True).T, lower=True).T
            parts[j] = s.T
            parts[k] = s if k < j else (s + s.T) / 2
    return SpdRep(chol=low, remainder=_shared_basis_rep(rem_pattern, parts, r), ell=pattern.ell)
