"""Structured matrix representations recovered from tensor factorizations.

Every compressed form answers ``shape``, ``matvec(x, counter=None)``,
``densify()``, ``stored_scalars()`` and ``cell_blocks()`` -- a pattern and
the ``(p, m, n)`` stack of blocks every cell of class ``k`` holds, over which
:func:`densify`, :func:`error_fro` and, against verified blocks, :func:`class_error_fro`
are written once; ``shape`` and ``densify`` come from one class decorator.  The two
forms built here keep the source pattern without materializing Kronecker products:

* :class:`KronSumRep` -- a sum ``sum_j C_j (x) D_j`` where each ``C_j`` is a
  sparse scalar assembly over the pattern's placements (support inside the
  union of the ``E_k`` supports) and each ``D_j`` is a dense ``m x n`` term.
* :class:`BlockLowRankRep` -- ``(I (x) L) S (I (x) R^T)`` with thin
  orthonormal-ish side bases ``L``, ``R`` and a block-sparse middle ``S``
  holding one small block per class.

Both apply themselves through a class grid, CSR or, on a filled grid, dense
(``blocks._grid_is_filled``), and optionally tally multiply-add counts into a
:class:`FlopCounter`, which is how the linear-in-rank cost claim is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .blocks import (
    BlockPattern,
    _cells,
    _check_dense_size,
    _class_grid,
    _dense_class_grid,
    _grid_is_filled,
    _per_cell,
    _to_check,
    struct_assemble,
)
from .decomp import KruskalRep, TuckerRep, qr_thin
from .errors import ShapeError
from .tensor import in_normal_range, scale_exponent

__all__ = ["KronSumRep", "BlockLowRankRep", "FlopCounter", "kron_sum_from_tucker",
           "kron_sum_from_kruskal", "blr_from_tucker", "blr_from_kruskal", "matvec", "densify",
           "error_fro", "class_error_fro", "rows_error_fro"]


class FlopCounter:
    """Accumulates the structural multiply-add counts :func:`matvec` reports.  A dense
    kernel on a filled grid also multiplies zeros: at most ``blocks._DENSE_FILL`` times its
    class-grid step's count, plus ``r_right * sum(eta)`` for the block-low-rank gather."""

    def __init__(self) -> None:
        self.flops = 0

    def add(self, n: float) -> None:
        self.flops += int(n)


def _check_vector(x: np.ndarray, cols: int) -> None:
    if x.shape != (cols,):
        raise ShapeError(f"vector length {x.shape} != {(cols,)}")


def densify(rep) -> np.ndarray:
    """Materialize any representation from its ``cell_blocks()``.

    Raises:
        ShapeError: If the dense result would exceed ``DENSIFY_LIMIT``
            entries.
    """
    _check_dense_size(*rep.shape)
    return struct_assemble(*rep.cell_blocks())


def _form(cls):
    """A frozen dataclass with :func:`densify` and, unless its body defines one, ``shape``
    (``self.pattern.shape``) in its own ``__dict__``, where the benchmark tracer reads them."""
    cls = dataclass(frozen=True)(cls)
    if "shape" not in cls.__dict__:
        cls.shape = property(lambda self: self.pattern.shape)
    cls.densify = densify
    return cls


@_form
class KronSumRep:
    """``sum_j C_j (x) terms[j]`` with ``C_j = sum_k coeffs[k, j] E_k``.

    Attributes:
        pattern: Block pattern supplying the placement matrices ``E_k``.
        coeffs: ``(p, r)`` array; column ``j`` gives the per-class scalars
            of ``C_j`` (the ``1/sqrt(eta_k)`` normalization stays inside
            ``E_k``).
        terms: ``(r, m, n)`` stack of the dense Kronecker partners ``D_j``.
    """

    pattern: BlockPattern
    coeffs: np.ndarray
    terms: np.ndarray

    def __post_init__(self) -> None:
        p, r = self.coeffs.shape
        if p != self.pattern.p:
            raise ShapeError(f"coeffs rows {p} != number of classes {self.pattern.p}")
        if self.terms.shape != (r, self.pattern.m, self.pattern.n):
            raise ShapeError(f"terms shape {self.terms.shape} != "
                             f"({r}, {self.pattern.m}, {self.pattern.n})")

    @property
    def n_terms(self) -> int:
        return self.coeffs.shape[1]

    @cached_property
    def _c_stack(self) -> np.ndarray | sp.csr_matrix:
        """``sum_k E_k (x) coeffs[k]``, whose column ``c * r + j`` holds ``C_j[:, c]``,
        dense on a filled grid, else CSR; built at the first product and kept."""
        if _grid_is_filled(self.pattern, self.pattern.q):
            return _dense_class_grid(self.pattern, self.coeffs).reshape(self.pattern.ell, -1)
        return _class_grid(self.pattern, self.coeffs, key="col")

    def matvec(self, x: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
        """``sum_j (C_j (x) D_j) x`` as one product with the stacked ``C_j``:
        row ``c * r + j`` of the right-hand side is ``(D_j x_c)^T``."""
        pat = self.pattern
        _check_vector(x, pat.shape[1])
        m, n, q, r = pat.m, pat.n, pat.q, self.n_terms
        dx = x.reshape(q, n) @ self.terms.reshape(r * m, n).T  # row c is x_c^T
        if counter is not None:
            counter.add(r * (2 * m * n * q + 2 * m * sum(pat.counts)))
        return (self._c_stack @ dx.reshape(q * r, m)).ravel()

    def cell_blocks(self) -> tuple[BlockPattern, np.ndarray]:
        items = np.tensordot(self.coeffs, self.terms, axes=(1, 0))
        return self.pattern, items / np.sqrt(self.pattern.counts)[:, None, None]

    def stored_scalars(self) -> int:
        return self.coeffs.size + int(np.count_nonzero(self.terms))


@_form
class BlockLowRankRep:
    """``(I (x) left) S (I (x) right^T)`` with a block-sparse middle ``S``.

    ``middles[k]`` is the small block placed (scaled by ``1/sqrt(eta_k)``)
    on every cell of class ``k``; equivalently ``S = sum_k E_k (x)
    middles[k]``.  ``left`` is ``m x r_left``, ``right`` is ``n x r_right``,
    and each middle is ``r_left x r_right``.
    """

    pattern: BlockPattern
    left: np.ndarray
    right: np.ndarray
    middles: np.ndarray

    def __post_init__(self) -> None:
        rl, rr = self.left.shape[1], self.right.shape[1]
        if self.left.shape[0] != self.pattern.m or self.right.shape[0] != self.pattern.n:
            raise ShapeError("side bases do not match the pattern's block extents")
        if self.middles.shape != (self.pattern.p, rl, rr):
            raise ShapeError(f"middles shape {self.middles.shape} != {(self.pattern.p, rl, rr)}")

    @cached_property
    def _middle_stack(self) -> np.ndarray:
        """The middles as ``(p * r_right, r_left)`` (row ``k * r_right + b`` is
        ``middles[k][:, b]``): a view of ``(k, b, a)``-ordered middles, else a copy."""
        p, rl, rr = self.middles.shape
        return np.ascontiguousarray(self.middles.transpose(0, 2, 1)).reshape(p * rr, rl)

    def matvec(self, x: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
        """``(I (x) left) S (I (x) right^T) x``: the class grid of the ``right^T x_c`` keyed by
        class (on a filled grid, the placement rows times them) times the stacked middles."""
        pat = self.pattern
        _check_vector(x, pat.shape[1])
        rl, rr = self.left.shape[1], self.right.shape[1]
        z = x.reshape(pat.q, pat.n) @ self.right  # row c is (right^T x_c)^T
        if _grid_is_filled(pat, pat.p):
            grid = (pat._placement_rows @ z).reshape(pat.ell, pat.p * rr)
        else:
            grid = _class_grid(pat, z, key="class", like=self.__dict__.get("_grid"))
            self.__dict__.setdefault("_grid", grid)  # later products share its index arrays
        y = grid @ self._middle_stack
        if counter is not None:
            counter.add(2 * pat.n * rr * pat.q + 2 * rl * rr * sum(pat.counts)
                        + 2 * pat.m * rl * pat.ell)
        return (y @ self.left.T).ravel()

    def cell_blocks(self) -> tuple[BlockPattern, np.ndarray]:
        items = self.left @ self.middles @ self.right.T
        return self.pattern, items / np.sqrt(self.pattern.counts)[:, None, None]

    def stored_scalars(self) -> int:
        return self.left.size + self.right.size + self.middles.size


# ---------------------------------------------------------------------------
# converters out of the tensor formats
# ---------------------------------------------------------------------------


def _check_dims(kind: str, dims: tuple[int, ...], pattern: BlockPattern) -> None:
    """An order-3 factorization of the pattern's ``m x p x n`` tensor."""
    if dims != (pattern.m, pattern.p, pattern.n):
        raise ShapeError(f"{kind} dims {dims} do not match pattern "
                         f"({pattern.m}, {pattern.p}, {pattern.n})")


def kron_sum_from_tucker(t: TuckerRep, pattern: BlockPattern) -> KronSumRep:
    """Kron-sum whose ``C_j`` take mode-2 factor column ``j`` as class
    scalars and whose ``D_j = U core[:, j, :] W^T`` fold in the side bases.

    The number of terms is the mode-2 rank.  With all factors identity this
    reduces to one term per class: ``C_k = E_k`` and ``D_k`` the weighted
    slice ``sqrt(eta_k) A_k``.
    """
    _check_dims("Tucker", t.dims, pattern)
    u, v, w = t.factors
    coeffs = np.eye(pattern.p) if v is None else v.copy()
    terms = np.moveaxis(t.core, 1, 0)  # core[:, j, :] for every term j
    if u is not None:
        terms = u @ terms
    if w is not None:
        terms = terms @ w.T
    return KronSumRep(pattern=pattern, coeffs=coeffs, terms=np.ascontiguousarray(terms))


def _cp_as_tucker(k: KruskalRep, qr_modes: tuple[int, ...] = ()) -> TuckerRep:
    """``k`` as a Tucker form: factors ``(X, Y, Z)`` on a superdiagonal core of ones, as the
    Kronecker sum takes it; each mode in ``qr_modes`` (1 and 3 for the block-low-rank form)
    swaps its factor for its thin QR's ``Q``, the core becoming the CP of those ``R``."""
    factors, small = [k.x, k.y, k.z], [np.eye(k.rank)] * 3
    for mode in qr_modes:
        factors[mode - 1], small[mode - 1] = qr_thin(factors[mode - 1])
    return TuckerRep(core=KruskalRep(*small).reconstruct(), factors=tuple(factors))


def kron_sum_from_kruskal(k: KruskalRep, pattern: BlockPattern) -> KronSumRep:
    """Kron-sum of a CP factorization's Tucker form, one term per component: column ``j``
    of ``Y`` gives the class scalars of ``C_j`` and ``D_j`` is the rank-one
    ``X[:, j] Z[:, j]^T``, stored as a dense ``m x n`` block (so the form can store more
    than :func:`blr_from_kruskal`'s)."""
    return kron_sum_from_tucker(_cp_as_tucker(k), pattern)


def blr_from_tucker(t: TuckerRep, pattern: BlockPattern) -> BlockLowRankRep:
    """Block-low-rank form: side bases from modes 1 and 3, middle blocks
    ``sum_j V[k, j] core[:, j, :]`` (identity mode-2 factor means the middle
    block of class ``k`` is the core slice itself).  Middles from ``V`` come out
    of one GEMM in ``(k, b, a)`` memory order, so the matvec stacks them as a view."""
    _check_dims("Tucker", t.dims, pattern)
    u, v, w = t.factors
    left = np.eye(pattern.m) if u is None else u.copy()
    right = np.eye(pattern.n) if w is None else w.copy()
    a, j, b = t.core.shape
    middles = (np.moveaxis(t.core, 1, 0) if v is None
               else (v @ t.core.transpose(1, 2, 0).reshape(j, -1)).reshape(-1, b, a).swapaxes(1, 2))
    return BlockLowRankRep(pattern=pattern, left=left, right=right, middles=middles)


def blr_from_kruskal(k: KruskalRep, pattern: BlockPattern) -> BlockLowRankRep:
    """Block-low-rank form of a CP factorization's Tucker form, modes 1 and 3
    orthonormalized by thin QR: middles ``R_x diag(Y[k, :]) R_z^T``.

    Raises:
        ShapeError: If the CP rank exceeds ``m`` or ``n`` (the QR of a wide
            factor gives no orthonormal column basis).
    """
    _check_dims("CP", k.dims, pattern)
    if pattern.m < k.rank or pattern.n < k.rank:
        raise ShapeError(f"CP rank {k.rank} exceeds a block extent ({pattern.m} x {pattern.n})")
    return blr_from_tucker(_cp_as_tucker(k, (1, 3)), pattern)


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


def matvec(rep, x: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Apply any representation to ``x`` (``rep.matvec``): a vector of
    length ``rep.shape[1]`` to one of length ``rep.shape[0]``; ``counter``
    optionally receives the multiply-add count of the product."""
    return rep.matvec(x, counter)


def _squared_error(cells, pat: BlockPattern, blocks, e: int) -> tuple[float, float]:
    """``(||a||^2, ||a - densify(rep)||^2)`` with ``a`` and the blocks scaled
    by ``2**-e``, summed over each class's copies (an absent copy reads as
    zeros, so it adds ``||B_k||^2``) and the present cells no class claims
    (whole energy), chunk by chunk of ``blocks._per_cell``."""
    ids, klass = _to_check(cells, pat)
    blocks = np.asarray(blocks, dtype=np.float64)
    if e:
        blocks = np.ldexp(blocks, -e)

    def squares(x, where):  # x is a fresh copy, scaled in place
        if e:
            np.ldexp(x, -e, out=x)
        base, k = np.vdot(x, x), klass[where]
        claimed = np.searchsorted(k, pat.p)  # unclaimed cells come last
        x[:claimed] -= blocks[k[:claimed]]
        return [(base, np.vdot(x, x))]

    return tuple(_per_cell(cells, ids, squares).reshape(-1, 2).sum(axis=0))


def error_fro(a, rep) -> float:
    """Relative Frobenius error ``||a - densify(rep)|| / ||a||`` for any
    ``a`` (dense or scipy sparse) of the representation's shape, without
    forming ``densify(rep)``.

    On the grid of ``rep.cell_blocks()``, both squares are sums of
    nonnegative entrywise terms (:func:`_squared_error`), so the residual does
    not cancel at small errors.  When either leaves the normal float range,
    both are redone with ``a`` and the blocks rescaled exactly by a power of two.

    Raises:
        ShapeError: If the shapes differ or ``a`` is zero.
    """
    if a.shape != rep.shape:
        raise ShapeError(f"matrix shape {a.shape} != representation shape {rep.shape}")
    pat, blocks = rep.cell_blocks()
    cells = _cells(a, pat.ell, pat.q, pat.m, pat.n)
    return _relative(lambda e: _squared_error(cells, pat, blocks, e), cells.scale_exponent)


def class_error_fro(pattern: BlockPattern, blocks, rep) -> float:
    """:func:`error_fro` of the matrix holding ``blocks[i]`` on each cell of class ``i`` of
    ``pattern`` (zeros elsewhere) against ``rep``: class ``i`` meeting class ``j`` of
    ``rep.cell_blocks()`` on ``c`` cells (no class: a zero block) adds ``c ||B_i||^2`` and
    ``c ||B_i - A_j||^2``; a form keeping ``pattern`` meets it ``(k, k)`` on ``eta_k`` cells."""
    form, approx = rep.cell_blocks()
    if (form.ell, form.q, form.m, form.n) != (pattern.ell, pattern.q, pattern.m, pattern.n):
        raise ShapeError("the form's block grid differs from the source pattern's")
    key = (pattern.class_of + 1) * (form.p + 1) + form.class_of + 1  # 0 where neither claims
    pairs, counts = np.unique(key[key > 0], return_counts=True)
    src, dst = ([*stack, np.zeros((pattern.m, pattern.n))] for stack in (blocks, approx))

    def squares(e: int) -> tuple[float, float]:
        base = resid = 0.0
        for pair, c in zip(pairs.tolist(), counts):
            b, b_hat = src[pair // (form.p + 1) - 1], dst[pair % (form.p + 1) - 1]
            if e:
                b, b_hat = np.ldexp(b, -e), np.ldexp(b_hat, -e)
            d = b - b_hat
            base, resid = base + c * np.vdot(b, b), resid + c * np.vdot(d, d)
        return base, resid

    return _relative(squares, lambda: scale_exponent(np.asarray(blocks)))  # a zero block's is 0


def rows_error_fro(rows: np.ndarray, basis: np.ndarray) -> float:
    """``||M - V V^T M|| / ||M||`` of the verified mode-2 rows ``M`` on their support
    (``blocks.blocks_to_rows``) and a basis ``V``: by the isometry, the error of a form
    holding ``V V^T M`` there, both norms summed as nonnegative squares."""
    pair = (rows, rows - basis @ (basis.T @ rows))
    return _relative(lambda e: [np.vdot(x, x) for x in (np.ldexp(y, -e) for y in pair)],
                     lambda: scale_exponent(rows))


def _relative(squares, exponent) -> float:
    """``sqrt(resid / base)`` of ``squares(0)``, redone at ``exponent()`` off the normal range."""
    base, resid = squares(0)
    if not (in_normal_range(base) and in_normal_range(resid)):
        base, resid = squares(exponent())
    if base == 0.0:
        raise ShapeError("relative error undefined for a zero matrix")
    return float(np.sqrt(resid) / np.sqrt(base))
