"""Nested (multilevel) block structure: patterns within patterns.

A level-``L`` structured matrix has an outer block grid whose distinct
blocks are themselves structured, down to dense innermost ``m x n`` blocks.
The weighted tensor becomes order ``L + 2``: mode 1 and mode ``L + 2`` index
the innermost block rows/columns, and mode ``1 + t`` indexes the classes of
level ``t`` (level 1 outermost).  Lateral "slices" along a class multi-index
``(k_1, ..., k_L)`` hold the innermost block scaled by
``sqrt(eta^(1)_{k_1} * ... * eta^(L)_{k_L})``, which again makes the map an
isometry, so tensor-side truncation error equals matrix-side error exactly.

A Tucker factorization ``core x U x V_1 ... x V_L x W`` of that tensor is the
matrix ``sum_c C_{1,c_1} (x) ... (x) C_{L,c_L} (x) U core[:, c, :] W^T`` with
``C_{t,c} = sum_k V_t[k, c] E^(t)_k``.  :class:`MultilevelTuckerRep` applies
it one level at a time and never forms the matrix or its Kronecker terms.

Levels are capped at 3 (tensor order 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPattern, _band_cells, _dense_class_grid as _level_stack, extract_blocks
from .decomp import TuckerRep
from .errors import PatternMismatchError, ShapeError
from .reconstruct import _check_vector, _form, densify

__all__ = [
    "MultilevelPattern",
    "MultilevelTuckerRep",
    "ml_mat_to_tensor",
    "ml_tensor_to_mat",
    "psf_weighted_tensor",
    "blur_operator_dense",
]

MAX_LEVELS = 3


@dataclass(frozen=True)
class MultilevelPattern:
    """A chain of block patterns, outermost first.

    ``levels[t]`` describes the block grid at depth ``t``; its block extents
    ``(m, n)`` must equal the assembled shape of the next level.  The
    innermost extents are ``levels[-1].m`` by ``levels[-1].n``.
    """

    levels: tuple[BlockPattern, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.levels) <= MAX_LEVELS:
            raise ShapeError(f"between 1 and {MAX_LEVELS} levels supported")
        for t in range(len(self.levels) - 1):
            outer, inner = self.levels[t], self.levels[t + 1]
            if (outer.m, outer.n) != inner.shape:
                raise ShapeError(f"level {t + 1} block extents {(outer.m, outer.n)} != "
                                 f"level {t + 2} assembled shape {inner.shape}")

    @property
    def dims(self) -> tuple[int, ...]:
        """Extents of the weighted tensor: ``(m, p_1, ..., p_L, n)``."""
        return (self.levels[-1].m, *(lv.p for lv in self.levels), self.levels[-1].n)

    @property
    def shape(self) -> tuple[int, int]:
        return self.levels[0].shape


def ml_mat_to_tensor(a: np.ndarray, mlp: MultilevelPattern, tol: float = 0.0) -> np.ndarray:
    """Extract the order-``L+2`` weighted tensor of a conforming matrix.

    Descends the level chain with :func:`extract_blocks`: at each level the
    representative sub-block of every class is pulled from its first
    placement, all other placements are verified against it (within
    ``tol``), and uncovered cells must be zero.

    Raises:
        PatternMismatchError: On any disagreement at any level.
    """
    out = np.zeros(mlp.dims)  # extract_blocks checks the shape of ``a``

    def descend(block: np.ndarray, level: int, prefix: tuple[int, ...], weight: float) -> None:
        if level == len(mlp.levels):
            out[(slice(None), *prefix, slice(None))] = weight * block
            return
        pat = mlp.levels[level]
        try:
            reps = extract_blocks(block, pat, tol=tol)
        except PatternMismatchError as exc:
            raise PatternMismatchError(f"level {level + 1}, {exc}") from None
        for k, rep in enumerate(reps):
            descend(rep, level + 1, prefix + (k,), weight * np.sqrt(pat.counts[k]))

    descend(a, 0, (), 1.0)
    return out


def ml_tensor_to_mat(t: np.ndarray, mlp: MultilevelPattern) -> np.ndarray:
    """``sum E^(1) (x) ... (x) E^(L) (x) slice``: the :func:`densify` of ``t``'s
    identity-factor :class:`MultilevelTuckerRep` (so it refuses more than
    ``DENSIFY_LIMIT`` entries); exact inverse of :func:`ml_mat_to_tensor`."""
    return densify(MultilevelTuckerRep(pattern=mlp, tucker=TuckerRep(t, (None,) * t.ndim)))


@_form
class MultilevelTuckerRep:
    """A level chain paired with the Tucker factorization of its weighted
    order-``L+2`` tensor."""

    pattern: MultilevelPattern
    tucker: TuckerRep

    def __post_init__(self) -> None:
        if self.tucker.dims != self.pattern.dims:
            raise ShapeError(f"tucker dims {self.tucker.dims} != pattern dims {self.pattern.dims}")

    def matvec(self, x: np.ndarray, counter=None) -> np.ndarray:
        """``A x`` level by level, innermost first, never forming ``A``.

        ``x`` is read as a ``(q_1, ..., q_L, n)`` array and ``W`` applied to
        its last axis.  Level ``t`` applies its stack ``S_t[i, j, c] =
        C_{t,c}[i, j]`` along its grid axis ``j``.  The innermost level's
        ``c`` and ``W``'s mode are contracted with the core right after it;
        every outer level contracts ``j`` and its own core mode at once.
        ``U`` maps the last core mode to block rows.  Work and the largest
        intermediate grow with the ranks, not with ``rows x cols``;
        ``counter`` receives two flops per multiply-add done.
        """
        _check_vector(x, self.shape[1])
        levels, factors = self.pattern.levels, self.tucker.factors
        stacks = [_level_stack(lv, f) for lv, f in zip(levels, factors[1:-1])]
        # C-ordered operands: a form and its container copy round alike
        core = np.ascontiguousarray(self.tucker.core)
        u, w = (None if f is None else np.ascontiguousarray(f) for f in (factors[0], factors[-1]))
        last = len(levels) - 1
        z = x.reshape(*(lv.q for lv in levels), -1)
        madds = 0
        if w is not None:
            z = z @ w
            madds += z.size * w.shape[0]
        z = np.tensordot(z, stacks[last], axes=(last, 1))  # (q.., r_W, ell_last, r_last)
        madds += z.size * stacks[last].shape[1]
        z = np.tensordot(z, core, axes=([last + 2, last], [last + 1, last + 2]))
        madds += z.size * core.shape[-2] * core.shape[-1]
        for t in range(last - 1, -1, -1):  # 0-based t; z: (q_0..q_t, ell_t+1.., r_U, r_0..r_t)
            z = np.moveaxis(np.tensordot(z, stacks[t], axes=([t, -1], [1, 2])), -1, t)
            madds += z.size * stacks[t].shape[1] * stacks[t].shape[2]
        if u is not None:
            z = z @ u.T
            madds += z.size * u.shape[1]
        if counter is not None:
            counter.add(2 * madds)
        return z.ravel()

    def cell_blocks(self) -> tuple[BlockPattern, np.ndarray]:
        """The outermost level's pattern and, per class, its assembled inner
        matrix over ``sqrt(eta_k)``."""
        outer, inner = self.pattern.levels[0], self.pattern.levels[1:]
        t = np.moveaxis(self.tucker.reconstruct(), 1, 0)
        if inner:
            t = [ml_tensor_to_mat(sub, MultilevelPattern(levels=inner)) for sub in t]
        items = np.reshape(t, (outer.p, outer.m, outer.n))
        return outer, items / np.sqrt(outer.counts)[:, None, None]

    def stored_scalars(self) -> int:
        return self.tucker.core.size + sum(f.size for f in self.tucker.factors if f is not None)


# ---------------------------------------------------------------------------
# point-spread-function blur operators (3-level banded Toeplitz)
# ---------------------------------------------------------------------------


def _kernel_level_pattern(k: int, bm: int, bn: int) -> BlockPattern:
    """Banded Toeplitz level with classes in kernel order.

    Class ``i`` (0-based) sits on the grid diagonal ``col - row = h - i``
    with ``h = (k - 1) // 2``, so class index equals kernel index and the
    center tap lands on the main diagonal.  ``eta_i = k - |i - h|``.
    """
    h = (k - 1) // 2
    cells = _band_cells(k, h)
    return BlockPattern(k, k, bm, bn, cells, h - (cells[:, 1] - cells[:, 0]), f"toeplitz:{h}")


def _checked_psf(psf) -> tuple[np.ndarray, int]:
    """``psf`` as a float cube and its odd extent ``K``."""
    psf = np.asarray(psf, dtype=np.float64)
    if psf.ndim != 3 or len(set(psf.shape)) != 1:
        raise ShapeError("psf must be a K x K x K cube")
    if psf.shape[0] % 2 == 0:
        raise ShapeError("psf extent K must be odd")
    return psf, psf.shape[0]


def psf_weighted_tensor(psf: np.ndarray) -> tuple[np.ndarray, MultilevelPattern]:
    """Weighted order-5 tensor of the 3-D blur operator of ``psf``.

    For an odd ``K`` and a ``K x K x K`` point-spread function, the blur
    operator with zero (Dirichlet) boundary is a 3-level banded-Toeplitz
    matrix of bandwidth ``(K-1)/2`` per level whose innermost 1 x 1 block at
    class multi-index ``(i1, i2, i3)`` is ``psf[i3, i2, i1]`` -- the first
    and third kernel axes swap because the first image axis varies fastest
    in the vectorization.  The tensor entry carries the weight
    ``sqrt(eta_{i1} * eta_{i2} * eta_{i3})`` with ``eta_i = K - |i - h|``.

    Returns:
        ``(tensor, pattern)`` with tensor extents ``(1, K, K, K, 1)``.
    """
    psf, k = _checked_psf(psf)
    h = (k - 1) // 2
    eta = k - np.abs(np.arange(k) - h)
    mlp = MultilevelPattern(levels=tuple(_kernel_level_pattern(k, b, b) for b in (k * k, k, 1)))

    weights = np.sqrt(np.einsum("a,b,c->abc", eta, eta, eta))
    tensor = (weights * np.transpose(psf, (2, 1, 0)))[None, :, :, :, None]
    return np.ascontiguousarray(tensor), mlp


def blur_operator_dense(psf: np.ndarray) -> np.ndarray:
    """Dense ``K^3 x K^3`` blur operator of ``psf`` on a ``K^3`` image with
    zero boundary, vectorized first image axis fastest.  Capped at ``K <= 7``
    (it exists to cross-check the structured path on small cases):
    ``A[(a1,a2,a3),(b1,b2,b3)] = psf[h+a1-b1, h+a2-b2, h+a3-b3]``.
    """
    psf, k = _checked_psf(psf)
    if k > 7:
        raise ShapeError("dense blur operator capped at K <= 7")
    h = (k - 1) // 2
    pos = np.indices((k, k, k)).reshape(3, -1)[::-1]  # (a1, a2, a3), a1 fastest
    d = pos[:, :, None] - pos[:, None, :]  # d[:, row, col] = a - b
    inside = np.abs(d).max(axis=0) <= h
    out = np.zeros((k**3, k**3))
    out[inside] = psf[tuple(h + d[:, inside])]
    return out
