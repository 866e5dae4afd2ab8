"""Dense tensor primitives: unfoldings, foldings, and mode products.

Tensors are plain ``numpy.ndarray`` objects in float64.  Throughout the
package the *first index varies fastest* (column-major semantics): the
mode-``k`` unfolding places entry ``(i_1, ..., i_N)`` in row ``i_k`` and in
the column obtained by linearizing the remaining indices with the earliest
one fastest.  For an order-3 tensor ``t`` of extents ``m x p x n`` this gives

* mode 1: ``[t[:, :, 0], t[:, :, 1], ...]``            (``m x pn``)
* mode 2: ``[t[:, :, 0].T, t[:, :, 1].T, ...]``        (``p x mn``)
* mode 3: ``[sq(t[:, 0, :]).T, sq(t[:, 1, :]).T, ...]`` (``n x mp``)

where ``sq`` squeezes a lateral slice to a matrix.  Modes are numbered from
1 in every public signature, matching the usual written form of the mode
product ``t x_k U``.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

__all__ = [
    "unfold",
    "fold",
    "mode_multiply",
    "fro_norm",
]

_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max


def _check_mode(mode: int, order: int) -> int:
    if not 1 <= mode <= order:
        raise ShapeError(f"mode {mode} out of range for order-{order} tensor")
    return mode - 1


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Matricize ``t`` along ``mode`` (1-based).

    Args:
        t: Tensor of order >= 2.
        mode: Mode to map to rows, in ``1..t.ndim``.

    Returns:
        Array of shape ``(t.shape[mode-1], prod(other extents))`` whose
        columns enumerate the remaining indices first-index-fastest.
    """
    ax = _check_mode(mode, t.ndim)
    return np.reshape(np.moveaxis(t, ax, 0), (t.shape[ax], -1), order="F")


def fold(mat: np.ndarray, mode: int, dims: tuple[int, ...]) -> np.ndarray:
    """Invert :func:`unfold`: rebuild the tensor of extents ``dims``.

    Args:
        mat: A mode-``mode`` unfolding, shape ``(dims[mode-1], rest)``.
        mode: Mode that ``mat``'s rows correspond to, in ``1..len(dims)``.
        dims: Target tensor extents.

    Raises:
        ShapeError: If ``mat``'s shape is inconsistent with ``dims``.
    """
    ax = _check_mode(mode, len(dims))
    rest = dims[:ax] + dims[ax + 1 :]
    expected = (dims[ax], int(np.prod(rest, dtype=np.int64)) if rest else 1)
    if mat.shape != expected:
        raise ShapeError(f"unfolding of shape {mat.shape} cannot fold into {dims} along mode {mode}")
    return np.moveaxis(np.reshape(mat, (dims[ax], *rest), order="F"), 0, ax)


def mode_multiply(t: np.ndarray, mode: int, u: np.ndarray) -> np.ndarray:
    """Mode product ``t x_mode u``, i.e. ``u @ unfold(t, mode)`` refolded.

    Args:
        t: Tensor.
        mode: Mode acted on, 1-based.
        u: Matrix with ``u.shape[1] == t.shape[mode-1]``.
    """
    ax = _check_mode(mode, t.ndim)
    if u.ndim != 2 or u.shape[1] != t.shape[ax]:
        raise ShapeError(f"factor of shape {u.shape} does not act on mode {mode} "
                         f"of extent {t.shape[ax]}")
    dims = list(t.shape)
    dims[ax] = u.shape[0]
    return fold(u @ unfold(t, mode), mode, tuple(dims))


def scale_exponent(t: np.ndarray) -> int:
    """``e`` with ``max|t| = f 2**e``, ``0.5 <= f < 1`` (0 for a zero or empty
    tensor), so ``ldexp(t, -e)`` rescales ``t`` exactly to ``max < 1``."""
    t = np.asarray(t)
    return int(np.frexp(np.max(np.abs(t)))[1]) if t.size else 0


def in_normal_range(s: float) -> bool:
    """Whether ``s`` is a normal float.  A sum of squares outside that range
    overflowed, or lost digits to underflow; redo it on the rescale of
    :func:`scale_exponent`."""
    return _TINY <= s <= _HUGE


def fro_norm(t: np.ndarray) -> float:
    """Frobenius norm of a tensor of any order, at any scale: the squares are
    summed after the exact rescale of :func:`scale_exponent`, which commutes
    with rounding, so ordinary scales give ``np.linalg.norm`` bit for bit."""
    t = np.asarray(t, dtype=np.float64)
    e = scale_exponent(t)
    return float(np.ldexp(np.linalg.norm(np.ldexp(t, -e).ravel()), e))
