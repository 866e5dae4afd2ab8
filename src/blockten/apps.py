"""End-to-end uses of the structured-matrix compression machinery.

Three applications:

* System identification from impulse-response (Markov) parameters: the
  block-Hankel matrix they fill is structured, so the realization SVD can be
  run on a Tucker-reduced Hankel in compressed coordinates and lifted at the
  end (`era_identify_compressed`).
* Space-time covariance matrices of a separable stationary kernel on
  equispaced time instants: symmetric block-Toeplitz, compressed with the
  definiteness-preserving shared-basis projection (`spacetime_build` plus
  :func:`blockten.psd.spsd_compress_blocks`).
* Reporting: trace relative error (computable without densifying), storage
  ratios per representation kind, Hausdorff distance between eigenvalue
  sets (`report_metrics`, `hausdorff_eigs`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .blocks import (
    BlockPattern,
    blocks_to_tensor,
    build_pattern,
    struct_assemble,
    struct_expand,
)
from .decomp import hosvd, tucker_partial
from .errors import ConvergenceError, ShapeError
from .reconstruct import blr_from_tucker, class_error_fro, error_fro, rows_error_fro

__all__ = ["MarkovSequence", "LtiSystem", "EraResult", "KernelConfig", "markov_from_lti",
           "hankel_pattern_from_markov", "era_identify_compressed", "hausdorff_eigs",
           "spacetime_build", "report_metrics"]


@dataclass(frozen=True)
class MarkovSequence:
    """Impulse-response parameters ``h_1 .. h_{2s-1}``, each ``d_out x d_in``.

    The feedthrough ``h_0`` is excluded: it never enters the block Hankel
    and can be read off the data directly.
    """

    params: np.ndarray  # (2s - 1, d_out, d_in)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", np.asarray(self.params, dtype=np.float64))
        if self.params.ndim != 3:
            raise ShapeError("params must be a (2s-1, d_out, d_in) stack")
        count = self.params.shape[0]
        if count < 1 or count % 2 == 0:
            raise ShapeError(f"need an odd number 2s-1 of parameters, got {count}")

    @property
    def s(self) -> int:
        """Hankel block count per side."""
        return (self.params.shape[0] + 1) // 2


@dataclass(frozen=True)
class LtiSystem:
    """Discrete-time state-space triple (the feedthrough is pass-through)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        a, b, c = (np.asarray(m, dtype=np.float64) for m in (self.a, self.b, self.c))
        for name, value in zip("abc", (a, b, c)):
            object.__setattr__(self, name, value)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError("state matrix must be square")
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ShapeError("input matrix rows must match the state dimension")
        if c.ndim != 2 or c.shape[1] != a.shape[0]:
            raise ShapeError("output matrix columns must match the state dimension")


def markov_from_lti(system: LtiSystem, count: int) -> MarkovSequence:
    """First ``count`` Markov parameters ``h_k = C A^(k-1) B`` (1-based)."""
    if count < 1 or count % 2 == 0:
        raise ShapeError("count must be odd and positive (it fills an s x s Hankel)")
    params = np.empty((count, system.c.shape[0], system.b.shape[1]))
    x = system.b.copy()
    for k in range(count):
        params[k] = system.c @ x
        x = system.a @ x
    return MarkovSequence(params=params)


def hankel_pattern_from_markov(seq: MarkovSequence) -> tuple[BlockPattern, np.ndarray]:
    """Block-Hankel pattern of ``seq``: cell (i, j) holds ``h_{i+j-1}``.

    The classes are the ``2s - 1`` anti-diagonals with multiplicities
    ``eta_k = k`` for ``k <= s`` and ``2s - k`` beyond.
    """
    return build_pattern("hankel", seq.s, seq.s, *seq.params.shape[1:]), seq.params


@dataclass(frozen=True)
class EraResult:
    """Realized system plus the compressed-coordinate artifacts.

    ``reduced_hankel`` is the small matrix ``R`` with
    ``H_hat = (I (x) basis_left) R (I (x) basis_right^T)``; the realization
    SVD runs on ``R`` and only the output/input maps are lifted.
    """

    system: LtiSystem
    pattern: BlockPattern
    reduced_pattern: BlockPattern
    reduced_hankel: np.ndarray
    basis_left: np.ndarray
    basis_right: np.ndarray


def era_identify_compressed(seq: MarkovSequence, ranks: tuple[int, int, int], order: int,
                            tera: bool = False) -> EraResult:
    """Realize an LTI system from the Tucker-compressed block Hankel.

    The weighted Hankel tensor (lateral slices ``sqrt(eta_k) h_k``) is
    Tucker-compressed at ``ranks``; the approximation factors as
    ``(I (x) U) R (I (x) W^T)`` with ``R`` assembled from the compressed
    slices, so the rank-``order`` realization SVD, the shift least-squares
    for the state matrix, and the input/output extraction all run at the
    reduced size.  The state matrix needs no lifting (it is
    similarity-invariant); the output map lifts through ``U`` and the input
    map through ``W``.

    With ``tera=True`` the tensor is unweighted and only modes 1 and 3 are
    compressed (``r2`` is ignored): the reduced Hankel carries the projected
    parameters ``U^T h_k W`` verbatim.

    Args:
        ranks: Per-mode Tucker ranks ``(r1, r2, r3)``.
        order: Realized state dimension (rank of the realization SVD).

    Raises:
        ShapeError: Fewer than two Hankel block rows, ranks/order out of
            range.
        ConvergenceError: Zero Hankel, or ``order`` beyond its numerical
            rank.
    """
    if seq.s < 2:
        raise ShapeError("need s >= 2 Hankel block rows to shift")
    pattern, blocks = hankel_pattern_from_markov(seq)
    r1, r2, r3 = ranks
    if not np.any(blocks):
        raise ConvergenceError("all Markov parameters are zero; Hankel is degenerate")

    reduced_pattern = replace(pattern, m=r1, n=r3)
    if tera:  # the core slices are the projected parameters U^T h_k W
        tk = tucker_partial(np.transpose(blocks, (1, 0, 2)).copy(), [r1, None, r3])
        reduced = struct_assemble(reduced_pattern, np.moveaxis(tk.core, 1, 0))
    else:
        tk = hosvd(blocks_to_tensor(pattern, blocks), [r1, r2, r3])
        reduced = struct_expand(reduced_pattern, blr_from_tucker(tk, pattern).middles)
    u, _, w = tk.factors

    sing_u, sing_vals, sing_vt = np.linalg.svd(reduced, full_matrices=False)
    if not 1 <= order <= min(reduced.shape):
        raise ShapeError(f"model order {order} out of range for a {reduced.shape} Hankel")
    cutoff = max(reduced.shape) * np.finfo(np.float64).eps * sing_vals[0]
    if sing_vals[order - 1] <= cutoff:
        raise ConvergenceError(f"model order {order} exceeds the numerical rank "
                               "of the reduced Hankel")
    root = np.sqrt(sing_vals[:order])
    theta = sing_u[:, :order] * root          # observability factor
    gamma_t = root[:, None] * sing_vt[:order]  # controllability factor, transposed

    # shift invariance: the first s - 1 block rows of theta times A give the last s - 1
    a_til = np.linalg.lstsq(theta[: r1 * (seq.s - 1)], theta[r1:], rcond=None)[0]

    system = LtiSystem(a=a_til, b=gamma_t[:, :r3] @ w.T, c=u @ theta[:r1])
    return EraResult(system=system, pattern=pattern, reduced_pattern=reduced_pattern,
                     reduced_hankel=reduced, basis_left=u, basis_right=w)


def hausdorff_eigs(set1, set2) -> float:
    """Hausdorff distance between two finite complex point sets."""
    a = np.atleast_1d(np.asarray(set1, dtype=np.complex128)).ravel()
    b = np.atleast_1d(np.asarray(set2, dtype=np.complex128)).ravel()
    if a.size == 0 or b.size == 0:
        raise ShapeError("Hausdorff distance needs nonempty sets")
    dist = np.abs(a[:, None] - b[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


@dataclass(frozen=True)
class KernelConfig:
    """Separable squared-exponential space-time kernel
    ``phi(r, tau) = exp(-((r/spatial)^2 + (tau/temporal)^2))``, plus the
    diagonal nugget shift used when a factorization of the compressed
    covariance is required."""

    spatial_scale: float = 90.0
    temporal_scale: float = 0.5
    nugget: float = 1e-8

    def __post_init__(self) -> None:
        if self.spatial_scale <= 0 or self.temporal_scale <= 0:
            raise ShapeError("kernel length-scales must be positive")
        if self.nugget < 0:
            raise ShapeError("nugget must be nonnegative")

    def __call__(self, r, tau) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        tau = np.asarray(tau, dtype=np.float64)
        return np.exp(-((r / self.spatial_scale) ** 2 + (tau / self.temporal_scale) ** 2))


def spacetime_build(points: np.ndarray, times: np.ndarray,
                    kcfg: KernelConfig | None = None) -> tuple[BlockPattern, np.ndarray]:
    """Distinct blocks of the space-time covariance on equispaced instants.

    Stationarity in time makes the ``NT x NT`` covariance symmetric
    block-Toeplitz: class ``i`` is the ``N x N`` lag-``(i-1)`` block
    ``[C_i]_{jk} = phi(||x_j - x_k||, |t_1 - t_i|)``, shared by the ``+/-``
    lag diagonals (``eta_1 = T``, ``eta_i = 2(T - i + 1)`` beyond).

    Returns:
        ``(pattern, blocks)`` with ``blocks`` of shape ``(T, N, N)``; feed
        them to :func:`blockten.psd.spsd_compress_blocks` — the full matrix
        is never needed.  A lag whose peak ``phi(0, tau)`` underflows gets its
        zero block unevaluated: ``phi`` decreases in ``r``, so all of it underflows.

    Raises:
        ShapeError: Empty or non-finite inputs, or non-equispaced times.
    """
    kcfg = kcfg if kcfg is not None else KernelConfig()
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1 or not np.isfinite(pts).all():
        raise ShapeError("points must be a nonempty (N, dim) array of finite coordinates")
    times = np.asarray(times, dtype=np.float64).ravel()
    if times.size < 1 or not np.isfinite(times).all():
        raise ShapeError("times must be a nonempty array of finite instants")
    if times.size > 1:
        steps = np.diff(times)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(times))))
        if np.max(np.abs(steps - steps[0])) > tol:
            raise ShapeError("time instants must be equispaced")

    n, t_count = pts.shape[0], times.size
    dists = np.sqrt(sum((col[:, None] - col[None, :]) ** 2 for col in pts.T))
    blocks = np.zeros((t_count, n, n))
    for i, lag in enumerate(np.abs(times - times[0])):
        if kcfg(0.0, lag):  # the kernel peaks at r = 0: past an underflowed peak, all is zero
            blocks[i] = kcfg(dists, lag)
    pattern = build_pattern("toeplitz", t_count, t_count, n, n, block_symmetric=True)
    return pattern, blocks


def report_metrics(source, rep, trace_ref: float | None = None) -> dict[str, float]:
    """Quality/size metrics for a compressed representation.

    Args:
        source: The source matrix (dense or scipy sparse); the ``(pattern, blocks)``
            verified to hold it exactly, which certify without it (:func:`class_error_fro`);
            ``(pattern, rows, basis)``, the rows of its verified mode-2 unfolding on their
            support and the mode-2 basis of a form holding their projection, certified as
            ``||M - V V^T M|| / ||M||`` (:func:`rows_error_fro`); or its
            :class:`BlockPattern` (or ``None``), for only the metrics the representation
            certifies alone.
        rep: Any representation produced by this package.
        trace_ref: Reference trace when the matrix itself is not supplied
            (e.g. ``N * T`` for a unit-diagonal covariance kernel).

    Returns:
        The computable subset of ``relerr_fro`` (a nonzero source supplied),
        ``relerr_trace`` (kinds with ``trace()``) and ``storage_ratio``:
        ``rep.stored_scalars()`` over ``rep.distinct_scalars()`` on kinds
        with it, else over the source's ``nnz`` (nonzero values, a sparse
        matrix's duplicates added first, ``sum_k eta_k nnz(B_k)`` for blocks or rows).

    Raises:
        ShapeError: If the source's shape differs from the representation's.
    """
    metrics: dict[str, float] = {}
    given, *held = source if isinstance(source, tuple) else (source,)  # then what was verified
    matrix = None if isinstance(given, BlockPattern) else given
    if given is not None and given.shape != rep.shape:
        raise ShapeError(f"matrix shape {given.shape} != representation shape {rep.shape}")

    nnz = 0
    if held:  # the blocks, or the mode-2 rows, whose support holds every nonzero of a block
        nnz = sum(eta * np.count_nonzero(b) for eta, b in zip(given.counts, held[0]))
    elif matrix is not None:  # a copy: counting sums a sparse matrix's duplicates in place
        sparse = scipy.sparse.issparse(matrix)
        nnz = matrix.tocsr(copy=True).count_nonzero() if sparse else np.count_nonzero(matrix)
    if hasattr(rep, "distinct_scalars"):
        metrics["storage_ratio"] = rep.stored_scalars() / rep.distinct_scalars()
    elif nnz:
        metrics["storage_ratio"] = rep.stored_scalars() / nnz
    if nnz:
        metrics["relerr_fro"] = (rows_error_fro(*held) if len(held) == 2 else
                                 class_error_fro(given, *held, rep) if held else
                                 error_fro(matrix, rep))

    if hasattr(rep, "trace"):
        if trace_ref is None and matrix is not None:
            trace_ref = float(matrix.diagonal().sum())
        if trace_ref:  # neither None nor zero
            metrics["relerr_trace"] = abs(trace_ref - rep.trace()) / abs(trace_ref)
    return metrics
