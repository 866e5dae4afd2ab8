"""Matrix and tensor factorizations used by the compression pipelines.

The matrix kernels (:func:`svd_truncated`, :func:`qr_thin`,
:func:`cholesky`) are thin wrappers over LAPACK via numpy that pin down the
conventions the rest of the package relies on: deterministic singular-vector
signs, nonnegative R diagonals, and a dedicated error type for failed
Cholesky pivots.  The tensor routines (:func:`hosvd`,
:func:`tucker_partial`, :func:`cp_als`, :func:`randomized_mode_basis`) are
implemented directly on top of the mode arithmetic in :mod:`blockten.tensor`.

Exact mode bases come from :func:`_mode_basis`, which first drops an unfolding's
all-zero columns.  Unfoldings are short and fat (``m x pn`` or ``p x mn``): a wide
unfolding ``M`` takes the eigenvectors of ``M M^T`` when they pass the certificate
of :func:`_certified_gram_basis`, else the SVD of the triangular factor ``L`` of
``M = L Q`` (:func:`_lq_basis`), as accurate as the full SVD.  The certificate also
takes ``G`` summed over column blocks: the shared SPSD basis certifies ``sum eta_k
B_k B_k^T`` without stacking the ``B_k``, and stacks them only when it fails.

Randomness: sketching matrices are drawn from ``numpy.random.default_rng``
(PCG64) via ``standard_normal`` (ziggurat sampling), so a fixed seed fixes
the basis bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import _check_dense_size
from .errors import ConvergenceError, NotPositiveDefiniteError, ShapeError
from .tensor import fro_norm, in_normal_range, mode_multiply, scale_exponent, unfold

__all__ = ["TuckerRep", "KruskalRep", "CpResult", "svd_truncated", "tail_rank", "qr_thin",
           "cholesky", "hosvd", "tucker_partial", "mode2_tucker", "cp_als", "randomized_mode_basis"]

_CP_FALLBACK_SEED = 0  # fixed seed for random init columns when r exceeds an extent
# cp_als trusts its Gram-matrix residual^2 only above this share of the
# squared size of its largest term (see cp_als)
_CP_GRAM_FIT_FLOOR = 1e-6
_GRAM_FLOOR = 100.0  # a Gram basis needs a residual of this many sqrt(rows eps) sigma_1


# ---------------------------------------------------------------------------
# representation types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuckerRep:
    """Tucker format: ``core`` contracted with one factor per mode.

    ``factors[k]`` is either an ``(extent_k, rank_k)`` matrix or ``None``,
    which stands for the identity (the mode was left uncompressed and
    ``core`` keeps its full extent there).  Factors are orthonormal from
    :func:`hosvd`, :func:`tucker_partial` and :meth:`project` (which needs
    them so), not from the CP embedding ``reconstruct._cp_as_tucker``.
    """

    core: np.ndarray
    factors: tuple[np.ndarray | None, ...]

    def __post_init__(self) -> None:
        if self.core.ndim != len(self.factors):
            raise ShapeError(f"core order {self.core.ndim} does not match "
                             f"{len(self.factors)} factors")
        for k, f in enumerate(self.factors):
            if f is not None and f.shape[1] != self.core.shape[k]:
                raise ShapeError(f"factor for mode {k + 1} has {f.shape[1]} columns, "
                                 f"core extent is {self.core.shape[k]}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(
            self.core.shape[k] if f is None else f.shape[0]
            for k, f in enumerate(self.factors)
        )

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape

    @classmethod
    def project(cls, t: np.ndarray, factors) -> TuckerRep:
        """Tucker form of ``t`` on the given orthonormal mode bases: the core
        is ``t`` contracted with each factor's transpose in mode order
        (``None`` leaves a mode alone)."""
        core = t
        for k, u in enumerate(factors):
            if u is not None:
                core = mode_multiply(core, k + 1, u.T)
        return cls(core=core, factors=tuple(factors))

    def reconstruct(self) -> np.ndarray:
        """Expand back to a dense tensor."""
        out = self.core
        for k, f in enumerate(self.factors):
            if f is not None:
                out = mode_multiply(out, k + 1, f)
        return out


@dataclass(frozen=True)
class KruskalRep:
    """Rank-``r`` CP format for an order-3 tensor.

    Entry ``(i, j, k)`` equals ``sum_r X[i, r] * Y[j, r] * Z[k, r]``;
    equivalently lateral slice ``j`` is ``X @ diag(Y[j, :]) @ Z.T``.
    Component weights are absorbed into ``x``.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        r = self.x.shape[1]
        if self.y.shape[1] != r or self.z.shape[1] != r:
            raise ShapeError("CP factors must share the same number of columns")

    @property
    def rank(self) -> int:
        return self.x.shape[1]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.x.shape[0], self.y.shape[0], self.z.shape[0])

    def reconstruct(self) -> np.ndarray:
        return np.einsum("ir,jr,kr->ijk", self.x, self.y, self.z)


@dataclass(frozen=True)
class CpResult:
    """Outcome of :func:`cp_als`: the factorization plus its fit trace."""

    rep: KruskalRep
    fit: float
    fit_history: tuple[float, ...]
    n_iters: int
    converged: bool


# ---------------------------------------------------------------------------
# matrix kernels
# ---------------------------------------------------------------------------


def _positive_lead(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip columns of ``u`` so each has its largest-magnitude entry
    positive; returns the flipped ``u`` and the ``+-1`` signs applied."""
    lead = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[lead, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, signs


def svd_truncated(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``r`` truncated SVD with deterministic singular-vector signs.

    Args:
        a: Matrix.
        r: Number of singular triplets to keep, ``1 <= r <= min(a.shape)``.

    Returns:
        ``(u, s, v)`` with ``u`` of shape ``(m, r)``, ``s`` the ``r`` leading
        singular values (nonincreasing), ``v`` of shape ``(n, r)``, so that
        ``u @ diag(s) @ v.T`` is the best rank-``r`` approximation.  Each
        column of ``u`` has its largest-magnitude entry positive, with the
        sign flip compensated in ``v``.

    Raises:
        ShapeError: If ``r`` is out of range.
        ConvergenceError: If ``a`` holds a NaN or an infinity, on which LAPACK
            may never return, or the underlying LAPACK iteration fails.
    """
    if a.ndim != 2:
        raise ShapeError("svd_truncated expects a matrix")
    if not 1 <= r <= min(a.shape):
        raise ShapeError(f"rank {r} out of range for shape {a.shape}")
    if not np.isfinite(a).all():
        raise ConvergenceError("SVD of a matrix holding a NaN or an infinity")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    u, signs = _positive_lead(u[:, :r])
    return u, s[:r].copy(), (vt[:r, :] * signs[:, None]).T


def qr_thin(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with nonnegative R diagonal.

    Requires ``a.shape[0] >= a.shape[1]`` so that ``q`` has orthonormal
    columns spanning ``range(a)``.
    """
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ShapeError(f"qr_thin expects a tall or square matrix, got {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs, r * signs[:, None]


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix.

    Raises:
        ShapeError: If ``a`` is not square-symmetric.
        NotPositiveDefiniteError: If a pivot is non-positive.  This error
            doubles as the package's SPD test.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError("cholesky expects a square matrix")
    scale = np.max(np.abs(a)) or 1.0
    if np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise ShapeError("cholesky expects a symmetric matrix")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Tucker
# ---------------------------------------------------------------------------


def tail_rank(sv: np.ndarray, budget: float) -> int:
    """Fewest leading singular values (at least one) whose discarded tail
    has Frobenius norm ``norm(sv[r:])`` at most ``budget``; ``sv`` is
    nonincreasing.  The squares are compared after rescaling ``sv`` and
    ``budget`` exactly by the power of two of :func:`scale_exponent`, so they
    neither overflow nor underflow at any scale of ``sv``."""
    e = scale_exponent(sv)
    tails = np.cumsum((np.ldexp(sv, -e) ** 2)[::-1])[::-1]  # tails[r] = sum(sv[r:]^2), falling
    return 1 + int(np.count_nonzero(tails[1:] > np.ldexp(budget, -e) ** 2))


def _mode_basis(mat: np.ndarray, r: int, tail_budget: float | None = None) -> np.ndarray:
    """Leading ``r`` left singular vectors of ``mat``, each with its largest-magnitude
    entry positive: :func:`_certified_gram_basis` when it is certified, else :func:`_lq_basis`.
    With ``tail_budget``, ``r`` is a cap: the basis keeps ``min(r, tail_rank(sv,
    tail_budget))`` vectors, the rank the exact spectrum picks.

    All-zero columns (a sparse block support leaves many) are dropped first, unless
    every column is zero: they change neither the basis nor the residual.  Rows kept on
    their support (:func:`mode2_tucker`) have none, and are factored as they are.

    Raises:
        ConvergenceError: If the SVD fails (for example on NaN entries).
    """
    nonzero = mat.any(axis=0)  # NaN counts as nonzero
    if 0 < np.count_nonzero(nonzero) < len(nonzero):
        mat = mat[:, nonzero]
    u = _certified_gram_basis([(1.0, mat)], r, tail_budget)
    return _lq_basis(mat, r, tail_budget) if u is None else u


@np.errstate(all="ignore")  # an overflow or a NaN only fails the certificate
def _certified_gram_basis(blocks, r: int, tail_budget: float | None = None):
    """The leading eigenvectors ``U`` of ``G = sum w B B^T`` over the ``(w, B)`` column
    blocks of one unfolding (``[(1.0, M)]`` for a whole ``M``; ``G`` is formed only for a
    wide one), or ``None``.  ``lam`` resolves ``sigma_i`` only down to about
    ``sqrt(eps) sigma_1``, so ``U`` is kept only when ``R^2 = sum w ||B - U U^T B||^2``,
    summed directly as nonnegative squares, is at least ``100^2 rows eps lam_1`` and
    within ``rows eps lam_1`` of the tail of ``lam``; a budget must also clear that floor,
    ``R`` and each tail by the rounding of forming ``G``, so it picks the exact rank."""
    rows, cols = blocks[0][1].shape[0], sum(b.shape[1] for _, b in blocks)
    if not (rows < cols and r <= rows - (tail_budget is None)):
        return None  # tall, or a fixed full basis: no tail to certify
    g = sum(w * (b @ b.T) for w, b in blocks)
    if not in_normal_range(np.trace(g)):  # also NaN; the exact kernel rescales
        return None
    try:
        lam, vec = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None
    lam = np.maximum(lam[::-1], 0.0)
    eps = np.finfo(np.float64).eps
    slack = rows * eps * lam[0]  # accuracy of a sum of lam
    floor2 = _GRAM_FLOOR**2 * slack
    tails = np.append(np.cumsum(lam[::-1])[::-1], 0.0)  # tails[k] = sum(lam[k:])
    budget2 = np.inf
    if tail_budget is not None:
        k = tail_rank(np.sqrt(lam), tail_budget)
        square = tail_budget**2
        # forming g moves each lam by at most cols eps trace(g), a tail by rows times that
        edge = slack + rows * cols * eps * tails[0]
        if square < floor2 or np.any(np.abs(tails[k - 1 : k + 1] - square) <= edge):
            return None
        if k <= r:  # the budget, not the cap, sets the rank: R must meet it
            r, budget2 = k, square
    if not in_normal_range(floor2) or tails[r] + slack < floor2:
        return None  # R cannot reach the floor
    u = _positive_lead(vec[:, rows - r :][:, ::-1])[0]
    resid2, step = 0.0, max(1, 2**14 // rows)  # column chunks: no full-size temporary
    for w, b in blocks:
        for j in range(0, b.shape[1], step):
            d = b[:, j : j + step] - u @ (u.T @ b[:, j : j + step])
            resid2 += w * float(np.vdot(d, d))
    return u if floor2 <= resid2 <= min(tails[r] + slack, budget2) else None


def _lq_basis(mat: np.ndarray, r: int, tail_budget: float | None = None) -> np.ndarray:
    """The exact :func:`_mode_basis`: the SVD of a wide ``mat``'s LQ factor
    ``L``; a tall ``mat`` short of ``r`` columns is completed from its full SVD."""
    if mat.shape[0] < mat.shape[1]:
        mat = np.linalg.qr(mat.T, mode="r").T  # overflows to inf near the float range
    if not np.isfinite(mat).all():  # as svd_truncated, for the full SVD too
        raise ConvergenceError("SVD of a matrix holding a NaN or an infinity")
    if tail_budget is not None:
        u, sv, _ = svd_truncated(mat, min(mat.shape))
        return u[:, : min(r, tail_rank(sv, tail_budget))]
    if r <= min(mat.shape):
        return svd_truncated(mat, r)[0]
    try:
        u = np.linalg.svd(mat, full_matrices=True)[0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    return _positive_lead(u[:, :r])[0]


def hosvd(t: np.ndarray, ranks: tuple[int, ...] | list[int],
          tail_budget: float | None = None) -> TuckerRep:
    """Higher-order SVD: :func:`tucker_partial` with every mode compressed by default; a
    ``None`` rank leaves its mode alone there too."""
    return tucker_partial(t, ranks, tail_budget)


def tucker_partial(t: np.ndarray, ranks: list[int | None] | tuple[int | None, ...],
                   tail_budget: float | None = None) -> TuckerRep:
    """Tucker compression of a chosen subset of modes: an int entry
    ``ranks[k]`` in ``1..t.shape[k]`` compresses mode ``k`` to that many
    leading left singular vectors of its unfolding, ``None`` leaves it alone
    (identity factor).  With ``tail_budget`` (a Frobenius norm per mode) the
    ints are caps: mode ``k`` keeps ``min(ranks[k], tail_rank(sv_k,
    tail_budget))`` vectors, ``sv_k`` the spectrum of its unfolding."""
    if len(ranks) != t.ndim:
        raise ShapeError(f"expected {t.ndim} ranks, got {len(ranks)}")
    for k, r in enumerate(ranks):
        if r is not None and not 1 <= r <= t.shape[k]:
            raise ShapeError(f"mode-{k + 1} rank {r} out of range for extent {t.shape[k]}")
    # with an empty extent each unfolding is zero: eye(extent, r), one column under a budget
    factors = [None if r is None else _mode_basis(unfold(t, k + 1), r, tail_budget) if t.size
               else np.eye(t.shape[k], r if tail_budget is None else 1)
               for k, r in enumerate(ranks)]
    return TuckerRep.project(t, factors)


def mode2_tucker(support: np.ndarray, rows: np.ndarray, m: int, n: int, r: int,
                 tail_budget: float | None = None) -> TuckerRep:
    """``tucker_partial(t, [None, r, None], tail_budget)`` of the ``m x p x n`` ``t`` whose
    mode-2 unfolding is ``rows`` on the columns ``support`` and zero elsewhere, without ``t``:
    that of ``rows[None]``, its core scattered onto the support (at most ``DENSIFY_LIMIT``)."""
    thin = tucker_partial(rows[None], [None, r, None], tail_budget)
    _check_dense_size(thin.ranks[1], m * n)  # the core, and the terms a form makes of it
    core = np.zeros((thin.ranks[1], n * m))
    core[:, support] = thin.core[0]
    return TuckerRep(core.reshape(-1, n, m).transpose(2, 0, 1), (None, thin.factors[1], None))


# ---------------------------------------------------------------------------
# CP
# ---------------------------------------------------------------------------


def _cp_init(unfoldings: list[np.ndarray], r: int) -> list[np.ndarray | None]:
    """Initial CP factors from the mode unfoldings: the leading left singular
    vectors per mode, random-padded when ``r`` exceeds what a mode offers.

    The mode-1 entry is ``None``: the first update of a sweep overwrites it
    before anything reads it.  Its padding is still drawn, so modes 2 and 3
    get the same random columns as when every mode had a basis.
    """
    rng = np.random.default_rng(_CP_FALLBACK_SEED)
    factors: list[np.ndarray | None] = [None]
    for k, mat in enumerate(unfoldings):
        keep = min(r, *mat.shape)
        pad = rng.standard_normal((mat.shape[0], r - keep)) if keep < r else None
        if k == 0:
            continue
        u = _lq_basis(mat, keep)
        factors.append(u if pad is None else np.hstack([u, pad]))
    return factors


def cp_als(t: np.ndarray, r: int, max_iters: int = 500, tol: float = 1e-10) -> CpResult:
    """Rank-``r`` CP decomposition of an order-3 tensor by alternating LS.

    Factors are initialized from the per-mode HOSVD bases (seeded random
    columns fill in when ``r`` exceeds a mode extent); each sweep solves the
    three least-squares subproblems exactly via pseudoinverse, so the fit
    ``1 - ||t - t_hat||_F / ||t||_F`` is nondecreasing.  Iteration stops once
    the fit improves by less than ``tol`` or after ``max_iters`` sweeps.

    The fit is computed without forming ``t_hat`` (Kolda & Bader, SIAM Review
    2009, section 3.4): with unit-norm factor columns, weights ``lam``, Gram
    matrices ``G_k`` and the mode-3 MTTKRP ``M3`` of the sweep's last update,
    ``||t - t_hat||^2 = ||t||^2 + lam^T (G_1 * G_2 * G_3) lam
    - 2 sum_r lam_r <z_r, M3[:, r]>``, an identity whether or not the
    pseudoinverse solved the subproblem exactly.  Each term is at most
    ``s = (||t|| + sum(lam))^2`` in size, so the rounding error of the sum
    moves the fit by about ``eps s / (||t - t_hat|| ||t||)``.  The sweep
    therefore forms ``t_hat`` and takes the norm of ``t - t_hat`` instead
    when the sum is below ``1e-6 s^2 / ||t||^2`` or negative: near a perfect
    fit (above about 0.99 for well-separated components), and for diverging
    components whose weights dwarf ``||t||``.  The sweeps run on ``t``
    rescaled exactly by a power of two, so no result depends on its scale.

    Raises:
        ShapeError: If ``t`` is not order 3, ``r < 1``, or ``t`` is
            identically zero.
        ValueError: If ``max_iters < 1``.
    """
    if t.ndim != 3:
        raise ShapeError("cp_als expects an order-3 tensor")
    if r < 1:
        raise ShapeError("CP rank must be at least 1")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    e = scale_exponent(t)
    t = np.ldexp(t, -e)  # exact: the sweeps see the same digits at any scale
    norm_t = fro_norm(t)
    if norm_t == 0.0:
        raise ShapeError("cp_als: zero tensor has no meaningful CP factorization")

    unfoldings = [unfold(t, k + 1) for k in range(3)]
    factors = _cp_init(unfoldings, r)
    grams = [None] + [f.T @ f for f in factors[1:]]

    fit_history: list[float] = []
    fit_prev = -np.inf
    converged = False
    n_iters = 0
    for n_iters in range(1, max_iters + 1):
        for k in range(3):
            others = [j for j in range(3) if j != k]
            # columns of the mode-k unfolding enumerate the other modes with
            # the earlier one fastest, hence the reversed khatri-rao order
            kr = (factors[others[1]][:, None] * factors[others[0]][None]).reshape(-1, r)
            v = grams[others[0]] * grams[others[1]]
            mttkrp = unfoldings[k] @ kr
            factors[k] = mttkrp @ np.linalg.pinv(v)
            norms = np.linalg.norm(factors[k], axis=0)
            norms[norms == 0] = 1.0
            factors[k] = factors[k] / norms
            if k == 2:
                lam = norms  # weights from the last update of each sweep
            grams[k] = factors[k].T @ factors[k]

        # relative to ||t||^2; mttkrp is the mode-3 one here, paired with
        # the unit columns of z
        w = lam / norm_t
        resid2 = (1.0 + w @ (grams[0] * grams[1] * grams[2]) @ w
                  - 2.0 * w @ np.sum(factors[2] * mttkrp, axis=0) / norm_t)
        scale = (1.0 + w.sum()) ** 2  # bounds every term of resid2
        if resid2 >= _CP_GRAM_FIT_FLOOR * scale**2:
            fit = 1.0 - float(np.sqrt(resid2))
        else:
            approx = np.einsum("ir,jr,kr->ijk", factors[0] * lam, factors[1], factors[2])
            fit = 1.0 - fro_norm(t - approx) / norm_t
        fit_history.append(fit)
        if abs(fit - fit_prev) < tol:
            converged = True
            break
        fit_prev = fit

    rep = KruskalRep(x=factors[0] * np.ldexp(lam, e), y=factors[1], z=factors[2])
    return CpResult(rep=rep, fit=fit_history[-1], fit_history=tuple(fit_history),
                    n_iters=n_iters, converged=converged)


# ---------------------------------------------------------------------------
# randomized range finder
# ---------------------------------------------------------------------------


def randomized_mode_basis(t: np.ndarray, mode: int, r: int, sketch: int, seed: int) -> np.ndarray:
    """Orthonormal mode-``mode`` basis computed from a Gaussian sketch.

    Every other mode wider than ``sketch`` is contracted with an i.i.d.
    standard normal ``sketch x extent`` matrix (drawn in ascending mode order
    from one PCG64 stream seeded with ``seed``); the basis is the ``r``
    leading left singular vectors of the sketched tensor's mode-``mode``
    unfolding.

    Raises:
        ShapeError: If ``mode`` is out of range, or a mode is sketched with
            ``sketch`` below ``r``.
    """
    if not 1 <= mode <= t.ndim:
        raise ShapeError(f"mode {mode} out of range for order-{t.ndim} tensor")
    rng = np.random.default_rng(seed)
    y = t
    for j, extent in enumerate(t.shape, start=1):
        if j == mode or extent <= sketch:
            continue
        if sketch < r:
            raise ShapeError(f"sketch size {sketch} is below the target rank {r}")
        y = mode_multiply(y, j, rng.standard_normal((sketch, extent)))
    u, _, _ = svd_truncated(unfold(y, mode), r)
    return u
