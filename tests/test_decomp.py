"""Factorization kernels: SVD/QR/Cholesky conventions, Tucker, CP, sketching."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockten.decomp import (
    KruskalRep,
    TuckerRep,
    _certified_gram_basis,
    _lq_basis,
    _mode_basis,
    cholesky,
    cp_als,
    hosvd,
    mode2_tucker,
    qr_thin,
    randomized_mode_basis,
    svd_truncated,
    tail_rank,
    tucker_partial,
)
from blockten.errors import ConvergenceError, NotPositiveDefiniteError, ShapeError
from blockten.blocks import blocks_to_rows, blocks_to_tensor
from blockten.tensor import fro_norm, mode_multiply, unfold

from helpers import PATTERN_KINDS, random_blocks, random_pattern


def test_svd_truncated_reconstructs_at_full_rank():
    a = np.random.default_rng(0).standard_normal((6, 4))
    u, s, v = svd_truncated(a, 4)
    np.testing.assert_allclose(u @ np.diag(s) @ v.T, a, atol=1e-13)
    assert np.all(np.diff(s) <= 0)


def test_svd_truncated_sign_convention():
    a = np.random.default_rng(1).standard_normal((7, 5))
    u, _, _ = svd_truncated(a, 3)
    for col in u.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_svd_truncation_error_matches_tail():
    a = np.random.default_rng(2).standard_normal((8, 6))
    sig = np.linalg.svd(a, compute_uv=False)
    u, s, v = svd_truncated(a, 3)
    err = np.linalg.norm(a - u @ np.diag(s) @ v.T)
    assert np.isclose(err, np.sqrt((sig[3:] ** 2).sum()), rtol=1e-12)


def test_svd_truncated_rank_range():
    a = np.eye(3)
    with pytest.raises(ShapeError):
        svd_truncated(a, 0)
    with pytest.raises(ShapeError):
        svd_truncated(a, 4)
    with pytest.raises(ShapeError, match="expects a matrix"):
        svd_truncated(np.ones(3), 1)


def test_qr_thin_contract():
    a = np.random.default_rng(3).standard_normal((6, 3))
    q, r = qr_thin(a)
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-13)
    np.testing.assert_allclose(q @ r, a, atol=1e-13)
    assert np.all(np.diag(r) >= 0)
    with pytest.raises(ShapeError):
        qr_thin(a.T)


def test_cholesky_contract():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 5))
    a = g @ g.T + 5 * np.eye(5)
    low = cholesky(a)
    assert np.allclose(np.triu(low, 1), 0)
    assert np.all(np.diag(low) > 0)
    np.testing.assert_allclose(low @ low.T, a, atol=1e-12)


def test_cholesky_rejects_indefinite_and_asymmetric():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.diag([1.0, -1.0]))
    with pytest.raises(ShapeError):
        cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ShapeError, match="expects a square matrix"):
        cholesky(np.eye(3)[:2])


# ---------------------------------------------------------------------------
# mode basis kernel
# ---------------------------------------------------------------------------


def _decaying_matrix(rng, rows, cols, k, tau, noise):
    """``rows x cols`` matrix with singular values ``geomspace(1, tau, k)``,
    plus Gaussian noise of Frobenius norm about ``noise``."""
    u = np.linalg.qr(rng.standard_normal((rows, k)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, k)))[0]
    mat = (u * np.geomspace(1.0, tau, k)) @ v.T
    return mat + noise * rng.standard_normal((rows, cols)) / np.sqrt(rows * cols)


def _residual(mat, u):
    return np.linalg.norm(mat - u @ (u.T @ mat))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    widen=st.integers(1, 8),
    tau=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]),
    noisy=st.booleans(),
    data=st.data(),
)
def test_mode_basis_matches_svd_on_wide_matrices(seed, rows, widen, tau, noisy, data):
    rng = np.random.default_rng(seed)
    cols = rows * widen
    k = data.draw(st.integers(1, rows), label="numerical rank")
    r = data.draw(st.integers(1, rows), label="basis rank")  # may exceed k
    mat = _decaying_matrix(rng, rows, cols, k, tau, tau * 1e-3 if noisy else 0.0)
    u = _mode_basis(mat, r)
    assert u.shape == (rows, r)
    np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-13)
    for col in u.T:
        assert col[np.argmax(np.abs(col))] > 0
    u_svd = svd_truncated(mat, r)[0]
    assert _residual(mat, u) <= _residual(mat, u_svd) + 1e-12 * np.linalg.norm(mat)


def test_mode_basis_tall_unfolding_is_the_truncated_svd():
    mat = np.random.default_rng(15).standard_normal((30, 5))
    np.testing.assert_array_equal(_mode_basis(mat, 3), svd_truncated(mat, 3)[0])
    completed = _mode_basis(mat, 7)  # more vectors than columns
    np.testing.assert_allclose(completed.T @ completed, np.eye(7), atol=1e-13)
    assert _residual(mat, completed) < 1e-12 * np.linalg.norm(mat)


def test_mode_basis_ignores_extreme_magnitudes():
    mat = _decaying_matrix(np.random.default_rng(16), 12, 60, 6, 1e-8, 0.0)
    u = _mode_basis(mat, 4)
    for scale in (1e250, 1e-250):
        np.testing.assert_allclose(_mode_basis(mat * scale, 4), u, atol=1e-12)


def test_mode_basis_nan_raises_convergence_error():
    for shape in ((4, 20), (20, 4)):
        mat = np.ones(shape)
        mat[1, 2] = np.nan
        with pytest.raises(ConvergenceError):
            _mode_basis(mat, 2)


@pytest.fixture(scope="module")
def spacetime_sized():
    """A 256 x 5120 unfolding with a slowly decaying spectrum, the shape of
    the shared basis's mode-1 unfolding of a 16 x 16 grid over 20 instants."""
    return _decaying_matrix(np.random.default_rng(20), 256, 5120, 60, 1e-6, 1e-9)


def test_gram_branch_meets_the_svd_bar_on_a_spacetime_sized_matrix(spacetime_sized):
    mat = spacetime_sized
    u = _certified_gram_basis([(1.0, mat)], 20)
    assert u is not None  # the tail at rank 20 is far above the certificate's floor
    np.testing.assert_array_equal(_mode_basis(mat, 20), u)
    np.testing.assert_allclose(u.T @ u, np.eye(20), rtol=0, atol=1e-13)
    for col in u.T:
        assert col[np.argmax(np.abs(col))] > 0
    u_svd = svd_truncated(mat, 20)[0]
    assert _residual(mat, u) <= _residual(mat, u_svd) + 1e-12 * np.linalg.norm(mat)


def test_gram_branch_allocates_nothing_the_size_of_the_unfolding(spacetime_sized):
    mat = spacetime_sized
    assert _certified_gram_basis([(1.0, mat)], 20) is not None
    tracemalloc.start()
    try:
        _mode_basis(mat, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * mat.nbytes


@pytest.mark.parametrize(
    "case", ["tail below the floor", "1e250", "1e-250", "tall", "r > rows", "r == rows"])
def test_gram_fallbacks_are_the_exact_kernel_bit_for_bit(case):
    rng = np.random.default_rng(21)
    taken = _decaying_matrix(rng, 12, 60, 6, 1e-2, 0.0)  # tail at rank 4: 0.027
    assert _certified_gram_basis([(1.0, taken)], 4) is not None
    mat, r = {
        "tail below the floor": (_decaying_matrix(rng, 12, 60, 6, 1e-12, 0.0), 5),
        "1e250": (taken * 1e250, 4),
        "1e-250": (taken * 1e-250, 4),
        "tall": (rng.standard_normal((30, 5)), 3),
        "r > rows": (rng.standard_normal((4, 20)), 6),
        "r == rows": (rng.standard_normal((4, 20)), 4),
    }[case]
    assert _certified_gram_basis([(1.0, mat)], r) is None
    np.testing.assert_array_equal(_mode_basis(mat, r), _lq_basis(mat, r))


def test_gram_branch_falls_back_when_eigh_fails(monkeypatch):
    mat = _decaying_matrix(np.random.default_rng(21), 12, 60, 6, 1e-2, 0.0)
    assert _certified_gram_basis([(1.0, mat)], 4) is not None

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert _certified_gram_basis([(1.0, mat)], 4) is None
    np.testing.assert_array_equal(_mode_basis(mat, 4), _lq_basis(mat, 4))


def test_lq_basis_turns_a_failed_full_svd_into_convergence_error(monkeypatch):
    svd = np.linalg.svd

    def fail_full(a, full_matrices=True, **kwargs):
        if full_matrices:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fail_full)
    mat = np.random.default_rng(33).standard_normal((10, 3))
    _lq_basis(mat, 3)  # within the columns: the thin SVD only
    with pytest.raises(ConvergenceError, match="SVD did not converge"):
        _lq_basis(mat, 5)


def test_gram_branch_declines_nan():
    mat = np.ones((4, 20))
    mat[1, 2] = np.nan
    assert _certified_gram_basis([(1.0, mat)], 2) is None
    with pytest.raises(ConvergenceError):
        _mode_basis(mat, 2)


def test_gram_budget_ranks_are_the_exact_ranks():
    mat = _decaying_matrix(np.random.default_rng(22), 20, 200, 20, 1e-4, 0.0)
    sv = np.linalg.svd(mat, compute_uv=False)
    tails = np.sqrt(np.cumsum(sv[::-1] ** 2)[::-1])  # tails[k] = norm(sv[k:])
    for k in range(1, 15):
        budget = np.sqrt(tails[k] * tails[k - 1])  # resolved: between two tails
        u = _certified_gram_basis([(1.0, mat)], 20, budget)
        assert u is not None and u.shape[1] == k == tail_rank(sv, budget)
        assert _lq_basis(mat, 20, budget).shape[1] == k
        assert _residual(mat, u) <= budget
        if k > 1:  # a binding cap keeps its rank, and its residual may exceed the budget
            capped = _certified_gram_basis([(1.0, mat)], k - 1, budget)
            assert capped is not None and capped.shape[1] == k - 1
    for budget in (tails[6], 1e-7):  # on a tail boundary; below the floor
        assert _certified_gram_basis([(1.0, mat)], 20, budget) is None
        np.testing.assert_array_equal(_mode_basis(mat, 20, budget), _lq_basis(mat, 20, budget))


def test_gram_budget_within_the_rounding_of_forming_the_gram_falls_back():
    mat = _decaying_matrix(np.random.default_rng(22), 20, 200, 20, 1e-4, 0.0)
    lam = np.maximum(np.linalg.eigh(mat @ mat.T)[0][::-1], 0.0)
    slack = 20 * np.finfo(np.float64).eps * lam[0]
    for k in (3, 6, 9):  # squared budget 10 slack above or below the tail at rank k
        for side in (1, -1):
            budget = np.sqrt(lam[k:].sum() + side * 10 * slack)
            assert _certified_gram_basis([(1.0, mat)], 20, budget) is None
            np.testing.assert_array_equal(_mode_basis(mat, 20, budget), _lq_basis(mat, 20, budget))


def test_gram_branch_is_taken_on_the_wide_matrix_generator():
    # draws like those of test_mode_basis_matches_svd_on_wide_matrices, from a
    # fixed stream, so the fast path cannot silently stop triggering
    meta = np.random.default_rng(23)
    taken = 0
    for _ in range(300):
        rows = int(meta.integers(1, 41))
        cols = rows * int(meta.integers(1, 9))
        tau = float(meta.choice([1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]))
        k, r = (int(v) for v in meta.integers(1, rows + 1, size=2))
        mat = _decaying_matrix(meta, rows, cols, k, tau, tau * 1e-3 * int(meta.integers(2)))
        u = _certified_gram_basis([(1.0, mat)], r)
        if u is None:
            continue
        taken += 1
        np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-13)
        u_svd = svd_truncated(mat, r)[0]
        assert _residual(mat, u) <= _residual(mat, u_svd) + 1e-12 * np.linalg.norm(mat)
    assert taken >= 30


def test_tail_rank_keeps_the_fewest_values_within_budget():
    sv = np.array([4.0, 2.0, 1.0, 0.5])
    assert tail_rank(sv, 0.0) == 4
    assert tail_rank(sv, 0.5) == 3  # the tail norm 0.5 fits exactly
    assert tail_rank(sv, 1.2) == 2  # norm(1, 0.5) = 1.118...
    assert tail_rank(sv, 1e9) == 1  # at least one value is kept


@pytest.mark.parametrize("shape", [(5, 6, 7), (4, 30, 3)])  # wide and tall unfoldings
def test_tail_budget_picks_ranks_from_the_basis_svd(shape):
    t = np.random.default_rng(17).standard_normal(shape)
    budget = 0.45 * fro_norm(t)
    want = [tail_rank(np.linalg.svd(unfold(t, k), compute_uv=False), budget)
            for k in (1, 2, 3)]
    tk = hosvd(t, t.shape, tail_budget=budget)
    assert list(tk.ranks) == want
    ref = hosvd(t, want)
    for u, v in zip(tk.factors, ref.factors):
        np.testing.assert_array_equal(u, v)
    capped = tucker_partial(t, [None, 1, None], tail_budget=budget)
    assert capped.ranks == (shape[0], 1, shape[2])


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_tail_budget_ranks_do_not_depend_on_the_scale(scale):
    # the squared budget would overflow near 1e160 and underflow near 1e-170
    rng = np.random.default_rng(19)
    t = np.einsum("ia,ja,ka->ijk", *(rng.standard_normal((d, 4)) for d in (6, 7, 5)))
    t += 1e-3 * rng.standard_normal(t.shape)
    budget = 1e-2 * fro_norm(t)
    want = hosvd(t, t.shape, tail_budget=budget).ranks
    assert 1 < min(want) and max(want) < 5
    assert hosvd(scale * t, t.shape, tail_budget=scale * budget).ranks == want
    partial = tucker_partial(scale * t, [None, 7, None], tail_budget=scale * budget)
    assert partial.ranks[1] == want[1]


# ---------------------------------------------------------------------------
# Tucker
# ---------------------------------------------------------------------------


def test_hosvd_full_rank_is_exact():
    t = np.random.default_rng(5).standard_normal((3, 5, 2))
    rep = hosvd(t, t.shape)
    np.testing.assert_allclose(rep.reconstruct(), t, atol=1e-12)
    assert np.isclose(fro_norm(rep.core), fro_norm(t), rtol=1e-13)


def test_hosvd_core_norm_never_exceeds_tensor_norm():
    t = np.random.default_rng(6).standard_normal((4, 4, 3))
    rep = hosvd(t, (2, 3, 2))
    assert fro_norm(rep.core) <= fro_norm(t) + 1e-12
    for f in rep.factors:
        np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-13)


def test_hosvd_error_bounded_by_tail_energy():
    t = np.random.default_rng(7).standard_normal((4, 5, 3))
    ranks = (2, 3, 2)
    rep = hosvd(t, ranks)
    err2 = fro_norm(t - rep.reconstruct()) ** 2
    tails = 0.0
    for k, r in enumerate(ranks):
        sig = np.linalg.svd(unfold(t, k + 1), compute_uv=False)
        tails += (sig[r:] ** 2).sum()
    assert err2 <= tails + 1e-10


def test_hosvd_rank_validation():
    t = np.zeros((2, 2, 2))
    with pytest.raises(ShapeError):
        hosvd(t, (2, 2))
    with pytest.raises(ShapeError):
        hosvd(t, (3, 2, 2))


def test_tucker_partial_identity_modes():
    t = np.random.default_rng(8).standard_normal((3, 6, 4))
    rep = tucker_partial(t, [None, 2, None])
    assert rep.factors[0] is None and rep.factors[2] is None
    assert rep.core.shape == (3, 2, 4)
    # mode-2-only compression at full rank is exact
    full = tucker_partial(t, [None, 6, None])
    np.testing.assert_allclose(full.reconstruct(), t, atol=1e-12)


def test_tucker_rep_validates_factor_shapes():
    with pytest.raises(ShapeError):
        TuckerRep(core=np.zeros((2, 2, 2)), factors=(np.zeros((4, 3)), None, None))
    with pytest.raises(ShapeError, match="core order 3 does not match 2 factors"):
        TuckerRep(core=np.zeros((2, 2, 2)), factors=(None, None))
    for y, z in ((np.ones((3, 3)), np.ones((4, 2))), (np.ones((3, 2)), np.ones((4, 1)))):
        with pytest.raises(ShapeError, match="share the same number of columns"):
            KruskalRep(x=np.ones((2, 2)), y=y, z=z)


# ---------------------------------------------------------------------------
# CP
# ---------------------------------------------------------------------------


def test_cp_als_exact_on_rank1():
    rng = np.random.default_rng(10)
    t = np.einsum("i,j,k->ijk", rng.standard_normal(4), rng.standard_normal(6), rng.standard_normal(3))
    res = cp_als(t, 1)
    assert res.fit > 1 - 1e-13
    np.testing.assert_allclose(res.rep.reconstruct(), t, atol=1e-12)


def test_cp_als_fit_monotone_and_below_one():
    t = np.random.default_rng(11).standard_normal((4, 5, 3))
    res = cp_als(t, 1, max_iters=60)
    assert res.fit < 1.0
    hist = res.fit_history
    assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))


def test_cp_als_rank_exceeding_extent_uses_padded_init():
    t = np.random.default_rng(12).standard_normal((2, 5, 3))
    res = cp_als(t, 4, max_iters=200)  # r=4 > extent 2 on mode 1
    assert res.rep.x.shape == (2, 4)
    assert 0 < res.fit <= 1 + 1e-12


def _low_rank_plus_noise(rng, dims, rank, noise):
    """Sum of ``rank`` random rank-1 terms plus Gaussian noise of relative
    Frobenius size ``noise``."""
    t = np.einsum("ir,jr,kr->ijk", *(rng.standard_normal((d, rank)) for d in dims))
    e = rng.standard_normal(dims)
    return t + noise * fro_norm(t) / fro_norm(e) * e


def _model_fit(t, res):
    return 1.0 - fro_norm(t - res.rep.reconstruct()) / fro_norm(t)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
    sweeps=st.integers(1, 30),
    log_noise=st.one_of(st.none(), st.floats(-8.0, 0.5)),
    data=st.data(),
)
def test_cp_als_fit_is_the_model_residual(seed, dims, sweeps, log_noise, data):
    # exact low rank converges into the cancelling regime of the Gram-matrix
    # residual; noisy draws with r above the true rank grow diverging
    # components whose weights dwarf ||t||
    r = data.draw(st.integers(1, max(dims) + 2), label="CP rank")  # padded init
    true_rank = data.draw(st.integers(1, r), label="rank of the exact part")
    noise = 0.0 if log_noise is None else 10.0**log_noise
    t = _low_rank_plus_noise(np.random.default_rng(seed), dims, true_rank, noise)
    res = cp_als(t, r, max_iters=sweeps, tol=0)
    assert res.n_iters == sweeps
    assert abs(res.fit - _model_fit(t, res)) <= 1e-12
    assert res.fit <= 1 + 1e-12


def test_cp_als_fit_with_diverging_components():
    # rank 7 on a noisy rank-3 tensor: the weights reach about 1e6 ||t||, and
    # the Gram-matrix residual cancels although the fit is below 0.999
    t = _low_rank_plus_noise(np.random.default_rng(26), (6, 6, 5), 3, 3e-8)
    res = cp_als(t, 7, max_iters=23, tol=0)
    assert np.linalg.norm(res.rep.x, axis=0).sum() > 1e5 * fro_norm(t)
    assert res.fit < 0.999
    assert abs(res.fit - _model_fit(t, res)) <= 1e-12


def test_cp_als_trajectory_is_pinned():
    # ALS amplifies roundoff several hundredfold per sweep, so these digests
    # (recorded before the fit stopped forming the model) catch any change to
    # the order of the update arithmetic; they hold for one BLAS kernel set
    import hashlib

    from blockten.blocks import build_pattern, mat_to_tensor, struct_assemble

    rng = np.random.default_rng(2024)
    ell = m = 12
    idx = np.arange(m)
    pattern = build_pattern("toeplitz", ell, ell, m, m)
    blocks = [
        np.exp(-(((idx[:, None] - idx[None, :] + 0.3 * d) / 4.0) ** 2)) / (1 + (d / 5.0) ** 2)
        + 1e-2 * rng.standard_normal((m, m))
        for d in range(-(ell - 1), ell)
    ]
    t = mat_to_tensor(struct_assemble(pattern, blocks), pattern)
    assert t.shape == (12, 23, 12)
    res = cp_als(t, 4, max_iters=20, tol=0)
    expected = {
        "x": "93c6556ffbe508e00e7c5011d6ff83a9e6f015abfa1947726d9bd1cb3162dfc0",
        "y": "299ccca5db0315182e6530ecadaa37ab5dc6d978d2181f9eb882cdd8e96a4e17",
        "z": "786fa2dfef2a9ad14cdde99659b09aeb509635a05b2133475a66a27474961135",
    }
    for name, digest in expected.items():
        factor = np.ascontiguousarray(getattr(res.rep, name))
        assert hashlib.sha256(factor.tobytes()).hexdigest() == digest, name
    history = [
        0.4931250339326112, 0.7424188788332053, 0.8275042519673523, 0.8505112497470784,
        0.8744794534861512, 0.8839320425993835, 0.8871658498464773, 0.88890529402152,
        0.8900180037386484, 0.8907753226007104, 0.8913120410479868, 0.8917058867683467,
        0.8920044655147039, 0.8922381050691245, 0.8924267359559295, 0.8925837997515313,
        0.8927185643128719, 0.8928375433055861, 0.8929453925825541, 0.8930454909362596,
    ]
    np.testing.assert_allclose(res.fit_history, history, rtol=0, atol=1e-12)


def test_cp_als_rejects_zero_tensor_and_bad_args():
    with pytest.raises(ValueError):
        cp_als(np.zeros((2, 2, 2)), 1)
    with pytest.raises(ShapeError):
        cp_als(np.zeros((2, 2)), 1)
    with pytest.raises(ShapeError):
        cp_als(np.ones((2, 2, 2)), 0)
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        cp_als(np.ones((2, 2, 2)), 1, max_iters=0)


# ---------------------------------------------------------------------------
# randomized basis
# ---------------------------------------------------------------------------


def _exact_mode2_rank_tensor(rng, dims, r):
    base = rng.standard_normal((dims[0], r, dims[2]))
    mix = rng.standard_normal((dims[1], r))
    return mode_multiply(base, 2, mix)


def test_randomized_mode_basis_is_deterministic():
    rng = np.random.default_rng(13)
    t = rng.standard_normal((5, 12, 5))
    u1 = randomized_mode_basis(t, 2, 3, 4, seed=42)
    u2 = randomized_mode_basis(t, 2, 3, 4, seed=42)
    assert np.array_equal(u1, u2)
    u3 = randomized_mode_basis(t, 2, 3, 4, seed=43)
    assert not np.array_equal(u1, u3)


def test_randomized_mode_basis_captures_exact_rank():
    rng = np.random.default_rng(14)
    t = _exact_mode2_rank_tensor(rng, (6, 15, 6), 3)
    u = randomized_mode_basis(t, 2, 3, 5, seed=7)
    resid = unfold(t, 2) - u @ (u.T @ unfold(t, 2))
    assert np.linalg.norm(resid) < 1e-11 * np.linalg.norm(unfold(t, 2))


def test_randomized_mode_basis_validation():
    t = np.zeros((3, 4, 3))
    with pytest.raises(ShapeError):
        randomized_mode_basis(t, 2, 2, 1, seed=0)  # sketch below rank
    for mode in (0, 4):
        with pytest.raises(ShapeError, match=f"mode {mode} out of range"):
            randomized_mode_basis(t, mode, 2, 4, seed=0)


def test_cp_als_is_scale_invariant():
    # a tensor near 1e-200 used to be rejected as zero, one near 1e200 to fit 0.0
    t = np.random.default_rng(31).standard_normal((5, 6, 4))
    ref = cp_als(t, 3)
    for scale in (1e-200, 1e200):
        assert cp_als(t * scale, 3).fit == pytest.approx(ref.fit, rel=1e-12)
    for e in (-660, 660):  # an exact rescale leaves the whole trajectory alone
        got = cp_als(np.ldexp(t, e), 3)
        assert got.fit_history == ref.fit_history
        assert np.array_equal(got.rep.x, np.ldexp(ref.rep.x, e))
        assert np.array_equal(got.rep.y, ref.rep.y) and np.array_equal(got.rep.z, ref.rep.z)


def _with_zero_columns(mat, rng, extra):
    """``mat`` with ``extra`` all-zero columns scattered between its own."""
    out = np.zeros((mat.shape[0], mat.shape[1] + extra))
    keep = np.sort(rng.choice(out.shape[1], mat.shape[1], replace=False))
    out[:, keep] = mat
    return out


@pytest.mark.parametrize("branch", ["gram", "lq"])
def test_mode_basis_residual_does_not_see_zero_columns(branch):
    rng = np.random.default_rng(30)
    if branch == "gram":  # a slowly decaying spectrum: the certificate passes
        mat, r = _decaying_matrix(rng, 12, 80, 12, 1e-2, 0.0), 5
        assert _certified_gram_basis([(1.0, mat)], r) is not None
    else:  # exactly rank r: the Gram branch declines
        mat, r = _decaying_matrix(rng, 12, 80, 6, 1e-3, 0.0), 6
        assert _certified_gram_basis([(1.0, mat)], r) is None
    padded = _with_zero_columns(mat, rng, 160)
    scale = np.linalg.norm(mat)
    reference = _residual(padded, _lq_basis(padded, r))  # the exact kernel on every column
    for u in (_mode_basis(padded, r), _mode_basis(mat, r)):
        assert u.shape == (12, r)
        np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-13)
        assert abs(_residual(padded, u) - reference) <= 1e-12 * scale
    budget = 0.5 * np.linalg.norm(np.linalg.svd(mat, compute_uv=False)[3:])
    assert _mode_basis(padded, 12, budget).shape[1] == _mode_basis(mat, 12, budget).shape[1]


def test_mode_basis_completes_fewer_nonzero_columns_than_its_rank():
    rng = np.random.default_rng(31)
    mat = _with_zero_columns(rng.standard_normal((10, 3)), rng, 27)
    u = _mode_basis(mat, 5)
    assert u.shape == (10, 5)
    np.testing.assert_allclose(u.T @ u, np.eye(5), rtol=0, atol=1e-13)
    assert _residual(mat, u) <= 1e-13 * np.linalg.norm(mat)


@pytest.mark.parametrize("shape", [(6, 20), (6, 6), (20, 6)])
def test_mode_basis_of_a_zero_unfolding_is_unchanged(shape):
    zero = np.zeros(shape)
    np.testing.assert_array_equal(_mode_basis(zero, 3), _lq_basis(zero, 3))
    np.testing.assert_array_equal(_mode_basis(zero, 3), np.eye(shape[0], 3))
    np.testing.assert_array_equal(_mode_basis(zero, 3, 0.0), _lq_basis(zero, 3, 0.0))


def test_mode_basis_factors_the_nonzero_columns_and_copies_nothing_else(monkeypatch):
    rng = np.random.default_rng(32)
    mat = _decaying_matrix(rng, 8, 40, 8, 1e-2, 0.0)
    seen = []
    monkeypatch.setattr("blockten.decomp._certified_gram_basis",
                        lambda blocks, r, budget=None: seen.append(blocks[0][1])
                        or _certified_gram_basis(blocks, r, budget))
    _mode_basis(mat, 3)
    _mode_basis(_with_zero_columns(mat, rng, 60), 3)
    assert seen[0] is mat
    np.testing.assert_array_equal(seen[1], mat)


def _sparse_blocks(rng, pat, zero_class=False):
    """Random blocks on a shared random support, one class zeroed when asked."""
    mask = rng.random((pat.m, pat.n)) < 0.5
    blocks = [b * mask for b in random_blocks(rng, pat)]
    if zero_class:
        blocks[rng.integers(pat.p)][:] = 0.0
    return blocks


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS), zero_class=st.booleans(),
       tol=st.sampled_from([None, 0.0, 0.05, 0.5]))
def test_mode2_on_rows_is_tucker_partial_on_the_tensor(seed, kind, zero_class, tol):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, kind, max_grid=6, max_block=5)
    blocks = _sparse_blocks(rng, pat, zero_class)
    t = blocks_to_tensor(pat, blocks)
    support, rows = blocks_to_rows(pat, blocks)
    r = int(rng.integers(1, pat.p + 1))
    budget = None if tol is None else tol * fro_norm(t)
    want = tucker_partial(t, [None, r, None], budget)
    got = mode2_tucker(support, rows, pat.m, pat.n, r, budget)
    assert got.factors[0] is None and got.factors[2] is None
    assert np.array_equal(got.factors[1], want.factors[1])  # the same basis, bit for bit
    assert got.core.shape == want.core.shape
    scale = max(fro_norm(want.core), 1e-300)
    assert fro_norm(got.core - want.core) <= 1e-12 * scale


@pytest.mark.parametrize("shape", [(6, 3, 4), (2, 9, 1)])  # wide and tall unfoldings
@pytest.mark.parametrize("budget", [None, 0.0])
def test_mode2_on_no_support_is_the_zero_unfoldings_basis(shape, budget, monkeypatch):
    m, p, n = shape
    want = tucker_partial(np.zeros(shape), [None, 2, None], budget)

    def no_lapack(*_):
        raise AssertionError("an empty unfolding reached the basis kernel")

    monkeypatch.setattr("blockten.decomp._mode_basis", no_lapack)
    got = mode2_tucker(np.zeros(0, dtype=np.int64), np.zeros((p, 0)), m, n, 2, budget)
    assert np.array_equal(got.factors[1], want.factors[1])
    assert got.core.tobytes() == want.core.tobytes()


@pytest.mark.parametrize("budget", [None, 0.0, 1.0])
def test_tucker_on_an_empty_extent_is_the_zero_unfoldings_basis(budget, monkeypatch):
    # each mode's basis is the one a nonempty zero tensor of the same extents gets
    want = hosvd(np.zeros((2, 3, 1)), [2, 2, None], budget).factors

    def no_lapack(*_):
        raise AssertionError("an empty unfolding reached the basis kernel")

    monkeypatch.setattr("blockten.decomp._mode_basis", no_lapack)
    for shape in ((2, 3, 0), (0, 2, 3)):
        t = np.zeros(shape)
        got = tucker_partial(t, [None, 2, None], budget)
        assert np.array_equal(got.factors[1], np.eye(shape[1], 2 if budget is None else 1))
        assert got.core.shape == (shape[0], got.factors[1].shape[1], shape[2])
    got = hosvd(np.zeros((2, 3, 0)), [2, 2, None], budget)
    for u, v in zip(got.factors, want):
        assert (u is None and v is None) or np.array_equal(u, v)
    assert got.core.shape == (*got.ranks[:2], 0)


def test_mode2_on_rows_checks_its_rank():
    with pytest.raises(ShapeError, match="mode-2 rank 4 out of range for extent 3"):
        mode2_tucker(np.arange(2), np.ones((3, 2)), 1, 2, 4)

