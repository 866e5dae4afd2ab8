"""System identification, covariance assembly, and reporting metrics."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse

from blockten import build_pattern, struct_assemble
from blockten.apps import (
    EraResult,
    KernelConfig,
    LtiSystem,
    MarkovSequence,
    era_identify_compressed,
    hankel_pattern_from_markov,
    hausdorff_eigs,
    markov_from_lti,
    report_metrics,
    spacetime_build,
)
from blockten.errors import ConvergenceError, ShapeError
from blockten import blocks as block_maps
from blockten.psd import spd_compress, spsd_compress_blocks
from blockten.reconstruct import kron_sum_from_tucker
from blockten.decomp import hosvd
from blockten.multilevel import blur_operator_dense, psf_weighted_tensor
from blockten.blocks import detect_pattern, mat_to_tensor


def _random_stable_lti(rng, d, n_in, n_out, rho=0.9):
    a = rng.standard_normal((d, d))
    a *= rho / max(abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((d, n_in))
    c = rng.standard_normal((n_out, d))
    return LtiSystem(a=a, b=b, c=c)


# ---------------------------------------------------------------------------
# Markov sequences and the block Hankel
# ---------------------------------------------------------------------------


def test_single_block_hankel_is_h1():
    seq = MarkovSequence(params=np.arange(6.0).reshape(1, 2, 3))
    pat, blocks = hankel_pattern_from_markov(seq)
    assert pat.p == 1 and pat.counts == (1,)
    np.testing.assert_array_equal(struct_assemble(pat, blocks), seq.params[0])


def test_two_block_hankel_antidiagonal_counts():
    seq = MarkovSequence(params=np.arange(3.0).reshape(3, 1, 1))
    pat, _ = hankel_pattern_from_markov(seq)
    assert pat.p == 3
    assert pat.counts == (1, 2, 1)
    # anti-diagonal placements: class k covers cells with i + j = k - 1
    for k, cells in enumerate(pat.placements):
        assert np.all(cells[:, 0] + cells[:, 1] == k)


def test_scalar_hankel_matches_hand_built():
    h = np.arange(1.0, 6.0)
    seq = MarkovSequence(params=h.reshape(5, 1, 1))
    pat, blocks = hankel_pattern_from_markov(seq)
    dense = struct_assemble(pat, blocks)
    expected = np.array([[1.0, 2, 3], [2, 3, 4], [3, 4, 5]])
    np.testing.assert_array_equal(dense, expected)


def test_markov_sequence_validation():
    with pytest.raises(ShapeError):
        MarkovSequence(params=np.zeros((4, 2, 2)))  # even count
    with pytest.raises(ShapeError):
        MarkovSequence(params=np.zeros((3, 2)))
    a, b, c = np.eye(3), np.ones((3, 2)), np.ones((2, 3))
    for bad in (dict(a=a[:2]), dict(b=b[:2]), dict(c=c[:, :2])):
        with pytest.raises(ShapeError, match="must"):
            LtiSystem(**{"a": a, "b": b, "c": c, **bad})
    with pytest.raises(ShapeError, match="count must be odd"):
        markov_from_lti(LtiSystem(a=a, b=b, c=c), 4)
    for bad in (np.nan, np.inf):
        params = np.ones((3, 2, 2))
        params[1, 0, 1] = bad
        with pytest.raises(ShapeError, match="must be finite"):
            MarkovSequence(params=params)


def test_markov_from_lti_matches_power_formula():
    rng = np.random.default_rng(0)
    sys = _random_stable_lti(rng, 3, 2, 2)
    seq = markov_from_lti(sys, 7)
    for k in range(7):
        np.testing.assert_allclose(
            seq.params[k], sys.c @ np.linalg.matrix_power(sys.a, k) @ sys.b,
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# compressed-coordinate realization
# ---------------------------------------------------------------------------


def _lift(res):
    """Dense ``(I (x) U) R (I (x) W^T)`` of an :class:`EraResult`."""
    eye = np.eye(res.pattern.ell)
    return np.kron(eye, res.basis_left) @ res.reduced_hankel @ np.kron(eye, res.basis_right).T


def test_exact_small_system_recovered():
    rng = np.random.default_rng(42)
    sys = _random_stable_lti(rng, 2, 1, 1)
    seq = markov_from_lti(sys, 19)
    res = era_identify_compressed(seq, (1, 19, 1), order=2)
    assert hausdorff_eigs(np.linalg.eigvals(res.system.a), np.linalg.eigvals(sys.a)) < 1e-8


def test_full_rank_approx_equals_hankel():
    rng = np.random.default_rng(1)
    sys = _random_stable_lti(rng, 3, 2, 2)
    seq = markov_from_lti(sys, 15)
    pat, blocks = hankel_pattern_from_markov(seq)
    res = era_identify_compressed(seq, (2, 15, 2), order=3)
    np.testing.assert_allclose(_lift(res), struct_assemble(pat, blocks), atol=1e-11)


def test_identified_system_reproduces_markov_parameters():
    rng = np.random.default_rng(2)
    sys = _random_stable_lti(rng, 4, 2, 2)
    seq = markov_from_lti(sys, 31)
    res = era_identify_compressed(seq, (2, 31, 2), order=4)
    back = markov_from_lti(res.system, 31)
    np.testing.assert_allclose(back.params, seq.params, atol=1e-9)


def test_tera_reduced_hankel_holds_projected_parameters():
    rng = np.random.default_rng(3)
    sys = _random_stable_lti(rng, 4, 3, 3)
    seq = markov_from_lti(sys, 21)
    res = era_identify_compressed(seq, (2, 0, 2), order=4, tera=True)
    u, w = res.basis_left, res.basis_right
    mids = np.stack([u.T @ hk @ w for hk in seq.params])
    ref = struct_assemble(res.reduced_pattern, mids)
    np.testing.assert_allclose(res.reduced_hankel, ref, atol=1e-12)
    # lifted: (I (x) U) struct(U^T h_k W) (I (x) W^T)
    s = seq.s
    lift = np.kron(np.eye(s), u) @ ref @ np.kron(np.eye(s), w).T
    np.testing.assert_allclose(_lift(res), lift, atol=1e-12)


def test_degenerate_and_invalid_inputs():
    zero = MarkovSequence(params=np.zeros((9, 2, 2)))
    with pytest.raises(ConvergenceError):
        era_identify_compressed(zero, (2, 9, 2), order=1)
    rng = np.random.default_rng(4)
    sys = _random_stable_lti(rng, 2, 1, 1)
    seq = markov_from_lti(sys, 9)
    with pytest.raises(ShapeError):
        era_identify_compressed(seq, (1, 9, 1), order=0)
    with pytest.raises(ConvergenceError):
        # exact order-2 data cannot support an order-4 realization
        era_identify_compressed(seq, (1, 9, 1), order=4)
    single = MarkovSequence(params=np.ones((1, 1, 1)))
    with pytest.raises(ShapeError):
        era_identify_compressed(single, (1, 1, 1), order=1)


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------


def test_hausdorff_identical_sets_is_zero():
    pts = np.array([1 + 2j, 3.0, -1j])
    assert hausdorff_eigs(pts, pts) == 0.0


def test_hausdorff_simple_values():
    assert hausdorff_eigs([0.0], [1.0]) == 1.0
    assert hausdorff_eigs([0.0, 10.0], [0.0]) == 10.0


def test_hausdorff_brute_force_oracle():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    d1 = max(min(abs(x - y) for y in b) for x in a)
    d2 = max(min(abs(x - y) for y in a) for x in b)
    assert np.isclose(hausdorff_eigs(a, b), max(d1, d2), rtol=1e-15)


def test_hausdorff_rejects_empty():
    with pytest.raises(ShapeError):
        hausdorff_eigs([], [1.0])


# ---------------------------------------------------------------------------
# space-time covariance
# ---------------------------------------------------------------------------


def test_single_time_is_plain_kernel_matrix():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 50, size=(5, 2))
    pat, blocks = spacetime_build(pts, np.array([0.0]))
    assert pat.p == 1 and blocks.shape == (1, 5, 5)
    from scipy.spatial.distance import cdist

    np.testing.assert_allclose(
        blocks[0], np.exp(-((cdist(pts, pts) / 90.0) ** 2)), atol=1e-15
    )


def test_covariance_entries_match_kernel_oracle():
    pts = np.array([[0.0], [10.0], [25.0]])  # collinear
    times = np.array([0.0, 0.5])
    pat, blocks = spacetime_build(pts, times)
    flat_pat, flat_blocks = spacetime_build(pts.ravel(), times)  # 1-D points read as (N, 1)
    assert flat_pat == pat and np.array_equal(flat_blocks, blocks)
    c = struct_assemble(pat, blocks)
    for ti in range(2):
        for tj in range(2):
            for i in range(3):
                for j in range(3):
                    r = abs(pts[i, 0] - pts[j, 0])
                    tau = abs(times[ti] - times[tj])
                    ref = np.exp(-((r / 90.0) ** 2 + (tau / 0.5) ** 2))
                    assert np.isclose(c[ti * 3 + i, tj * 3 + j], ref, atol=1e-15)


def test_covariance_pattern_multiplicities():
    rng = np.random.default_rng(7)
    pat, _ = spacetime_build(rng.uniform(0, 9, size=(4, 2)), np.arange(5.0))
    assert pat.p == 5
    assert pat.counts == (5, 8, 6, 4, 2)  # T, then 2(T-k+1)


def test_long_lag_blocks_vanish():
    pts = np.zeros((2, 1))
    times = np.arange(3.0) * 100.0  # lags far beyond the temporal scale
    _, blocks = spacetime_build(pts, times)
    assert np.max(np.abs(blocks[1:])) < 1e-300 or np.max(np.abs(blocks[1:])) == 0.0


def _benchmark_grid(side=16, spacing=10.0):
    g = np.arange(side) * spacing
    jitter = np.random.default_rng(40).uniform(-1e-2, 1e-2, (side * side, 2))
    return np.array([(x, y) for y in g for x in g]) + jitter


@pytest.mark.parametrize("temporal_scale", [0.5, 50.0])
def test_spacetime_build_is_the_stacked_kernel_bit_for_bit(temporal_scale):
    # at scale 0.5 (the default) the lags from 14 on underflow to zero blocks,
    # which are written without evaluating the kernel; at 50 none does
    pts, times = _benchmark_grid(), np.arange(20.0)
    kcfg = KernelConfig(temporal_scale=temporal_scale)
    _, blocks = spacetime_build(pts, times, kcfg)
    dists = np.sqrt(sum((col[:, None] - col[None, :]) ** 2 for col in pts.T))
    direct = np.stack([kcfg(dists, lag) for lag in np.abs(times - times[0])])
    assert blocks.tobytes() == direct.tobytes()
    zero = [k for k in range(20) if not blocks[k].any()]
    assert zero == (list(range(14, 20)) if temporal_scale == 0.5 else [])


def test_spacetime_build_rejects_nonfinite_inputs():
    for bad in (np.nan, np.inf):
        with pytest.raises(ShapeError, match="finite"):
            spacetime_build(np.array([[0.0, 1.0], [bad, 2.0]]), np.arange(3.0))
        with pytest.raises(ShapeError, match="finite"):
            spacetime_build(np.zeros((2, 1)), np.array([0.0, bad, 2.0]))


def test_spsd_zero_classes_match_the_full_unfolding():
    from blockten.decomp import _lq_basis

    pts = _benchmark_grid(side=6)
    pattern, blocks = spacetime_build(pts, np.arange(20.0), KernelConfig(spatial_scale=15.0))
    zero = [k for k in range(pattern.p) if not blocks[k].any()]
    assert zero == list(range(14, 20))
    rep = spsd_compress_blocks(pattern, blocks, 8)
    assert not rep.blocks[zero].any()
    # the exact kernel on every column of the mode-1 unfolding, zero classes included
    u = _lq_basis(block_maps.blocks_to_tensor(pattern, blocks).reshape(36, -1), 8)
    np.testing.assert_allclose(rep.basis @ rep.basis.T, u @ u.T, rtol=0, atol=1e-12)
    full = np.stack([u.T @ b @ u for b in blocks])
    np.testing.assert_allclose(rep.basis @ rep.blocks @ rep.basis.T, u @ full @ u.T,
                               rtol=0, atol=1e-12)


def test_nonequispaced_times_rejected():
    with pytest.raises(ShapeError):
        spacetime_build(np.zeros((2, 1)), np.array([0.0, 1.0, 2.5]))


def test_kernel_config_validation():
    with pytest.raises(ShapeError):
        KernelConfig(spatial_scale=-1.0)
    with pytest.raises(ShapeError):
        KernelConfig(nugget=-1e-8)
    for bad in (dict(spatial_scale=np.nan), dict(temporal_scale=np.nan), dict(nugget=np.nan),
                dict(nugget=np.inf)):
        with pytest.raises(ShapeError):
            KernelConfig(**bad)


def test_non_finite_system_and_psf_inputs_are_refused():
    a, b, c = np.eye(3), np.ones((3, 2)), np.ones((2, 3))
    for name in "abc":
        bad = {"a": a, "b": b, "c": c}
        bad[name] = bad[name].copy()
        bad[name][0, 1] = np.nan
        with pytest.raises(ShapeError, match="must be finite"):
            LtiSystem(**bad)
    psf = np.ones((3, 3, 3))
    for value in (np.inf, -np.inf, np.nan):
        psf[1, 2, 0] = value
        for entry in (psf_weighted_tensor, blur_operator_dense):
            with pytest.raises(ShapeError, match="psf entries must be finite"):
                entry(psf)
    # an infinite length-scale is the kernel's constant limit, finite everywhere
    _, blocks = spacetime_build(np.arange(4.0), np.arange(3.0), KernelConfig(spatial_scale=np.inf))
    np.testing.assert_allclose(blocks, np.exp(-(np.arange(3.0) / 0.5) ** 2)[:, None, None]
                               * np.ones((3, 4, 4)), rtol=1e-15)


def test_nugget_shifted_covariance_admits_cholesky():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 200, size=(6, 2))
    pat, blocks = spacetime_build(pts, np.arange(4.0) * 0.25)
    c = struct_assemble(pat, blocks)
    np.linalg.cholesky(c + KernelConfig().nugget * np.eye(c.shape[0]))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_full_rank_shared_basis_has_zero_trace_error():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, 100, size=(5, 1))
    pat, blocks = spacetime_build(pts, np.arange(3.0))
    rep = spsd_compress_blocks(pat, blocks, 5)
    c = struct_assemble(pat, blocks)
    metrics = report_metrics(c, rep)
    assert metrics["relerr_trace"] < 1e-13
    assert metrics["relerr_fro"] < 1e-13


def test_trace_metric_avoids_densifying():
    rng = np.random.default_rng(10)
    pts = rng.uniform(0, 100, size=(6, 2))
    pat, blocks = spacetime_build(pts, np.arange(4.0) * 0.5)
    rep = spsd_compress_blocks(pat, blocks, 3)
    c = struct_assemble(pat, blocks)
    with_pattern = report_metrics(pat, rep, trace_ref=float(np.trace(c)))
    with_matrix = report_metrics(c, rep)
    assert np.isclose(with_pattern["relerr_trace"], with_matrix["relerr_trace"],
                      rtol=1e-10)
    assert "relerr_fro" not in with_pattern


def test_shared_basis_storage_ratio_formula():
    # (r^2 T + N r) / (N^2 T) with one N x N block per lag class
    rng = np.random.default_rng(11)
    n_pts, t_count, r = 8, 5, 3
    pat, blocks = spacetime_build(
        rng.uniform(0, 50, size=(n_pts, 2)), np.arange(float(t_count))
    )
    rep = spsd_compress_blocks(pat, blocks, r)
    got = report_metrics(pat, rep)["storage_ratio"]
    assert np.isclose(got, (r * r * t_count + n_pts * r) / (n_pts**2 * t_count),
                      rtol=1e-15)
    # the published covariance configuration lands near 0.002
    assert abs((30**2 * 30 + 1351 * 30) / (1351**2 * 30) - 0.002) < 1e-3


@pytest.mark.parametrize("source", ["spacetime", "detected"])
def test_spd_storage_ratio_is_over_the_source_distinct_blocks(source):
    # the anchor block is one of the distinct blocks the SPD form replaces, so
    # on a symmetric block-Toeplitz input the ratio is over the source's p m^2
    rng = np.random.default_rng(15)
    if source == "spacetime":
        pat, blocks = spacetime_build(rng.uniform(0, 50, size=(8, 2)), np.arange(6.0))
        blocks = blocks.copy()
        blocks[0] += 0.5 * np.eye(8)
        a = struct_assemble(pat, blocks)
    else:
        subs = [0.2 * rng.standard_normal((4, 4)) for _ in range(4)]
        a = struct_assemble(build_pattern("toeplitz", 5, 5, 4, 4),
                            np.stack([4.0 * np.eye(4)] + subs + [s.T for s in subs]))
        pat, _ = detect_pattern(a, 4, 4)
    rep = spd_compress(a, pat, 2)
    assert rep.distinct_scalars() == pat.p * pat.m * pat.n
    assert report_metrics(a, rep)["storage_ratio"] == rep.stored_scalars() / rep.distinct_scalars()


def test_kron_storage_ratio_counts_nonzeros():
    rng = np.random.default_rng(12)
    pat = build_pattern("banded", 6, 6, 3, 3, band=1)
    blocks = rng.standard_normal((pat.p, 3, 3))
    a = struct_assemble(pat, blocks)
    t = mat_to_tensor(a, pat)
    rep = kron_sum_from_tucker(hosvd(t, [3, pat.p, 3]), pat)
    metrics = report_metrics(a, rep)
    stored = rep.coeffs.size + sum(np.count_nonzero(d) for d in rep.terms)
    assert np.isclose(metrics["storage_ratio"], stored / np.count_nonzero(a),
                      rtol=1e-15)
    assert metrics["relerr_fro"] < 1e-12


def test_storage_ratio_is_the_same_for_every_matrix_kind():
    rng = np.random.default_rng(14)
    pat = build_pattern("banded", 4, 4, 2, 2, band=1)
    a = struct_assemble(pat, rng.standard_normal((pat.p, 2, 2)))
    a[0, 1], a[2, 2] = 0.0, -0.0  # signed zeros in claimed cells
    rep = kron_sum_from_tucker(hosvd(mat_to_tensor(a, pat), [2, pat.p, 2]), pat)
    rows, cols = np.indices(a.shape).reshape(2, -1)
    coo = scipy.sparse.coo_matrix(  # every entry stored, then a pair that sums to zero
        (np.append(a.ravel(), [2.0, -2.0]), (np.append(rows, [7, 7]), np.append(cols, [0, 0]))),
        shape=a.shape)
    stored = [arr.copy() for arr in (coo.row, coo.col, coo.data)]
    ratios = {report_metrics(m, rep)["storage_ratio"] for m in (a, coo, coo.tocsr())}
    assert ratios == {rep.stored_scalars() / np.count_nonzero(a)}
    for before, after in zip(stored, (coo.row, coo.col, coo.data)):  # the input is left alone
        np.testing.assert_array_equal(before, after)


def test_spd_certificate_needs_no_dense_form(monkeypatch):
    # the SPD form is certified on the block view like every other kind, so a
    # matrix above the dense-size guard still gets its relerr_fro
    rng = np.random.default_rng(13)
    pat, blocks = spacetime_build(rng.uniform(0, 100, size=(6, 2)), np.arange(5.0) * 0.5)
    a = struct_assemble(pat, blocks) + 1e-3 * np.eye(pat.shape[0])
    rep = spd_compress(a, pat, 3)
    u, rem = rep.remainder.basis, rep.remainder
    lift = np.kron(np.eye(pat.ell), rep.chol)
    inner = struct_assemble(rem.pattern, [u @ b @ u.T for b in rem.blocks])
    dense = lift @ (np.eye(a.shape[0]) + inner) @ lift.T
    want = np.linalg.norm(a - dense) / np.linalg.norm(a)
    monkeypatch.setattr(block_maps, "DENSIFY_LIMIT", a.size - 1)
    with pytest.raises(ShapeError, match="dense result would hold"):
        rep.densify()
    got = report_metrics(a, rep)["relerr_fro"]
    assert want > 1e-3 and abs(got - want) <= 1e-13 * want
