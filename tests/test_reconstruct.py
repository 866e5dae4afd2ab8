"""Representations: converters, matvec, densify, the certificate and the
protocol every kind answers."""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockten import container, reconstruct
from blockten.apps import spacetime_build
from blockten.blocks import (
    BlockPattern,
    _grid_is_filled,
    build_pattern,
    detect_pattern,
    mat_to_tensor,
    struct_assemble,
    tensor_to_mat,
)
from blockten.cli import main
from blockten.container import container_read, container_write
from blockten.decomp import KruskalRep, TuckerRep, cp_als, hosvd, qr_thin, tucker_partial
from blockten.errors import ShapeError
from blockten.multilevel import MAX_LEVELS, MultilevelPattern, MultilevelTuckerRep
from blockten.psd import SpdRep, SpsdRep, spd_compress_blocks
from blockten.reconstruct import (
    BlockLowRankRep,
    FlopCounter,
    KronSumRep,
    blr_from_kruskal,
    blr_from_tucker,
    class_error_fro,
    densify,
    error_fro,
    kron_sum_from_kruskal,
    kron_sum_from_tucker,
    matvec,
)
from blockten.tensor import fro_norm, scale_exponent

from helpers import (PATTERN_KINDS, c_term_dense, placement_matrix, random_blocks,
                     random_pattern, random_ranks)


def _setup(seed=0, kind="toeplitz"):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, kind)
    a = struct_assemble(pat, random_blocks(rng, pat))
    return rng, pat, a, mat_to_tensor(a, pat)


def test_identity_factor_kron_terms_are_placements_and_weighted_blocks():
    rng, pat, a, t = _setup(1)
    rep = kron_sum_from_tucker(TuckerRep(core=t, factors=(None, None, None)), pat)
    assert rep.n_terms == pat.p
    for k in range(pat.p):
        np.testing.assert_allclose(c_term_dense(rep, k), placement_matrix(pat, k), atol=1e-15)
        np.testing.assert_allclose(rep.terms[k], t[:, k, :], atol=1e-15)
    np.testing.assert_allclose(densify(rep), a, atol=1e-13)


def test_c_terms_supported_inside_pattern_union():
    rng, pat, a, t = _setup(2, kind="general")
    rep = kron_sum_from_tucker(hosvd(t, random_ranks(rng, t.shape)), pat)
    union = np.zeros((pat.ell, pat.q), dtype=bool)
    for cells in pat.placements:
        union[cells[:, 0], cells[:, 1]] = True
    for j in range(rep.n_terms):
        assert not np.any(c_term_dense(rep, j)[~union])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS))
def test_reconstruction_routes_agree(seed, kind):
    # densified kron-sum == M[T approx] == densified BLR, for one Tucker truncation
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, kind)
    a = struct_assemble(pat, random_blocks(rng, pat))
    t = mat_to_tensor(a, pat)
    tk = hosvd(t, random_ranks(rng, t.shape))
    via_tensor = tensor_to_mat(tk.reconstruct(), pat)
    scale = max(fro_norm(a), 1.0)
    assert fro_norm(densify(kron_sum_from_tucker(tk, pat)) - via_tensor) < 1e-13 * scale
    assert fro_norm(densify(blr_from_tucker(tk, pat)) - via_tensor) < 1e-13 * scale


def test_error_equals_tensor_error():
    rng, pat, a, t = _setup(3)
    tk = hosvd(t, (max(1, pat.m - 1), max(1, pat.p - 2), pat.n))
    rep = kron_sum_from_tucker(tk, pat)
    e_mat = fro_norm(a - densify(rep))
    e_ten = fro_norm(t - tk.reconstruct())
    assert abs(e_mat - e_ten) < 1e-12 * max(fro_norm(a), 1.0)


def test_kron_sum_from_kruskal_has_rank_one_partners():
    rng, pat, a, t = _setup(4)
    res = cp_als(t, min(pat.m * pat.n, pat.p, 3), max_iters=120)
    rep = kron_sum_from_kruskal(res.rep, pat)
    want = tensor_to_mat(res.rep.reconstruct(), pat)
    np.testing.assert_allclose(densify(rep), want, atol=1e-11)
    for j in range(rep.n_terms):
        assert np.linalg.matrix_rank(rep.terms[j], tol=1e-10) <= 1


def test_blr_from_kruskal_orthonormal_bases():
    rng = np.random.default_rng(5)
    pat = build_pattern("hankel", 3, 3, 4, 4)
    a = struct_assemble(pat, random_blocks(rng, pat))
    t = mat_to_tensor(a, pat)
    res = cp_als(t, 2, max_iters=80)
    rep = blr_from_kruskal(res.rep, pat)
    np.testing.assert_allclose(rep.left.T @ rep.left, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(rep.right.T @ rep.right, np.eye(2), atol=1e-12)
    approx = densify(rep)
    np.testing.assert_allclose(approx, tensor_to_mat(res.rep.reconstruct(), pat), atol=1e-11)


def test_blr_from_kruskal_rejects_rank_above_block_extent():
    rng = np.random.default_rng(6)
    pat = build_pattern("toeplitz", 4, 4, 2, 2)
    t = mat_to_tensor(struct_assemble(pat, random_blocks(rng, pat)), pat)
    res = cp_als(t, 3, max_iters=10)
    with pytest.raises(ShapeError):
        blr_from_kruskal(res.rep, pat)


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_kruskal_converters_keep_their_term_formulas(r):
    # the per-term formulas D_j = X diag(e_j) Z^T and R_x diag(Y[k]) R_z^T,
    # an oracle independent of the route through the superdiagonal Tucker
    # form; r = 5 exceeds the 3 x 4 blocks, which only the Kronecker sum allows
    rng = np.random.default_rng(50 + r)
    pat = build_pattern("toeplitz", 4, 4, 3, 4)
    x, y, z = (rng.standard_normal((d, r)) for d in (pat.m, pat.p, pat.n))
    cp = KruskalRep(x=x, y=y, z=z)
    rep = kron_sum_from_kruskal(cp, pat)
    assert np.array_equal(rep.coeffs, y)
    for j in range(r):
        assert np.array_equal(rep.terms[j], (x * np.eye(r)[:, j]) @ z.T), j
    if r > min(pat.m, pat.n):
        with pytest.raises(ShapeError, match="exceeds a block extent"):
            blr_from_kruskal(cp, pat)
        return
    (q_x, r_x), (q_z, r_z) = qr_thin(x), qr_thin(z)
    rep = blr_from_kruskal(cp, pat)
    assert np.array_equal(rep.left, q_x) and np.array_equal(rep.right, q_z)
    for k in range(pat.p):
        oracle = (r_x * y[k]) @ r_z.T
        assert fro_norm(rep.middles[k] - oracle) <= 1e-13 * fro_norm(oracle), k


@pytest.mark.parametrize("kind", ["banded", "toeplitz", "general"])
def test_blr_middles_are_stacked_for_the_matvec_as_a_view(kind):
    # whatever the core's memory order, the first product copies no middle
    rng, pat, a, t = _setup(9, kind)
    tk = hosvd(t, random_ranks(rng, t.shape))
    oracle = np.einsum("ajb,kj->kab", tk.core, tk.factors[1])
    x = rng.standard_normal(pat.shape[1])
    for core in (tk.core, np.ascontiguousarray(tk.core)):
        blr = blr_from_tucker(TuckerRep(core, tk.factors), pat)
        np.testing.assert_allclose(blr.middles, oracle, rtol=0, atol=1e-13 * fro_norm(core))
        assert np.shares_memory(blr._middle_stack, blr.middles)
        dense = densify(blr)
        np.testing.assert_allclose(blr.matvec(x), dense @ x, rtol=0,
                                   atol=1e-12 * max(1.0, fro_norm(dense)) * np.linalg.norm(x))


def test_mode2_compression_inherits_block_support():
    # block-tridiagonal with tridiagonal blocks: C_j tridiagonal, D_j tridiagonal
    rng = np.random.default_rng(7)
    nb = 6
    pat = build_pattern("banded", nb, nb, 5, 5, band=1)
    blocks = []
    for _ in range(pat.p):
        b = np.zeros((5, 5))
        for d in (-1, 0, 1):
            b += np.diag(rng.standard_normal(5 - abs(d)), d)
        blocks.append(b)
    a = struct_assemble(pat, blocks)
    t = mat_to_tensor(a, pat)
    tk = tucker_partial(t, [None, 4, None])
    rep = kron_sum_from_tucker(tk, pat)
    grid_band = np.abs(np.subtract.outer(np.arange(nb), np.arange(nb))) <= 1
    blk_band = np.abs(np.subtract.outer(np.arange(5), np.arange(5))) <= 1
    for j in range(rep.n_terms):
        assert not np.any(c_term_dense(rep, j)[~grid_band])
        assert not np.any(rep.terms[j][~blk_band])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS))
def test_matvec_matches_dense(seed, kind):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, kind)
    a = struct_assemble(pat, random_blocks(rng, pat))
    t = mat_to_tensor(a, pat)
    tk = hosvd(t, random_ranks(rng, t.shape))
    x = rng.standard_normal(pat.shape[1])
    for rep in (kron_sum_from_tucker(tk, pat), blr_from_tucker(tk, pat)):
        dense = densify(rep)
        np.testing.assert_allclose(matvec(rep, x), dense @ x,
                                   atol=1e-12 * max(1.0, fro_norm(dense)))


def test_matvec_flop_count_linear_in_terms():
    rng = np.random.default_rng(8)
    pat = build_pattern("toeplitz", 6, 6, 8, 8)
    a = struct_assemble(pat, random_blocks(rng, pat))
    t = mat_to_tensor(a, pat)
    x = rng.standard_normal(pat.shape[1])
    flops = {}
    for r in (2, 4, 8):
        rep = kron_sum_from_tucker(tucker_partial(t, [None, r, None]), pat)
        cnt = FlopCounter()
        matvec(rep, x, cnt)
        flops[r] = cnt.flops
    assert flops[4] == 2 * flops[2]
    assert flops[8] == 2 * flops[4]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS + ("no_class",)),
       dense=st.booleans())
def test_dense_and_csr_class_grid_kernels_agree_with_densify(seed, kind, dense):
    # each kernel forced on every pattern kind, rectangular blocks and zero
    # classes included; a block-symmetric Toeplitz row meets a class twice
    rng = np.random.default_rng(seed)
    if kind == "no_class":
        ell, q, m, n = (int(v) for v in rng.integers(1, 5, size=4))
        pat = BlockPattern(ell, q, m, n, np.zeros((0, 2)), np.zeros(0))
    else:
        pat = random_pattern(rng, kind)
    r, rl, rr = (int(v) for v in rng.integers(1, 4, size=3))
    kron = KronSumRep(pattern=pat, coeffs=rng.standard_normal((pat.p, r)),
                      terms=rng.standard_normal((r, pat.m, pat.n)))
    blr = BlockLowRankRep(pattern=pat, left=rng.standard_normal((pat.m, rl)),
                          right=rng.standard_normal((pat.n, rr)),
                          middles=rng.standard_normal((pat.p, rl, rr)))
    for rep in (kron, blr):
        x = rng.standard_normal(pat.shape[1])
        with mock.patch.object(reconstruct, "_grid_is_filled", lambda pattern, extent: dense):
            got = rep.matvec(x)
        dense_rep = rep.densify()
        scale = float(np.linalg.norm(np.abs(dense_rep) @ np.abs(x)))
        assert np.linalg.norm(got - dense_rep @ x) <= 1e-13 * scale
    assert isinstance(kron._c_stack, np.ndarray) == dense
    assert ("_grid" in blr.__dict__) != dense


def test_filled_grids_pick_the_dense_kernel_and_banded_grids_csr():
    toeplitz = build_pattern("toeplitz", 48, 48, 48, 48)  # 95 classes over 2304 cells
    spacetime, _ = spacetime_build(np.arange(8.0).reshape(4, 2), np.arange(20.0))
    assert (spacetime.p, len(spacetime.klass)) == (20, 400)
    for pat in (toeplitz, spacetime):
        assert _grid_is_filled(pat, pat.q) and _grid_is_filled(pat, pat.p)
    for n in (12, 40, 60, 100):
        pat = build_pattern("banded", n, n, 2, 2, band=1)
        assert not _grid_is_filled(pat, pat.q) and not _grid_is_filled(pat, pat.p)


def test_matvec_validates_vector_length():
    rng, pat, a, t = _setup(9)
    rep = kron_sum_from_tucker(hosvd(t, t.shape), pat)
    with pytest.raises(ShapeError):
        matvec(rep, np.zeros(pat.shape[1] + 1))


def test_densify_guard():
    big = build_pattern("diagonal", 11000, 11000, 1, 1)
    rep = KronSumRep(pattern=big, coeffs=np.ones((big.p, 1)), terms=np.ones((1, 1, 1)))
    with pytest.raises(ShapeError):
        densify(rep)


def test_error_fro_zero_matrix_rejected():
    rng, pat, a, t = _setup(10)
    rep = kron_sum_from_tucker(hosvd(t, t.shape), pat)
    with pytest.raises(ShapeError):
        error_fro(np.zeros_like(a), rep)


def test_error_fro_rejections_keep_their_messages():
    rng, pat, a, t = _setup(10)
    rep = kron_sum_from_tucker(hosvd(t, t.shape), pat)
    with pytest.raises(ShapeError, match="relative error undefined for a zero matrix"):
        error_fro(np.zeros_like(a), rep)
    with pytest.raises(ShapeError, match=r"matrix shape \(.*\) != representation shape"):
        error_fro(a[:, 1:], rep)


def test_error_fro_ignores_memory_layout():
    rng, pat, a, t = _setup(11, kind="banded")
    a = a + 0.1 * rng.standard_normal(a.shape)  # nonconforming everywhere
    rep = blr_from_tucker(hosvd(t, random_ranks(rng, t.shape)), pat)
    want = error_fro(a, rep)
    host = np.zeros((a.shape[0] + 2, 2 * a.shape[1]))
    host[1:-1, ::2] = a
    assert error_fro(np.asfortranarray(a), rep) == want
    assert error_fro(host[1:-1, ::2], rep) == want


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
def test_error_fro_does_not_depend_on_the_matrix_scale(scale):
    # the squared sums overflow near 1e160 and underflow near 1e-170
    rng, pat, a, t = _setup(12)
    ranks = (max(1, pat.m - 1), max(1, pat.p - 1), pat.n)
    want = error_fro(a, kron_sum_from_tucker(hosvd(t, ranks), pat))
    assert want > 1e-3
    scaled = scale * a
    rep = kron_sum_from_tucker(hosvd(mat_to_tensor(scaled, pat), ranks), pat)
    assert error_fro(scaled, rep) == pytest.approx(want, rel=1e-12)


def _oracle_error(a, dense):
    return float(np.linalg.norm(a - dense) / np.linalg.norm(a))


@pytest.mark.parametrize("chunk", [1, 4 * 6, 2**15])  # 1 cell a chunk, 4 of 25, all at once
@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
def test_error_fro_is_exact_at_chunk_edges(chunk, scale, monkeypatch):
    monkeypatch.setattr("blockten.blocks._CHUNK", chunk)
    rng = np.random.default_rng(19)
    pat = build_pattern("toeplitz", 5, 5, 2, 3, band=2)  # 19 claimed cells, 6 unclaimed
    a = scale * struct_assemble(pat, random_blocks(rng, pat))
    rep = kron_sum_from_tucker(hosvd(mat_to_tensor(a, pat), (2, 4, 2)), pat)
    view = a.reshape(pat.ell, pat.m, pat.q, pat.n)
    view.transpose(0, 2, 1, 3)[pat.class_of < 0] = scale * rng.standard_normal((6, pat.m, pat.n))
    s = np.abs(a).max()  # the oracle's squares stay in range
    want = _oracle_error(a / s, densify(rep) / s)
    assert want > 1e-3
    for m in (a, sp.csr_matrix(a)):
        assert error_fro(m, rep) == pytest.approx(want, rel=1e-12)


def _form_of(form, pat, t, rng):
    """A compressed form of ``pat`` (square blocks for ``spsd``, and a square
    grid too for ``spd``) and the dense matrix an independent path assigns it."""
    if form in ("spsd", "spd"):
        r = int(rng.integers(1, pat.m + 1))
        basis = np.linalg.qr(rng.standard_normal((pat.m, r)))[0]
        rep = SpsdRep(pattern=pat, basis=basis, blocks=rng.standard_normal((pat.p, r, r)))
        dense = struct_assemble(pat, [basis @ b @ basis.T for b in rep.blocks])
        if form == "spsd":
            return rep, dense
        chol = np.tril(rng.standard_normal((pat.m, pat.m)), -1) + np.diag(
            rng.uniform(0.5, 2.0, pat.m))
        lift = np.kron(np.eye(pat.ell), chol)
        return (SpdRep(chol=chol, remainder=rep, ell=pat.ell),
                lift @ (np.eye(pat.shape[0]) + dense) @ lift.T)
    tk = hosvd(t, random_ranks(rng, t.shape))
    rep = kron_sum_from_tucker(tk, pat) if form == "kron" else blr_from_tucker(tk, pat)
    return rep, densify(rep)


def _square_blocks(pat, square_grid=False):
    """``pat`` with ``n = m`` and, with ``square_grid``, its cells cut to a
    square grid (classes left empty are dropped)."""
    q = pat.ell if square_grid else pat.q
    keep = pat.cells[:, 1] < q
    klass = np.unique(pat.klass[keep], return_inverse=True)[1]
    return BlockPattern(pat.ell, q, pat.m, pat.m, pat.cells[keep], klass, pat.structure_class)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS),
       form=st.sampled_from(("kron", "blr", "spsd", "spd")),
       variant=st.sampled_from(("conforming", "uncovered", "disagreeing")))
def test_error_fro_matches_dense_oracle(seed, kind, form, variant):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, kind)
    if form in ("spsd", "spd"):
        pat = _square_blocks(pat, square_grid=form == "spd")
        assume(pat.p > 0)  # a zero matrix has no relative error
    a = struct_assemble(pat, random_blocks(rng, pat))
    rep, dense = _form_of(form, pat, mat_to_tensor(a, pat), rng)
    view = a.reshape(pat.ell, pat.m, pat.q, pat.n)
    if variant == "uncovered":
        empty = pat.class_of < 0
        view.transpose(0, 2, 1, 3)[empty] = rng.standard_normal((empty.sum(), pat.m, pat.n))
    elif variant == "disagreeing":
        i, j = pat.placements[int(np.argmax(pat.counts))][-1]
        view[i, :, j, :] += rng.standard_normal((pat.m, pat.n))
    want = _oracle_error(a, dense)
    # 1e-13 relative; the absolute floor of ~50 roundoffs covers near-exact forms
    assert abs(error_fro(a, rep) - want) <= 1e-13 * want + 1e-14


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS),
       form=st.sampled_from(("kron", "blr")))
def test_error_fro_resolves_roundoff_level_errors(seed, kind, form):
    # a full-rank Tucker form is exact up to rounding: the residual must not
    # cancel to zero, and it must agree with the dense one to 1e-12 ||A||
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, kind)
    pat = BlockPattern(pat.ell, pat.q, 3, 4, pat.cells, pat.klass, pat.structure_class)
    a = struct_assemble(pat, random_blocks(rng, pat))
    t = mat_to_tensor(a, pat)
    tk = hosvd(t, t.shape)
    rep = kron_sum_from_tucker(tk, pat) if form == "kron" else blr_from_tucker(tk, pat)
    got = error_fro(a, rep)
    assert 0.0 < got < 1e-13
    assert abs(got - _oracle_error(a, densify(rep))) <= 1e-12


@pytest.mark.parametrize("form", ["spsd", "spd"])
def test_spsd_builds_its_blr_once(form, monkeypatch):
    rng = np.random.default_rng(18)
    pat = _square_blocks(build_pattern("toeplitz", 4, 4, 3, 3), square_grid=form == "spd")
    rep, dense = _form_of(form, pat, None, rng)
    calls = []
    as_blr = SpsdRep.as_blr
    monkeypatch.setattr(SpsdRep, "as_blr", lambda self: calls.append(1) or as_blr(self))
    for _ in range(3):
        x = rng.standard_normal(rep.shape[1])
        np.testing.assert_allclose(rep.matvec(x), dense @ x, rtol=1e-12, atol=1e-12)
    assert len(calls) == 1


def test_rep_shape_validation():
    pat = build_pattern("diagonal", 2, 2, 2, 2)
    with pytest.raises(ShapeError):
        KronSumRep(pattern=pat, coeffs=np.ones((3, 1)), terms=np.ones((1, 2, 2)))
    for terms in (np.ones((2, 2, 2)), np.ones((1, 2, 3))):  # a term too many; wrong extents
        with pytest.raises(ShapeError, match="terms shape"):
            KronSumRep(pattern=pat, coeffs=np.ones((2, 1)), terms=terms)
    with pytest.raises(ShapeError):
        BlockLowRankRep(pattern=pat, left=np.ones((2, 1)), right=np.ones((2, 1)),
                        middles=np.ones((1, 1, 1)))
    for left, right in ((np.ones((3, 1)), np.ones((2, 1))), (np.ones((2, 1)), np.ones((1, 1)))):
        with pytest.raises(ShapeError, match="side bases do not match"):
            BlockLowRankRep(pattern=pat, left=left, right=right, middles=np.ones((2, 1, 1)))
    # a Tucker form of another pattern's m x p x n tensor
    other = build_pattern("toeplitz", 2, 2, 2, 2)
    tk = hosvd(np.ones((2, other.p, 2)), (1, 1, 1))
    for convert in (kron_sum_from_tucker, blr_from_tucker):
        with pytest.raises(ShapeError, match=r"Tucker dims \(2, 3, 2\) do not match pattern"):
            convert(tk, pat)


# ---------------------------------------------------------------------------
# the representation protocol, every kind
# ---------------------------------------------------------------------------

REP_KINDS = ("kron", "blr", "spsd", "spd", "multilevel")


def _any_rep(form, rng):
    """A random representation of kind ``form`` on a small random pattern."""
    pat = random_pattern(rng, max_grid=4, max_block=3)
    if form in ("kron", "blr"):
        a = struct_assemble(pat, random_blocks(rng, pat))
        t = mat_to_tensor(a, pat)
        return _form_of(form, pat, t, rng)[0]
    if form in ("spsd", "spd"):
        return _form_of(form, _square_blocks(pat, square_grid=form == "spd"), None, rng)[0]
    # a chain of 1 to MAX_LEVELS levels, each outer block the next level's matrix
    levels = [pat] + [random_pattern(rng, max_grid=3, max_block=2)
                      for _ in range(int(rng.integers(MAX_LEVELS)))]
    for t in range(len(levels) - 2, -1, -1):
        lv = levels[t]
        levels[t] = BlockPattern(lv.ell, lv.q, *levels[t + 1].shape, lv.cells, lv.klass,
                                 lv.structure_class)
    mlp = MultilevelPattern(levels=tuple(levels))
    tk = hosvd(rng.standard_normal(mlp.dims), random_ranks(rng, mlp.dims))
    keep = rng.random(len(mlp.dims)) < 0.5  # some modes stay uncompressed (identity)
    return MultilevelTuckerRep(pattern=mlp, tucker=tucker_partial(
        tk.reconstruct(), [r if k else None for r, k in zip(tk.ranks, keep)]))


@pytest.mark.parametrize("form", REP_KINDS)
def test_matvec_reads_no_per_class_placements(form, monkeypatch):
    rng = np.random.default_rng(17)
    rep = _any_rep(form, rng)
    dense = rep.densify()

    def no_placements(_):
        raise AssertionError("matvec walked the per-class placements")

    monkeypatch.setattr(BlockPattern, "placements", property(no_placements))
    x = rng.standard_normal(rep.shape[1])
    np.testing.assert_allclose(rep.matvec(x), dense @ x, rtol=1e-12, atol=1e-12)


def test_blr_matvec_flop_count_is_pinned():
    rng = np.random.default_rng(8)
    pat = build_pattern("toeplitz", 6, 6, 8, 8)  # 11 classes over 36 cells
    t = mat_to_tensor(struct_assemble(pat, random_blocks(rng, pat)), pat)
    rep = blr_from_tucker(hosvd(t, (3, pat.p, 5)), pat)
    counter = FlopCounter()
    rep.matvec(rng.standard_normal(pat.shape[1]), counter)
    # 2 n r_right q + 2 r_left r_right sum(eta) + 2 m r_left ell
    assert counter.flops == 2 * 8 * 5 * 6 + 2 * 3 * 5 * 36 + 2 * 8 * 3 * 6 == 1848


OPTIONAL_MEMBERS = {"kron": {"n_terms"}, "blr": set(), "spsd": {"rank", "distinct_scalars", "trace"},
                    "spd": {"rank", "distinct_scalars"}, "multilevel": set()}


@pytest.mark.parametrize("form", REP_KINDS)
def test_optional_members_exist_only_on_the_kinds_that_compute_them(form, tmp_path, capsys):
    rep = _any_rep(form, np.random.default_rng(REP_KINDS.index(form)))
    have = {m for m in ("n_terms", "rank", "distinct_scalars", "trace") if hasattr(rep, m)}
    assert have == OPTIONAL_MEMBERS[form]
    container_write(tmp_path / "rep.btc", rep)
    assert main(["report", str(tmp_path / "rep.btc")]) == 0
    keys = {line.partition(": ")[0] for line in capsys.readouterr().out.splitlines()}
    assert ("terms" in keys) == (form == "kron")
    assert ("rank" in keys) == (form in ("spsd", "spd"))


def test_every_container_kind_is_drawn_by_the_protocol_test():
    # a form the container can write cannot skip test_every_kind_answers_the_protocol
    drawn = {type(_any_rep(form, np.random.default_rng(0))) for form in REP_KINDS}
    assert set(container._KINDS) <= drawn


def test_every_form_holds_shape_and_densify_in_its_own_dict():
    # perfbench/tracing.py patches members it reads from cls.__dict__
    for cls in container._KINDS:
        assert cls.__dict__["densify"] is densify, cls.__name__
        assert isinstance(cls.__dict__["shape"], property), cls.__name__
    assert SpdRep.shape.fget.__qualname__ == "SpdRep.shape"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), form=st.sampled_from(REP_KINDS))
def test_every_kind_answers_the_protocol(seed, form):
    rng = np.random.default_rng(seed)
    rep = _any_rep(form, rng)
    dense = rep.densify()
    assert dense.shape == rep.shape
    scale = max(float(np.linalg.norm(dense)), 1e-300)
    # the generic assembly of cell_blocks() is the kind's own densify
    pat, blocks = rep.cell_blocks()
    assert pat.shape == rep.shape and blocks.shape == (pat.p, pat.m, pat.n)
    assert np.linalg.norm(densify(rep) - dense) <= 1e-13 * scale
    x = rng.standard_normal(rep.shape[1])
    counter = FlopCounter()
    y = rep.matvec(x, counter)
    assert np.linalg.norm(y - dense @ x) <= 1e-13 * scale * np.linalg.norm(x)
    assert counter.flops > 0 and rep.stored_scalars() > 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rep.btc"
        container_write(path, rep)
        back = container_read(path)
        assert type(back) is type(rep) and back.shape == rep.shape
        # every stored array and header line comes back bit for bit, and so
        # does the product
        container_write(path.with_suffix(".again"), back)
        assert path.with_suffix(".again").read_bytes() == path.read_bytes()
        assert np.array_equal(back.matvec(x), y)


# ---------------------------------------------------------------------------
# the certificate from verified blocks
# ---------------------------------------------------------------------------


def _class_by_class_error_fro(pattern, blocks, approx):
    """The certificate of a form whose ``cell_blocks()`` are ``(pattern, approx)``, summed
    class by class: the pair sums of a form that keeps its source pattern must match it bit
    for bit."""
    def squares(e):
        base = resid = 0.0
        for eta, b, b_hat in zip(pattern.counts, blocks, approx):
            if e:
                b, b_hat = np.ldexp(b, -e), np.ldexp(b_hat, -e)
            d = b - b_hat
            base, resid = base + eta * np.vdot(b, b), resid + eta * np.vdot(d, d)
        return base, resid

    return reconstruct._relative(squares, lambda: max(map(scale_exponent, blocks)))


def _random_source(rng, grid):
    """A random pattern on ``grid``'s block grid: a random nonempty subset of its cells in
    random classes."""
    claimed = rng.random((grid.ell, grid.q)) < 0.7
    claimed.flat[rng.integers(claimed.size)] = True
    cells = np.argwhere(claimed)
    klass = np.unique(rng.integers(0, len(cells) // 2 + 1, len(cells)), return_inverse=True)[1]
    return BlockPattern(grid.ell, grid.q, grid.m, grid.n, cells, klass)


def _assert_certifies(pattern, blocks, rep):
    got = class_error_fro(pattern, blocks, rep)
    assert got == pytest.approx(error_fro(struct_assemble(pattern, blocks), rep), rel=1e-12)
    return got


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), form=st.sampled_from(REP_KINDS))
def test_class_error_fro_is_error_fro_of_the_assembled_blocks(seed, form):
    rng = np.random.default_rng(seed)
    rep = _any_rep(form, rng)
    grid, approx = rep.cell_blocks()
    # a source on the form's own pattern: pairs (k, k), summed as class by class
    blocks = approx + 0.1 * rng.standard_normal(approx.shape)
    blocks[rng.random(grid.p) < 0.2] = 0.0  # zero blocks pair too
    assume(np.any(blocks))
    got = _assert_certifies(grid, blocks, rep)
    assert got == _class_by_class_error_fro(grid, blocks, approx)
    # a source whose classes the form's split, merge and miss
    sources = [_random_source(rng, grid)]
    if form == "spd":  # the remainder pattern, which the form's cells refine
        sources.append(rep.remainder.pattern)
    for src in sources:
        if src.p:
            _assert_certifies(src, random_blocks(rng, src), rep)


def _spd_case(case, m=3):
    """``(pattern, blocks)`` of an SPD-anchored source whose form splits it."""
    rng = np.random.default_rng(["merged", "dropped", "unclaimed"].index(case))
    g = rng.standard_normal((m, m))
    t0, t1 = g @ g.T + m * np.eye(m), 0.3 * rng.standard_normal((m, m))
    if case == "merged":  # one class on the diagonal and off it: kron(ones((2, 2)), B)
        return detect_pattern(np.kron(np.ones((2, 2)), t0), m, m)
    if case == "dropped":  # the lag-2 classes hold zero blocks, which the remainder drops
        pat = build_pattern("toeplitz", 3, 3, m, m)
        blocks = np.zeros((pat.p, m, m))
        for (i, j), blk in {(0, 0): t0, (0, 1): t1, (1, 0): t1.T}.items():
            blocks[pat.class_of[i, j]] = blk
        return pat, blocks
    # diagonal cell (3, 3) belongs to no class; the form puts the anchor there
    cells = [(0, 0), (1, 1), (0, 1), (1, 2), (1, 0), (2, 1)]
    pat = BlockPattern(3, 3, m, m, np.array(cells), np.array([0, 0, 1, 1, 2, 2]))
    return pat, np.stack([t0, t1, t1.T])


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
@pytest.mark.parametrize("case", ["merged", "dropped", "unclaimed"])
def test_class_error_fro_certifies_spd_forms_that_split_the_source(case, scale):
    pattern, blocks = _spd_case(case)
    blocks = np.asarray(blocks) * scale
    rep = spd_compress_blocks(pattern, blocks, 1)
    assert rep.cell_blocks()[0] != pattern
    got = class_error_fro(pattern, blocks, rep)
    assert got > 0.0
    assert got == pytest.approx(error_fro(struct_assemble(pattern, blocks), rep), rel=1e-12)


def test_class_error_fro_refuses_another_grid_and_a_zero_source():
    rep = _any_rep("kron", np.random.default_rng(3))
    grid, approx = rep.cell_blocks()
    other = BlockPattern(grid.ell + 1, grid.q, grid.m, grid.n, grid.cells, grid.klass)
    with pytest.raises(ShapeError, match="block grid differs"):
        class_error_fro(other, approx, rep)
    with pytest.raises(ShapeError, match="zero matrix"):
        class_error_fro(grid, np.zeros_like(approx), rep)
