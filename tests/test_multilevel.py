"""Nested block structure, order-(L+2) tensors, and blur operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockten import build_pattern, error_fro, hosvd, mat_to_tensor, struct_assemble
from blockten import blocks as block_maps
from blockten.blocks import BlockPattern, _class_grid, struct_expand
from blockten.decomp import TuckerRep
from blockten.errors import PatternMismatchError, ShapeError
from blockten.multilevel import (
    MAX_LEVELS,
    MultilevelPattern,
    MultilevelTuckerRep,
    blur_operator_dense,
    ml_mat_to_tensor,
    _level_stack,
    ml_tensor_to_mat,
    psf_weighted_tensor,
)

from helpers import PATTERN_KINDS, random_pattern


def _nested_two_level(rng):
    inner = build_pattern("banded", 3, 3, 2, 2, band=1)
    outer = build_pattern("toeplitz", 2, 2, inner.shape[0], inner.shape[1])
    mlp = MultilevelPattern(levels=(outer, inner))
    inner_blocks = rng.standard_normal((outer.p, inner.p, 2, 2))
    subs = [struct_assemble(inner, inner_blocks[k]) for k in range(outer.p)]
    a = struct_assemble(outer, np.stack(subs))
    return a, mlp


def test_single_level_matches_order_three_map():
    rng = np.random.default_rng(3)
    pat = build_pattern("toeplitz", 3, 3, 2, 4)
    a = struct_assemble(pat, rng.standard_normal((pat.p, 2, 4)))
    mlp = MultilevelPattern(levels=(pat,))
    t = ml_mat_to_tensor(a, mlp)
    np.testing.assert_array_equal(t, mat_to_tensor(a, pat))
    np.testing.assert_allclose(ml_tensor_to_mat(t, mlp), a, atol=1e-14)


def test_two_level_roundtrip_and_isometry():
    rng = np.random.default_rng(4)
    a, mlp = _nested_two_level(rng)
    t = ml_mat_to_tensor(a, mlp)
    assert t.shape == mlp.dims
    np.testing.assert_allclose(ml_tensor_to_mat(t, mlp), a, atol=1e-13)
    assert np.isclose(np.linalg.norm(t), np.linalg.norm(a), rtol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2))
def test_random_nested_roundtrip_preserves_norm(seed, depth):
    rng = np.random.default_rng(seed)
    inner = random_pattern(rng, max_grid=3, max_block=3)
    levels = [inner]
    if depth == 2:
        outer = random_pattern(rng, max_grid=3, max_block=1)
        outer = build_pattern(
            "toeplitz", outer.ell, outer.ell, inner.shape[0], inner.shape[1]
        )
        levels = [outer, inner]
    mlp = MultilevelPattern(levels=tuple(levels))
    t = rng.standard_normal(mlp.dims)
    a = ml_tensor_to_mat(t, mlp)
    back = ml_mat_to_tensor(a, mlp)
    np.testing.assert_allclose(back, t, atol=1e-12)
    assert np.isclose(np.linalg.norm(a), np.linalg.norm(t), rtol=1e-12)


def _assembled_by_recursion(t, mlp):
    """``struct_expand`` at every level, innermost slices first: the
    reference assembly of the weighted tensor."""

    def assemble(level, prefix):
        if level == len(mlp.levels):
            return t[(slice(None), *prefix, slice(None))]
        pat = mlp.levels[level]
        return struct_expand(pat, [assemble(level + 1, prefix + (k,)) for k in range(pat.p)])

    return assemble(0, ())


def _random_chain(rng, depth):
    """``depth`` random levels, each outer block extent the next level's shape."""
    levels = [random_pattern(rng, max_grid=3, max_block=2) for _ in range(depth)]
    for t in range(depth - 2, -1, -1):
        lv = levels[t]
        levels[t] = BlockPattern(lv.ell, lv.q, *levels[t + 1].shape, lv.cells, lv.klass,
                                 lv.structure_class)
    return MultilevelPattern(levels=tuple(levels))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, MAX_LEVELS))
def test_tensor_to_mat_is_the_level_recursion_bit_for_bit(seed, depth):
    rng = np.random.default_rng(seed)
    mlp = _random_chain(rng, depth)
    t = rng.standard_normal(mlp.dims)
    assert np.array_equal(ml_tensor_to_mat(t, mlp), _assembled_by_recursion(t, mlp))


def test_tensor_to_mat_refuses_what_densify_refuses(monkeypatch):
    mlp = _random_chain(np.random.default_rng(11), 2)
    t = np.ones(mlp.dims)
    with pytest.raises(ShapeError, match="tucker dims"):
        ml_tensor_to_mat(t[..., None], mlp)
    monkeypatch.setattr(block_maps, "DENSIFY_LIMIT", mlp.shape[0] * mlp.shape[1] - 1)
    with pytest.raises(ShapeError, match="dense result would hold"):
        ml_tensor_to_mat(t, mlp)


@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_level_stack_is_the_column_keyed_class_grid_densified(kind):
    rng = np.random.default_rng(PATTERN_KINDS.index(kind))
    for _ in range(5):
        pat = random_pattern(rng, kind)
        for factor in (rng.standard_normal((pat.p, int(rng.integers(1, 4)))), None):
            stack = _level_stack(pat, factor)
            grid = _class_grid(pat, np.eye(pat.p) if factor is None else factor, key="col")
            np.testing.assert_array_equal(stack, grid.toarray().reshape(stack.shape))
            assert stack.shape[:2] == (pat.ell, pat.q)


def test_mismatched_levels_rejected():
    inner = build_pattern("banded", 3, 3, 2, 2, band=1)
    outer = build_pattern("toeplitz", 2, 2, 5, 5)  # 5 != inner assembled 6
    with pytest.raises(ShapeError):
        MultilevelPattern(levels=(outer, inner))
    for levels in ((), (inner,) * (MAX_LEVELS + 1)):
        with pytest.raises(ShapeError, match=f"between 1 and {MAX_LEVELS} levels"):
            MultilevelPattern(levels=levels)


def test_nonconforming_matrix_rejected():
    rng = np.random.default_rng(5)
    a, mlp = _nested_two_level(rng)
    bad = a.copy()
    bad[0, -1] += 1.0  # breaks an uncovered-zero or repeat cell
    with pytest.raises(PatternMismatchError):
        ml_mat_to_tensor(bad, mlp)


def test_full_rank_tucker_terms_reproduce_matrix():
    rng = np.random.default_rng(6)
    a, mlp = _nested_two_level(rng)
    t = ml_mat_to_tensor(a, mlp)
    rep = MultilevelTuckerRep(pattern=mlp, tucker=hosvd(t, list(t.shape)))
    np.testing.assert_allclose(rep.densify(), a, atol=1e-12)
    x = rng.standard_normal(a.shape[1])
    np.testing.assert_allclose(rep.matvec(x), a @ x, atol=1e-12)


def test_truncation_error_transfers_exactly_to_matrix():
    rng = np.random.default_rng(7)
    a, mlp = _nested_two_level(rng)
    t = ml_mat_to_tensor(a, mlp)
    tk = hosvd(t, [min(2, s) for s in t.shape])
    rep = MultilevelTuckerRep(pattern=mlp, tucker=tk)
    ten_err = np.linalg.norm(tk.reconstruct() - t)
    assert np.isclose(np.linalg.norm(rep.densify() - a), ten_err, rtol=1e-10)
    assert np.isclose(error_fro(a, rep) * np.linalg.norm(a), ten_err, rtol=1e-10)


def test_delta_kernel_tensor_entry():
    # the centered delta kernel concentrates all mass in one tensor entry
    # whose weight is the cube of the center multiplicity
    psf = np.zeros((3, 3, 3))
    psf[1, 1, 1] = 3.0
    x, mlp = psf_weighted_tensor(psf)
    assert x.shape == (1, 3, 3, 3, 1)
    nz = np.argwhere(x != 0)
    assert nz.tolist() == [[0, 1, 1, 1, 0]]
    assert np.isclose(x[0, 1, 1, 1, 0], 3.0 * np.sqrt(27.0))
    np.testing.assert_allclose(blur_operator_dense(psf), 3.0 * np.eye(27), atol=0)


def test_psf_tensor_assembles_to_dense_blur_operator():
    rng = np.random.default_rng(8)
    for k in (3, 5):
        psf = rng.standard_normal((k, k, k))
        x, mlp = psf_weighted_tensor(psf)
        np.testing.assert_allclose(
            ml_tensor_to_mat(x, mlp), blur_operator_dense(psf), atol=1e-13
        )
        assert np.isclose(np.linalg.norm(x),
                          np.linalg.norm(blur_operator_dense(psf)), rtol=1e-12)


def test_separable_psf_compresses_to_single_term():
    rng = np.random.default_rng(9)
    u, v, w = (rng.standard_normal(5) for _ in range(3))
    psf = np.einsum("a,b,c->abc", u, v, w)
    x, mlp = psf_weighted_tensor(psf)
    rep = MultilevelTuckerRep(pattern=mlp, tucker=hosvd(x, [1, 1, 1, 1, 1]))
    assert np.prod(rep.tucker.ranks[1:-1]) == 1  # one Kronecker term
    dense = blur_operator_dense(psf)
    np.testing.assert_allclose(rep.densify(), dense, atol=1e-12)
    v = rng.standard_normal(dense.shape[1])
    np.testing.assert_allclose(rep.matvec(v), dense @ v, atol=1e-12)


def test_psf_validation():
    with pytest.raises(ShapeError):
        psf_weighted_tensor(np.zeros((2, 2, 2)))  # even extent
    with pytest.raises(ShapeError):
        psf_weighted_tensor(np.zeros((3, 3)))  # not a cube
    with pytest.raises(ShapeError):
        blur_operator_dense(np.zeros((9, 9, 9)))  # above dense cap


def test_tucker_order_must_match_pattern_depth():
    rng = np.random.default_rng(11)
    a, mlp = _nested_two_level(rng)
    t3 = rng.standard_normal((2, 5, 2))
    with pytest.raises(ShapeError, match="tucker dims"):
        MultilevelTuckerRep(pattern=mlp, tucker=hosvd(t3, [2, 5, 2]))
    # right order, one extent off
    core = rng.standard_normal(tuple(d + (k == 1) for k, d in enumerate(mlp.dims)))
    with pytest.raises(ShapeError, match="tucker dims"):
        MultilevelTuckerRep(pattern=mlp, tucker=TuckerRep(core=core, factors=(None,) * 4))
