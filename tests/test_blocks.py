"""Block patterns: construction, detection, assembly, and the tensor maps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockten.blocks import (
    BlockPattern,
    build_pattern,
    detect_pattern,
    extract_blocks,
    mat_to_tensor,
    struct_assemble,
    struct_expand,
    struct_scalars,
    tensor_to_mat,
)
from blockten.errors import PatternMismatchError, ShapeError
from blockten.tensor import fro_norm

from helpers import PATTERN_KINDS, placement_matrix, random_blocks, random_pattern


# ---------------------------------------------------------------------------
# constructors and invariants
# ---------------------------------------------------------------------------


def test_toeplitz_pattern_small_example():
    pat = build_pattern("toeplitz", 2, 2, 3, 3)
    assert pat.p == 3
    assert pat.counts == (2, 1, 1)
    np.testing.assert_allclose(placement_matrix(pat, 0), np.eye(2) / np.sqrt(2))
    np.testing.assert_array_equal(placement_matrix(pat, 1), [[0, 0], [1, 0]])
    np.testing.assert_array_equal(placement_matrix(pat, 2), [[0, 1], [0, 0]])


def test_toeplitz_class_counts():
    pat = build_pattern("toeplitz", 5, 5, 2, 2)
    assert pat.p == 9
    assert pat.counts == (5, 4, 3, 2, 1, 4, 3, 2, 1)
    sym = build_pattern("toeplitz", 5, 5, 2, 2, block_symmetric=True)
    assert sym.p == 5
    assert sym.counts == (5, 8, 6, 4, 2)


def test_banded_pattern_class_counts():
    tri = build_pattern("banded", 4, 4, 2, 2, band=1)
    assert tri.p == 3 * 4 - 2  # every in-band cell its own class
    assert all(c == 1 for c in tri.counts)
    sym = build_pattern("banded", 4, 4, 2, 2, band=1, block_symmetric=True)
    assert sym.p == 2 * 4 - 1
    assert sorted(sym.counts) == [1, 1, 1, 1, 2, 2, 2]


def test_hankel_pattern_counts():
    pat = build_pattern("hankel", 5, 5, 2, 3)
    assert pat.p == 9
    assert pat.counts == tuple(min(k, 10 - k) for k in range(1, 10))
    # anti-diagonal k holds cells with i + j = k - 1 (0-based)
    for k, cells in enumerate(pat.placements):
        assert all(i + j == k for i, j in cells)


def test_diagonal_pattern():
    pat = build_pattern("diagonal", 3, 3, 2, 2)
    assert pat.p == 3 and pat.counts == (1, 1, 1)


def test_placement_matrices_unit_norm_disjoint():
    for kind in ("toeplitz", "hankel", "banded"):
        pat = build_pattern(kind, 4, 4, 2, 2, band=2 if kind == "banded" else None)
        union = np.zeros((4, 4))
        for k in range(pat.p):
            e = placement_matrix(pat, k)
            assert np.isclose(np.linalg.norm(e), 1.0, rtol=1e-15)
            assert not np.any(union * e)  # disjoint supports
            union += np.abs(e)


def test_kron_terms_trace_orthogonal():
    pat = build_pattern("toeplitz", 3, 3, 2, 2)
    rng = np.random.default_rng(0)
    k_mat, l_mat = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    for i in range(pat.p):
        for j in range(i + 1, pat.p):
            a = np.kron(placement_matrix(pat, i), k_mat)
            b = np.kron(placement_matrix(pat, j), l_mat)
            assert abs(np.trace(a.T @ b)) < 1e-14


def test_pattern_validation():
    with pytest.raises(ShapeError):
        BlockPattern(ell=2, q=2, m=1, n=1,
                     placements=(np.array([[0, 0]]), np.array([[0, 0]])))  # overlap
    with pytest.raises(ShapeError):
        BlockPattern(ell=2, q=2, m=1, n=1, placements=(np.array([[2, 0]]),))  # out of range
    with pytest.raises(ShapeError):
        build_pattern("toeplitz", 3, 4, 2, 2)  # non-square grid
    with pytest.raises(ShapeError):
        build_pattern("banded", 4, 4, 2, 2)  # band required
    with pytest.raises(ValueError):
        build_pattern("circulant", 4, 4, 2, 2)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def test_detect_identity_blocks():
    pat, blocks = detect_pattern(np.eye(4), 2, 2)
    assert pat.p == 1
    assert pat.counts == (2,)
    assert pat.structure_class == "diagonal"
    np.testing.assert_array_equal(blocks[0], np.eye(2))


def test_detect_assemble_roundtrip():
    rng = np.random.default_rng(1)
    for kind in ("toeplitz", "hankel", "banded_symmetric", "general"):
        pat = random_pattern(rng, kind)
        blocks = random_blocks(rng, pat)
        a = struct_assemble(pat, blocks)
        pat2, blocks2 = detect_pattern(a, pat.m, pat.n)
        assert np.array_equal(struct_assemble(pat2, blocks2), a)


def test_detect_classifies_named_structures():
    rng = np.random.default_rng(2)
    mk = lambda: rng.standard_normal((2, 2))
    toe = build_pattern("toeplitz", 4, 4, 2, 2)
    a = struct_assemble(toe, [mk() for _ in range(toe.p)])
    assert detect_pattern(a, 2, 2)[0].structure_class == "toeplitz"
    han = build_pattern("hankel", 4, 4, 2, 2)
    a = struct_assemble(han, [mk() for _ in range(han.p)])
    assert detect_pattern(a, 2, 2)[0].structure_class == "hankel"
    tri = build_pattern("banded", 4, 4, 2, 2, band=1)
    a = struct_assemble(tri, [mk() for _ in range(tri.p)])
    assert detect_pattern(a, 2, 2)[0].structure_class.startswith("banded")


def test_detect_groups_with_tolerance():
    base = np.full((2, 2), 1.0)
    a = np.block([[base, base + 1e-9], [np.zeros((2, 2)), base]])
    exact = detect_pattern(a, 2, 2)[0]
    assert exact.p == 2
    loose = detect_pattern(a, 2, 2, tol=1e-6)[0]
    assert loose.p == 1
    assert loose.counts == (3,)


def test_detect_rejects_zero_and_indivisible():
    with pytest.raises(PatternMismatchError):
        detect_pattern(np.zeros((4, 4)), 2, 2)
    with pytest.raises(ShapeError):
        detect_pattern(np.zeros((5, 4)), 2, 2)


# ---------------------------------------------------------------------------
# assembly and tensor maps
# ---------------------------------------------------------------------------


def test_struct_assemble_places_blocks_verbatim():
    pat = build_pattern("toeplitz", 3, 3, 1, 1)
    a = struct_assemble(pat, [np.array([[v]]) for v in (5.0, 2.0, 3.0, 7.0, 9.0)])
    np.testing.assert_array_equal(a, [[5, 7, 9], [2, 5, 7], [3, 2, 5]])


def test_struct_scalars_matches_weighted_sum_of_placements():
    pat = build_pattern("toeplitz", 3, 3, 1, 1)
    coeffs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    want = sum(c * placement_matrix(pat, k) for k, c in enumerate(coeffs))
    np.testing.assert_allclose(struct_scalars(pat, coeffs), want, atol=1e-15)


def test_struct_expand_divides_by_sqrt_eta():
    pat = BlockPattern(ell=2, q=2, m=1, n=1, placements=(np.array([[0, 0], [1, 1]]),))
    out = struct_expand(pat, [np.array([[4.0]])])
    np.testing.assert_allclose(out, np.eye(2) * 4.0 / np.sqrt(2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS))
def test_tensor_map_isometry_and_roundtrip(seed, kind):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, kind)
    a = struct_assemble(pat, random_blocks(rng, pat))
    t = mat_to_tensor(a, pat)
    assert t.shape == (pat.m, pat.p, pat.n)
    assert np.isclose(fro_norm(t), fro_norm(a), rtol=1e-13)
    np.testing.assert_allclose(tensor_to_mat(t, pat), a, atol=1e-13)


def test_mat_to_tensor_slices_are_weighted_blocks():
    rng = np.random.default_rng(3)
    pat = build_pattern("hankel", 3, 3, 2, 2)
    blocks = random_blocks(rng, pat)
    t = mat_to_tensor(struct_assemble(pat, blocks), pat)
    for k, blk in enumerate(blocks):
        np.testing.assert_allclose(t[:, k, :], np.sqrt(pat.counts[k]) * blk, atol=1e-15)


def test_mat_to_tensor_rejects_nonconforming_matrix():
    rng = np.random.default_rng(4)
    pat = build_pattern("toeplitz", 3, 3, 2, 2)
    a = struct_assemble(pat, random_blocks(rng, pat))
    bad = a.copy()
    bad[-1, -1] += 1.0  # breaks the class equality on the main diagonal
    with pytest.raises(PatternMismatchError):
        mat_to_tensor(bad, pat)
    # a nonzero entry outside every class
    diag = build_pattern("diagonal", 2, 2, 2, 2)
    b = struct_assemble(diag, random_blocks(rng, diag))
    b[0, -1] = 1.0
    with pytest.raises(PatternMismatchError):
        extract_blocks(b, diag)


def test_tensor_to_mat_shape_validation():
    pat = build_pattern("diagonal", 2, 2, 2, 2)
    with pytest.raises(ShapeError):
        tensor_to_mat(np.zeros((2, 3, 2)), pat)
    with pytest.raises(ShapeError):
        tensor_to_mat(np.zeros((2, 2)), pat)


def test_zero_class_pattern_maps_to_zero_matrix():
    pat = BlockPattern(2, 2, 2, 2, placements=())
    np.testing.assert_array_equal(tensor_to_mat(np.zeros((2, 0, 2)), pat), np.zeros((4, 4)))
    np.testing.assert_array_equal(struct_scalars(pat, np.zeros(0)), np.zeros((2, 2)))


def test_struct_assemble_block_count_validation():
    pat = build_pattern("diagonal", 2, 2, 2, 2)
    with pytest.raises(ShapeError):
        struct_assemble(pat, [np.zeros((2, 2))])
    with pytest.raises(ShapeError):
        struct_assemble(pat, [np.zeros((2, 2)), np.zeros((3, 2))])
