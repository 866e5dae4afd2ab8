"""Block patterns: construction, detection, assembly, and the tensor maps."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from blockten import blocks as block_maps
from blockten.blocks import (
    BlockPattern,
    blocks_to_rows,
    blocks_to_tensor,
    build_pattern,
    detect_pattern,
    extract_blocks,
    extract_rows,
    mat_to_tensor,
    struct_assemble,
    struct_expand,
    tensor_to_mat,
)
from blockten.decomp import tucker_partial
from blockten.errors import PatternMismatchError, ShapeError
from blockten.psd import spsd_compress
from blockten.reconstruct import error_fro, kron_sum_from_tucker
from blockten.tensor import fro_norm, unfold

from helpers import (PATTERN_KINDS, classify_placements, placement_matrix, random_blocks,
                     random_pattern, struct_scalars)


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


def _mutated(rng, pat):
    """``pat`` with some classes merged and some cells dropped: near-misses of
    every structure class."""
    keep = rng.random(len(pat.cells)) < rng.choice([0.9, 1.0])
    merge = rng.integers(0, max(1, pat.p // rng.choice([1, 2, 3])), size=pat.p)
    if not keep.any():
        return pat
    klass = np.unique(merge[pat.klass[keep]], return_inverse=True)[1]
    return BlockPattern(pat.ell, pat.q, pat.m, pat.n, pat.cells[keep], klass)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS + ("toeplitz_cutoff",)))
def test_classifier_matches_the_class_by_class_oracle(seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "toeplitz_cutoff":
        ell = int(rng.integers(2, 7))
        pat = build_pattern("toeplitz", ell, ell, 1, 2, band=int(rng.integers(0, ell)),
                            block_symmetric=bool(rng.integers(2)))
    else:
        pat = random_pattern(rng, kind)
    detected, _ = detect_pattern(struct_assemble(pat, random_blocks(rng, pat)), pat.m, pat.n)
    for p in (pat, detected, _mutated(rng, pat)):
        assert (block_maps._classify(p.cells, p.klass, p.ell, p.q)
                == classify_placements(p.placements, p.ell, p.q)), p


@pytest.mark.parametrize("cells, klass, tag", [
    ([[1, 0], [2, 1], [0, 0], [0, 1]], [0, 0, 0, 0], "banded:1"),  # offsets -1, 0, 1
    ([[1, 0], [2, 1], [0, 1], [1, 2]], [0, 0, 0, 0], "toeplitz"),  # offsets -1, 1
    ([[1, 0], [0, 1], [1, 2]], [0, 0, 0], "banded:1"),  # a pair missing a cell
    ([[0, 2], [1, 1], [2, 0], [0, 0]], [0, 0, 0, 1], "hankel"),
    ([[0, 2], [1, 1], [0, 0]], [0, 0, 1], "general"),  # an anti-diagonal missing a cell
])
def test_classifier_edge_cases(cells, klass, tag):
    pat = BlockPattern(3, 3, 1, 1, np.array(cells), np.array(klass))
    assert block_maps._classify(pat.cells, pat.klass, 3, 3) == tag
    assert classify_placements(pat.placements, 3, 3) == tag


def test_pattern_table_is_sorted_by_class_and_read_only():
    # cells given out of class order keep their order inside each class
    pat = BlockPattern(2, 3, 1, 1, np.array([[1, 1], [0, 2], [0, 0]]), np.array([1, 0, 0]))
    np.testing.assert_array_equal(pat.cells, [[0, 2], [0, 0], [1, 1]])
    np.testing.assert_array_equal(pat.klass, [0, 0, 1])
    np.testing.assert_array_equal(pat.class_of, [[0, -1, 0], [-1, 1, -1]])
    assert pat.counts == (2, 1) and pat.placements[1].tolist() == [[1, 1]]
    assert pat.placements is pat.placements  # derived once
    for arr in (pat.cells, pat.klass, pat.class_of, *pat.placements):
        assert not arr.flags.writeable
    # equal tables, however the cells came in, make equal patterns with equal hashes
    same = BlockPattern(2, 3, 1, 1, np.array([[0, 2], [0, 0], [1, 1]]), np.array([0, 0, 1]))
    assert same == pat and hash(same) == hash(pat) and len({pat, same}) == 1
    assert pat != "a pattern" and pat.__eq__(pat.cells) is NotImplemented


def test_pattern_validation():
    for extents in ((0, 2, 1, 1), (2, 2, 0, 1)):
        with pytest.raises(ShapeError, match="extents must be positive"):
            BlockPattern(*extents, np.zeros((0, 2), dtype=int), np.zeros(0, dtype=int))
    with pytest.raises(ShapeError):
        BlockPattern(2, 2, 1, 1, np.array([[0, 0], [0, 0]]), np.array([0, 1]))  # overlap
    with pytest.raises(ShapeError):
        BlockPattern(2, 2, 1, 1, np.array([[2, 0]]), np.array([0]))  # out of range
    with pytest.raises(ShapeError, match="class 2: placements must be a nonempty"):
        BlockPattern(2, 2, 1, 1, np.array([[0, 0], [1, 1]]), np.array([0, 2]))  # class 2 empty
    with pytest.raises(ShapeError, match="class 1: placement outside"):  # the lowest class
        BlockPattern(2, 2, 1, 1, np.array([[0, 5], [1, 1]]), np.array([0, 2]))
    with pytest.raises(ShapeError):
        BlockPattern(2, 2, 1, 1, np.array([[0, 0]]), np.array([-1]))  # classes start at 0
    with pytest.raises(ShapeError):
        BlockPattern(2, 2, 1, 1, np.array([0, 0]), np.array([0]))  # not an (N, 2) table
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
    with pytest.raises(ShapeError, match="expects a matrix"):
        detect_pattern(np.zeros((4, 4, 1)), 2, 2)


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
    pat = BlockPattern(2, 2, 1, 1, np.array([[0, 0], [1, 1]]), np.array([0, 0]))
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
    empty = BlockPattern(3, 3, 2, 2, np.zeros((0, 2), dtype=int), np.zeros(0, dtype=int))
    assert block_maps.blocks_to_tensor(empty, np.zeros((0, 2, 2))).shape == (2, 0, 2)
    with pytest.raises(ShapeError):
        block_maps.blocks_to_tensor(pat, blocks[:-1])


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
    pat = BlockPattern(2, 2, 2, 2, np.zeros((0, 2)), np.zeros(0))
    np.testing.assert_array_equal(tensor_to_mat(np.zeros((2, 0, 2)), pat), np.zeros((4, 4)))
    np.testing.assert_array_equal(struct_scalars(pat, np.zeros(0)), np.zeros((2, 2)))


def _class_grid_oracle(pat, values, key):
    """Dense class-grid matrix: ``sum_k kron(E_k, values[k])`` keyed by
    column, ``sum_k kron(e_k^T, E_k @ values)`` keyed by class."""
    eye = np.eye(pat.p)
    if key == "col":
        terms = [np.kron(placement_matrix(pat, k), values[k][None, :]) for k in range(pat.p)]
    else:
        terms = [np.kron(eye[k:k + 1], placement_matrix(pat, k) @ values) for k in range(pat.p)]
    extent = pat.q if key == "col" else pat.p
    return sum(terms, np.zeros((pat.ell, extent * values.shape[1])))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS),
       key=st.sampled_from(["col", "class"]), width=st.integers(0, 3))
def test_class_grid_is_the_kron_sum_over_placements(seed, kind, key, width):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, kind)
    values = rng.standard_normal((pat.p if key == "col" else pat.q, width))
    op = block_maps._class_grid(pat, values, key)
    assert isinstance(op, scipy.sparse.csr_matrix)
    np.testing.assert_allclose(op.toarray(), _class_grid_oracle(pat, values, key),
                               rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("key", ["col", "class"])
def test_class_grid_of_a_zero_class_pattern_is_zero(key):
    pat = BlockPattern(3, 2, 2, 2, np.zeros((0, 2)), np.zeros(0))
    op = block_maps._class_grid(pat, np.zeros((0 if key == "col" else 2, 4)), key)
    assert op.shape == (3, 8 if key == "col" else 0) and op.nnz == 0


def test_struct_assemble_block_count_validation():
    pat = build_pattern("diagonal", 2, 2, 2, 2)
    with pytest.raises(ShapeError):
        struct_assemble(pat, [np.zeros((2, 2))])
    with pytest.raises(ShapeError):
        struct_assemble(pat, [np.zeros((2, 2)), np.zeros((3, 2))])


# ---------------------------------------------------------------------------
# the nonzero-cell view: dense and sparse inputs alike
# ---------------------------------------------------------------------------


def sparse_copies(a: np.ndarray):
    """CSR and COO copies of ``a`` storing every entry with a nonzero bit,
    so a ``-0.0`` entry is stored too."""
    rows, cols = np.nonzero(a.view(np.uint64))
    triplets = (a[rows, cols], (rows, cols))
    return (scipy.sparse.csr_matrix(triplets, shape=a.shape),
            scipy.sparse.coo_matrix(triplets, shape=a.shape))


def signed_zero_matrix(rng, pat):
    """A matrix conforming to ``pat`` whose blocks hold ``+0.0`` and ``-0.0``
    entries, with ``-0.0`` entries in some cells no class claims."""
    blocks = random_blocks(rng, pat)
    for b in blocks:
        b[rng.random(b.shape) < 0.3] = 0.0
        b[rng.random(b.shape) < 0.2] = -0.0
    a = struct_assemble(pat, blocks)
    view = a.reshape(pat.ell, pat.m, pat.q, pat.n)
    for i, j in np.argwhere(pat.class_of < 0)[::2]:
        view[i, :, j, :][rng.random((pat.m, pat.n)) < 0.5] = -0.0
    return a


def outcome(fn, *args, **kwargs):
    """The result of ``fn``, or the text of the PatternMismatchError or
    ShapeError it raised."""
    try:
        return fn(*args, **kwargs)
    except (PatternMismatchError, ShapeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def same_detection(got, want) -> bool:
    if isinstance(want, str):
        return got == want
    return got[0] == want[0] and [b.tobytes() for b in got[1]] == [b.tobytes() for b in want[1]]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS))
def test_dense_and_sparse_inputs_agree(seed, kind):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, kind)
    a = signed_zero_matrix(rng, pat)
    t = mat_to_tensor(a, pat)
    for s in sparse_copies(a):
        assert mat_to_tensor(s, pat).tobytes() == t.tobytes()  # -0.0 included
        for tol in (0.0, 1e-12):
            assert same_detection(outcome(detect_pattern, s, pat.m, pat.n, tol=tol),
                                  outcome(detect_pattern, a, pat.m, pat.n, tol=tol))
    if t.any():
        rep = kron_sum_from_tucker(tucker_partial(t, [None, 1, None]), pat)
        want = error_fro(a, rep)
        for s in sparse_copies(a):
            assert abs(error_fro(s, rep) - want) <= 1e-13 * max(want, 1e-300)

    # one entry off: in a class copy other than the first, or an unclaimed cell
    firsts = {tuple(c[0]) for c in pat.placements}
    cells = [(i, j) for i in range(pat.ell) for j in range(pat.q) if (i, j) not in firsts]
    if cells:
        i, j = cells[rng.integers(len(cells))]
        bad = a.copy()
        bad[i * pat.m + rng.integers(pat.m), j * pat.n + rng.integers(pat.n)] += 1.0
        want = outcome(mat_to_tensor, bad, pat)
        assert isinstance(want, str) and want.startswith("PatternMismatchError")
        for s in sparse_copies(bad):
            assert outcome(mat_to_tensor, s, pat) == want


def test_sparse_duplicates_add_up_and_stored_zeros_drop_out():
    rng = np.random.default_rng(33)
    pat = build_pattern("banded", 4, 4, 3, 3, band=1)
    a = struct_assemble(pat, random_blocks(rng, pat))
    rows, cols = np.nonzero(a)
    part = rng.uniform(0.2, 0.8, size=rows.size) * a[rows, cols]
    zeros = 3 * np.argwhere(pat.class_of < 0)  # a stored +0.0 in every unclaimed cell
    coo = scipy.sparse.coo_matrix(
        (np.concatenate([part, a[rows, cols] - part, np.zeros(len(zeros))]),
         (np.concatenate([rows, rows, zeros[:, 0]]), np.concatenate([cols, cols, zeros[:, 1]]))),
        shape=a.shape)
    assert coo.nnz == 2 * rows.size + len(zeros)
    assert mat_to_tensor(coo, pat).tobytes() == mat_to_tensor(coo.toarray(), pat).tobytes()
    assert len(block_maps._cells(coo, 4, 4, 3, 3).ids) == sum(pat.counts)  # no zero cell kept


@pytest.mark.parametrize("kind, entry, message", [
    ("toeplitz", (2, 2), "class 1: block at grid cell (2, 2) differs from its representative"),
    ("toeplitz", (0, 0), "class 1: block at grid cell (1, 1) is not finite"),
    ("toeplitz", (0, 4), "class 5: block at grid cell (1, 3) is not finite"),  # a one-cell class
    ("banded", (0, 4), "grid cell (1, 3) is outside every class but not zero"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extraction_refuses_non_finite_entries(kind, entry, message, bad):
    # a NaN compares false with every tolerance, so it once passed every check
    pat = build_pattern(kind, 3, 3, 2, 2, band=1 if kind == "banded" else None)
    a = struct_assemble(pat, random_blocks(np.random.default_rng(34), pat))
    a[entry] = bad
    for m in (a, *sparse_copies(a)):
        for fn in (extract_blocks, mat_to_tensor, spsd_compress):
            args = (m, pat, 1) if fn is spsd_compress else (m, pat)
            with pytest.raises(PatternMismatchError) as err:
                fn(*args)
            assert str(err.value) == message, fn.__name__


@pytest.mark.parametrize("chunk", [8, block_maps._CHUNK])  # 2 cells a chunk, or all at once
@pytest.mark.parametrize("tol", [0.0, 0.25])
def test_mismatch_is_reported_at_the_first_bad_cell_in_table_order(tol, chunk, monkeypatch):
    # read row-major, the unclaimed (1, 3), class 3's (2, 3) and class 2's (3, 2)
    # come before class 1's (3, 3); the table lists class 1 first, unclaimed cells last
    monkeypatch.setattr(block_maps, "_CHUNK", chunk)
    pat = build_pattern("toeplitz", 3, 3, 2, 2, band=1)
    a = struct_assemble(pat, random_blocks(np.random.default_rng(36), pat))
    unclaimed_only = a.copy()
    for i, j in ((0, 2), (1, 2), (2, 1), (2, 2)):
        a[2 * i + 1, 2 * j] += 1.0
    for i, j in ((2, 0), (0, 2)):
        unclaimed_only[2 * i, 2 * j + 1] = 1.0
    for matrix, message in ((a, "class 1: block at grid cell (3, 3) differs from its "
                                "representative"),
                            (unclaimed_only, "grid cell (1, 3) is outside every class but not "
                                             "zero")):
        for m in (matrix, *sparse_copies(matrix)):
            for fn, args in ((extract_blocks, (m, pat, tol)), (mat_to_tensor, (m, pat, tol)),
                             (spsd_compress, (m, pat, 1))):  # it extracts at tol 0
                with pytest.raises(PatternMismatchError) as err:
                    fn(*args)
                assert str(err.value) == message, fn.__name__


def test_exact_extraction_matches_a_signed_zero():
    # at tol 0 a copy is compared by ==, which is |copy - rep| <= 0: -0.0 == +0.0,
    # but the smallest subnormal is not zero
    pat = build_pattern("toeplitz", 3, 3, 2, 2)
    blocks = random_blocks(np.random.default_rng(37), pat)
    blocks[0][0, 0], blocks[1][1, 0] = 0.0, -0.0
    a = struct_assemble(pat, blocks)
    a[2, 2], a[5, 2] = -0.0, 0.0  # copies at (2, 2) of class 1 and (3, 2) of class 2
    for m in (a, *sparse_copies(a)):
        reps = extract_blocks(m, pat)
        assert [r.tobytes() for r in reps] == [b.tobytes() for b in blocks]  # first copies
    a[5, 2] = np.nextafter(0.0, 1.0)
    for m in (a, *sparse_copies(a)):
        with pytest.raises(PatternMismatchError, match=r"^class 2: block at grid cell \(3, 2\) "
                                                       "differs from its representative$"):
            extract_blocks(m, pat)


def test_block_maps_leave_their_input_unchanged():
    rng = np.random.default_rng(38)
    pat = build_pattern("toeplitz", 4, 4, 3, 2, band=2)
    a = signed_zero_matrix(rng, pat)
    rep = kron_sum_from_tucker(tucker_partial(mat_to_tensor(a, pat), [None, 1, None]), pat)
    for scaled in (a, 1e160 * a):  # error_fro rescales its chunks on the second
        before = scaled.tobytes()
        for fn, args in ((extract_blocks, (scaled, pat)), (extract_blocks, (scaled, pat, 1e-3)),
                         (mat_to_tensor, (scaled, pat)), (detect_pattern, (scaled, 3, 2)),
                         (detect_pattern, (scaled, 3, 2, 1e-3)), (error_fro, (scaled, rep))):
            outcome(fn, *args)
            assert scaled.tobytes() == before, fn.__name__


@pytest.mark.parametrize("tol", [0.0, 0.5])
def test_detection_refuses_non_finite_entries(tol):
    pat = build_pattern("toeplitz", 3, 3, 2, 2)
    a = struct_assemble(pat, random_blocks(np.random.default_rng(35), pat))
    a[2, 3] = np.nan  # cell (2, 2), a copy of class 1: its own class, the fifth met
    a[5, 0] = -np.inf  # cell (3, 1), met later
    for m in (a, *sparse_copies(a)):
        with pytest.raises(PatternMismatchError, match=r"^class 5: block at grid cell \(2, 2\) "
                                                       "is not finite$"):
            detect_pattern(m, 2, 2, tol=tol)


def test_fingerprint_collisions_split_into_exact_classes(monkeypatch):
    rng = np.random.default_rng(31)
    pat = build_pattern("toeplitz", 5, 5, 3, 3)
    blocks = random_blocks(rng, pat)
    blocks[0][1, 1] = 0.0
    blocks[3] = blocks[0].copy()
    blocks[3][1, 1] = -0.0  # differs from class 1 only in the sign of a zero
    a = struct_assemble(pat, blocks)
    want = detect_pattern(a, 3, 3)
    assert want[0].p == pat.p
    assert {b.tobytes() for b in want[1]} == {b.tobytes() for b in blocks}
    monkeypatch.setattr(block_maps, "_fingerprint",
                        lambda bits, keys: np.zeros(bits.shape[1], dtype=np.uint64))
    for m in (a, *sparse_copies(a)):
        assert same_detection(detect_pattern(m, 3, 3), want)


def test_block_maps_allocate_nothing_the_size_of_a_dense_matrix():
    rng = np.random.default_rng(32)
    pat = build_pattern("banded", 30, 30, 40, 40, band=1)
    a = struct_assemble(pat, random_blocks(rng, pat))
    rep = kron_sum_from_tucker(tucker_partial(mat_to_tensor(a, pat), [None, 5, None]), pat)
    for fn, args in ((mat_to_tensor, (a, pat)), (error_fro, (a, rep)),
                     (detect_pattern, (a, 40, 40))):
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 4, f"{fn.__name__}: peak {peak} of {a.nbytes}"


# ---------------------------------------------------------------------------
# the mode-2 rows on their support, from the blocks or from stored entries
# ---------------------------------------------------------------------------


def stored_forms(rng, a: np.ndarray) -> dict:
    """``a`` dense, and as sparse matrices holding the same values: a CSR storing every entry
    with a nonzero bit (``-0.0`` too), a COO whose duplicates add up to it (two halves of every
    entry, and pairs cancelling to ``+0.0`` at zeros), and a CSR storing explicit ``+0.0``."""
    rows, cols = np.nonzero(a.view(np.uint64))
    zr, zc = np.nonzero(a.view(np.uint64) == 0)
    pick = rng.random(zr.size) < 0.3
    zr, zc, c = zr[pick], zc[pick], rng.standard_normal(np.count_nonzero(pick))
    half = a[rows, cols] / 2  # adds back exactly: no test value is subnormal
    dup = scipy.sparse.coo_matrix((np.concatenate([half, c, half, -c]),
                                   (np.concatenate([rows, zr, rows, zr]),
                                    np.concatenate([cols, zc, cols, zc]))), shape=a.shape)
    zeros = scipy.sparse.csr_matrix((np.concatenate([a[rows, cols], np.zeros(zr.size)]),
                                     (np.concatenate([rows, zr]), np.concatenate([cols, zc]))),
                                    shape=a.shape)
    assert zeros.nnz == rows.size + zr.size and dup.nnz == 2 * (rows.size + zr.size)
    return {"dense": a, "csr": sparse_copies(a)[0], "coo_cancelling": dup, "stored_zeros": zeros}


def rows_outcome(fn, *args):
    """:func:`outcome` with the ``(support, rows)`` pair as bytes, ``-0.0`` told apart."""
    got = outcome(fn, *args)
    return got if isinstance(got, str) else (got[0].tolist(), got[1].shape, got[1].tobytes())


_MUTATIONS = ("none", "later_differs", "later_misses", "later_signed_zero", "rep_signed_zero",
              "unclaimed", "rep_nan", "rep_inf", "later_nan", "later_-inf")


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS),
       mutation=st.sampled_from(_MUTATIONS))
def test_rows_from_stored_entries_verify_as_extract_blocks(seed, kind, mutation):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, kind)
    a = signed_zero_matrix(rng, pat)
    view = a.reshape(pat.ell, pat.m, pat.q, pat.n)
    reps = [c[0] for c in pat.placements]
    later = [(k, c) for k, cells in enumerate(pat.placements) for c in cells[1:]]
    (i, j), e = reps[rng.integers(pat.p)], (rng.integers(pat.m), rng.integers(pat.n))
    if mutation.startswith("later"):
        if not later:
            return
        k, (i, j) = later[rng.integers(len(later))]
        held = np.argwhere(view[reps[k][0], :, reps[k][1], :] != 0)
        if mutation == "later_misses" and held.size:
            e = tuple(held[rng.integers(len(held))])
    if mutation == "unclaimed":
        free = np.argwhere(pat.class_of < 0)
        if not free.size:
            return
        i, j = free[rng.integers(len(free))]
    value = {"later_differs": view[i, e[0], j, e[1]] + 1.0, "later_misses": 0.0,
             "unclaimed": 1.0, "rep_nan": np.nan, "later_nan": np.nan, "rep_inf": np.inf,
             "later_-inf": -np.inf}.get(mutation)
    if mutation.endswith("signed_zero"):  # a -0.0 where the other copies hold zero, or +0.0
        view[i, :, j, :][view[i, :, j, :] == 0] = -0.0 if mutation == "later_signed_zero" else 0.0
    elif value is not None:
        view[i, e[0], j, e[1]] = value
    for name, form in stored_forms(rng, a).items():
        blocks = outcome(extract_blocks, form, pat)
        want = blocks if isinstance(blocks, str) else rows_outcome(blocks_to_rows, pat, blocks)
        assert rows_outcome(extract_rows, form, pat) == want, (name, mutation)
    if mutation in ("later_differs", "later_misses", "unclaimed", "later_nan", "later_-inf"):
        assert isinstance(want, str) or mutation == "later_misses" and not held.size


def test_rows_refuse_what_extraction_refuses_with_its_message():
    pat = build_pattern("toeplitz", 3, 3, 2, 2, band=1)
    a = struct_assemble(pat, random_blocks(np.random.default_rng(40), pat))
    cases = {(2, 2): "class 1: block at grid cell (2, 2) differs from its representative",
             (0, 4): "grid cell (1, 3) is outside every class but not zero",
             (2, 0): "class 2: block at grid cell (2, 1) is not finite"}
    for (r, c), message in cases.items():
        bad = a.copy()
        bad[r, c] = np.nan if "finite" in message else bad[r, c] + 1.0
        for m in (bad, *sparse_copies(bad)):
            with pytest.raises(PatternMismatchError) as err:
                extract_rows(m, pat)
            assert str(err.value) == message
    with pytest.raises(ShapeError, match="matrix shape"):
        extract_rows(scipy.sparse.csr_matrix(a[:-2]), pat)


@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_rows_are_the_mode2_unfolding_on_its_support(kind):
    rng = np.random.default_rng(41)
    pat = random_pattern(rng, kind)
    blocks = extract_blocks(signed_zero_matrix(rng, pat), pat)
    support, rows = blocks_to_rows(pat, blocks)
    full = unfold(blocks_to_tensor(pat, blocks), 2)
    assert np.array_equal(support, np.flatnonzero(full.any(axis=0)))
    assert rows.tobytes() == full[:, support].tobytes()  # -0.0 kept where the support holds it
    assert not np.delete(full, support, axis=1).any()


def test_rows_from_stored_entries_build_no_cell_stack(monkeypatch):
    # one class per cell of a 10 x 10 banded grid of 400 x 400 blocks sharing a tridiagonal
    # support: 28 classes, 1198 support columns out of 160000
    pat = build_pattern("banded", 10, 10, 400, 400, band=1)
    rng = np.random.default_rng(42)
    grid = [[None] * pat.q for _ in range(pat.ell)]
    for i, j in pat.cells:
        grid[i][j] = scipy.sparse.diags([rng.standard_normal(400 - abs(d)) for d in (-1, 0, 1)],
                                        [-1, 0, 1])
    a = scipy.sparse.bmat(grid, format="csr")
    monkeypatch.setattr(block_maps, "DENSIFY_LIMIT", 10**6)  # below the 28 cells' 4480000 entries
    with pytest.raises(ShapeError, match="28 nonzero 400 x 400 cells would hold 4480000"):
        extract_blocks(a, pat)
    tracemalloc.start()
    try:
        support, rows = extract_rows(a, pat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (pat.p, support.size) == (28, 1198)
    assert peak < pat.p * pat.m * pat.n * 8 / 4, peak  # a quarter of the stack of the blocks
