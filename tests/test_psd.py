"""Symmetry- and definiteness-preserving compression."""

import tracemalloc

import numpy as np
import pytest

from blockten import build_pattern, struct_assemble
from blockten.blocks import BlockPattern, blocks_to_tensor
from blockten.decomp import _mode_basis
from blockten.errors import NotPositiveDefiniteError, PatternMismatchError, ShapeError
from blockten import psd
from blockten.psd import (
    SpsdRep,
    check_transpose_closed,
    spd_compress,
    spsd_compress,
    spsd_compress_blocks,
)
from blockten.reconstruct import densify

from helpers import random_pattern


def _spd_block_toeplitz(rng, ell=4, nb=5, decay=0.3):
    """A block-Toeplitz SPD matrix with distinct +/- diagonal classes."""
    pat = build_pattern("toeplitz", ell, ell, nb, nb)
    t0 = rng.standard_normal((nb, nb))
    t0 = t0 @ t0.T + nb * np.eye(nb)
    subs = [decay * rng.standard_normal((nb, nb)) for _ in range(ell - 1)]
    blocks = [t0] + subs + [s.T for s in subs]
    a = struct_assemble(pat, np.stack(blocks))
    lam_min = np.linalg.eigvalsh(a).min()
    if lam_min <= 1.0:
        blocks[0] = blocks[0] + (1.0 - lam_min) * np.eye(nb)
        a = struct_assemble(pat, np.stack(blocks))
    return a, pat, blocks


def test_spsd_matches_two_sided_projection():
    rng = np.random.default_rng(7)
    a, pat, _ = _spd_block_toeplitz(rng)
    ell, nb = pat.ell, pat.m
    for r in (1, 2, 3, nb):
        rep = spsd_compress(a, pat, r)
        proj = np.kron(np.eye(ell), rep.basis @ rep.basis.T)
        ref = proj @ a @ proj
        assert np.max(np.abs(rep.densify() - ref)) < 1e-12
        assert abs(rep.trace() - np.trace(ref)) < 1e-10


def test_spsd_keeps_eigenvalues_nonnegative():
    # congruence X -> P X P^T cannot create negative eigenvalues
    rng = np.random.default_rng(8)
    a, pat, _ = _spd_block_toeplitz(rng)
    for r in (1, 3):
        ahat = spsd_compress(a, pat, r).densify()
        assert np.linalg.eigvalsh((ahat + ahat.T) / 2).min() > -1e-10


def test_spsd_full_rank_is_exact():
    rng = np.random.default_rng(9)
    a, pat, _ = _spd_block_toeplitz(rng)
    rep = spsd_compress(a, pat, pat.m)
    assert np.max(np.abs(rep.densify() - a)) < 1e-12


def test_spsd_as_blr_agrees_with_densify():
    rng = np.random.default_rng(10)
    a, pat, _ = _spd_block_toeplitz(rng)
    rep = spsd_compress(a, pat, 3)
    assert np.max(np.abs(densify(rep.as_blr()) - rep.densify())) < 1e-13


def test_spsd_blocks_entry_point_matches_dense_one():
    rng = np.random.default_rng(11)
    a, pat, blocks = _spd_block_toeplitz(rng)
    r1 = spsd_compress(a, pat, 2)
    r2 = spsd_compress_blocks(pat, np.stack(blocks), 2)
    assert np.max(np.abs(r1.densify() - r2.densify())) == 0.0


def test_transpose_closure_rejects_asymmetric_population():
    pat = build_pattern("toeplitz", 3, 3, 2, 2)
    blocks = np.arange(5 * 4, dtype=float).reshape(5, 2, 2)
    with pytest.raises(PatternMismatchError):
        check_transpose_closed(pat, blocks)
    # an upper-triangular support has no mirror class at all
    cells = np.array([[0, 1], [1, 2]])
    pat_up = BlockPattern(3, 3, 2, 2, cells, [0, 0])
    with pytest.raises(PatternMismatchError):
        check_transpose_closed(pat_up, blocks[:1])


def test_transpose_closure_holds_inexact_pairs_to_the_tolerance():
    # an exactly mirrored pair needs no tolerance; any other is held to
    # _TRANSPOSE_TOL * max(1, max |A|)
    pat = build_pattern("toeplitz", 3, 3, 2, 2)  # classes: d = 0, -1, -2, +1, +2
    blocks = np.random.default_rng(20).standard_normal((5, 2, 2))
    blocks[0] += blocks[0].T
    blocks[3], blocks[4] = blocks[1].T, blocks[2].T
    assert check_transpose_closed(pat, blocks) == [0, 3, 4, 1, 2]
    step = psd._TRANSPOSE_TOL * max(1.0, np.abs(blocks).max())
    blocks[4, 0, 1] += 0.5 * step
    assert check_transpose_closed(pat, blocks) == [0, 3, 4, 1, 2]
    blocks[4, 0, 1] += step
    with pytest.raises(PatternMismatchError,
                       match=r"^class 3: block transpose differs from class 5$"):
        check_transpose_closed(pat, blocks)


def test_spsd_rejects_rectangular_grid_or_blocks():
    pat = build_pattern("toeplitz", 3, 3, 2, 3)
    with pytest.raises(ShapeError):
        spsd_compress_blocks(pat, np.zeros((5, 2, 3)), 1)
    with pytest.raises(ShapeError):
        spsd_compress(np.zeros((6, 7)), pat, 1)
    with pytest.raises(ShapeError, match="square grid of square blocks"):
        check_transpose_closed(pat, np.ones((5, 2, 3)))
    wide = BlockPattern(2, 3, 2, 2, np.array([[0, 0], [1, 1]]), [0, 0])  # a 2 x 3 grid
    for compress in (spsd_compress_blocks, psd.spd_compress_blocks):
        with pytest.raises(ShapeError):
            compress(wide, [np.eye(2)], 1)


def test_spsd_rank_out_of_range():
    rng = np.random.default_rng(12)
    a, pat, _ = _spd_block_toeplitz(rng)
    for bad in (0, pat.m + 1):
        with pytest.raises(ShapeError):
            spsd_compress(a, pat, bad)


def test_spd_every_rank_admits_cholesky():
    rng = np.random.default_rng(13)
    a, pat, _ = _spd_block_toeplitz(rng)
    for r in range(1, pat.m + 1):
        ahat = spd_compress(a, pat, r).densify()
        np.linalg.cholesky(ahat)  # raises LinAlgError on any negative pivot


def test_spd_full_rank_is_exact():
    rng = np.random.default_rng(14)
    a, pat, _ = _spd_block_toeplitz(rng)
    ahat = spd_compress(a, pat, pat.m).densify()
    assert np.max(np.abs(ahat - a)) < 1e-10


def test_spd_quadratic_form_identity():
    # x' T x = ||x2||^2 + x1' (I + M) x1 with x2 = (I (x) L') x
    rng = np.random.default_rng(15)
    a, pat, _ = _spd_block_toeplitz(rng)
    rep = spd_compress(a, pat, 2)
    that = rep.densify()
    lfull = np.kron(np.eye(pat.ell), rep.chol)
    inner = np.eye(pat.ell * pat.m) + rep.remainder.densify()
    x = rng.standard_normal(pat.ell * pat.m)
    x1 = lfull.T @ x
    assert np.isclose(x @ that @ x, x1 @ inner @ x1, rtol=1e-12)


def test_spd_remainder_partners_are_exact_transposes(monkeypatch):
    rng = np.random.default_rng(17)
    a, pat, _ = _spd_block_toeplitz(rng)
    seen, real = {}, psd._shared_basis_rep

    def spy(pattern, blocks, r):
        seen.update(pattern=pattern, blocks=blocks)
        return real(pattern, blocks, r)

    monkeypatch.setattr(psd, "_shared_basis_rep", spy)
    spd_compress(a, pat, 2)
    blocks = seen["blocks"]
    for k, j in enumerate(check_transpose_closed(seen["pattern"], blocks)):
        assert np.array_equal(blocks[j], blocks[k].T)


def test_spd_rejects_a_remainder_that_is_not_transpose_closed():
    rng = np.random.default_rng(18)
    a, pat, blocks = _spd_block_toeplitz(rng)
    blocks = list(blocks)
    blocks[pat.p - 1] = blocks[pat.p - 1] + 1e-3  # a superdiagonal no longer mirrors its partner
    with pytest.raises(PatternMismatchError, match="block transpose differs"):
        spd_compress(struct_assemble(pat, np.stack(blocks)), pat, 2)


def test_spd_block_diagonal_input_has_empty_remainder():
    rng = np.random.default_rng(16)
    nb, ell = 4, 3
    t0 = rng.standard_normal((nb, nb))
    t0 = t0 @ t0.T + nb * np.eye(nb)
    cells = np.column_stack([np.arange(ell), np.arange(ell)])
    pat = BlockPattern(ell, ell, nb, nb, cells, np.zeros(ell, dtype=int), "diagonal")
    a = struct_assemble(pat, np.stack([t0]))
    rep = spd_compress(a, pat, 2)
    assert rep.remainder.pattern.p == 0
    assert np.max(np.abs(rep.densify() - a)) < 1e-12


def test_spd_rejects_indefinite_anchor():
    pat = build_pattern("diagonal", 3, 3, 2, 2)
    a = -np.eye(6)
    with pytest.raises(NotPositiveDefiniteError):
        spd_compress(a, pat, 1)


def test_spd_requires_anchor_class_at_corner():
    cells = np.array([[1, 1], [2, 2]])
    pat = BlockPattern(3, 3, 2, 2, cells, [0, 0])
    a = struct_assemble(pat, np.stack([np.eye(2)]))
    with pytest.raises(PatternMismatchError):
        spd_compress(a, pat, 1)


def test_spsd_rep_validates_extents():
    pat = build_pattern("toeplitz", 2, 2, 3, 3)
    with pytest.raises(ShapeError):
        SpsdRep(pattern=pat, basis=np.eye(3)[:, :2], blocks=np.zeros((pat.p, 3, 3)))
    with pytest.raises(ShapeError, match="basis rows must equal the square block extent"):
        SpsdRep(pattern=pat, basis=np.eye(4)[:, :2], blocks=np.zeros((pat.p, 2, 2)))


# ---------------------------------------------------------------------------
# the shared basis from the class-by-class Gram matrix
# ---------------------------------------------------------------------------

_CLOSED_KINDS = (("toeplitz", {}), ("toeplitz", {"block_symmetric": True}),
                 ("banded", {"band": 1}), ("banded", {"band": 2, "block_symmetric": True}),
                 ("hankel", {}), ("diagonal", {}))


def _closed_blocks(rng, pat, rank=None):
    """Random blocks making ``pat`` transpose-closed: a class mirrored by another
    holds the transpose of its partner's block, one mirrored by itself a symmetric
    block.  With ``rank``, every block is ``X C X^T`` for one ``n x rank`` ``X``."""
    n = pat.m
    if rank is None:
        blocks = rng.standard_normal((pat.p, n, n))
    else:
        x = rng.standard_normal((n, rank))
        blocks = x @ rng.standard_normal((pat.p, rank, rank)) @ x.T
    for k, cells in enumerate(pat.placements):
        i, j = cells[0]
        partner = pat.class_of[j, i]
        if partner == k:
            blocks[k] = (blocks[k] + blocks[k].T) / 2
        elif partner > k:
            blocks[partner] = blocks[k].T
    check_transpose_closed(pat, blocks)
    return blocks


def _stacked_basis(pat, blocks, r):
    """The reference: the exact basis of the stacked mode-1 unfolding."""
    return _mode_basis(blocks_to_tensor(pat, blocks).reshape(pat.m, -1), r)


def _assert_matches_stacked(pat, blocks, r):
    rep = spsd_compress_blocks(pat, blocks, r)
    ref = _stacked_basis(pat, blocks, r)
    u = rep.basis
    proj, proj_ref = u @ u.T, ref @ ref.T
    assert np.linalg.norm(proj - proj_ref) <= 1e-10 * np.linalg.norm(proj_ref)
    cells = rep.cell_blocks()[1]
    cells_ref = proj_ref @ blocks @ proj_ref
    assert np.linalg.norm(cells - cells_ref) <= 1e-10 * np.linalg.norm(cells_ref)
    return rep


def test_shared_basis_matches_the_stacked_unfolding_on_random_closed_patterns(monkeypatch):
    certified, real = [], psd._certified_gram_basis

    def spy(*args):
        u = real(*args)
        certified.append(u is not None)
        return u

    monkeypatch.setattr(psd, "_certified_gram_basis", spy)
    rng = np.random.default_rng(31)
    for trial in range(40):
        kind, kwargs = _CLOSED_KINDS[trial % len(_CLOSED_KINDS)]
        ell, n = int(rng.integers(3, 6)), int(rng.integers(4, 13))
        pat = build_pattern(kind, ell, ell, n, n, **kwargs)
        blocks = _closed_blocks(rng, pat)
        if trial % 3 == 0:  # zero classes: a class and its partner
            k = int(rng.integers(pat.p))
            i, j = pat.placements[k][0]
            blocks[[k, pat.class_of[j, i]]] = 0.0
        for r in sorted({1, int(rng.integers(1, n)), n - 1}):
            rep = _assert_matches_stacked(pat, blocks, r)
            zero = ~blocks.any(axis=(1, 2))
            assert not rep.blocks[zero].any()
    assert sum(certified) >= 100  # the Gram path, not its fallback, is what was compared


def test_shared_basis_stacks_nothing_when_the_gram_certificate_passes(monkeypatch):
    rng = np.random.default_rng(32)
    pat = build_pattern("toeplitz", 4, 4, 10, 10)
    blocks = _closed_blocks(rng, pat)
    ref = _stacked_basis(pat, blocks, 3)

    def refuse(*args):
        raise AssertionError("the stacked unfolding was built")

    monkeypatch.setattr(psd, "blocks_to_tensor", refuse)
    monkeypatch.setattr(psd, "_mode_basis", refuse)
    rep = spsd_compress_blocks(pat, blocks, 3)
    assert np.linalg.norm(rep.basis @ rep.basis.T - ref @ ref.T) < 1e-10


@pytest.mark.parametrize("case", ["one nonzero class", "exactly low rank"])
def test_shared_basis_falls_back_to_the_stacked_unfolding(monkeypatch, case):
    rng = np.random.default_rng(33)
    if case == "one nonzero class":  # an n x n unfolding is not wide: the exact kernel runs
        pat = build_pattern("toeplitz", 3, 3, 6, 6, block_symmetric=True)
        blocks = _closed_blocks(rng, pat)
        blocks[1:] = 0.0
    else:  # rank 2 at r = 3: no tail reaches the certificate's floor
        pat = build_pattern("toeplitz", 4, 4, 8, 8)
        blocks = _closed_blocks(rng, pat, rank=2)
    stacked = []
    real = psd.blocks_to_tensor
    monkeypatch.setattr(psd, "blocks_to_tensor", lambda *a: stacked.append(1) or real(*a))
    rep = spsd_compress_blocks(pat, blocks, 3)
    assert stacked == [1]
    np.testing.assert_array_equal(rep.basis, _stacked_basis(pat, blocks, 3))


def _reference_split_diagonal(pattern, items, shift, nonzero=False):
    """The stacking implementation of ``psd._split_diagonal``, kept as its oracle."""
    items = np.asarray(items, dtype=np.float64)
    part = 2 * pattern.klass + (pattern.cells[:, 0] != pattern.cells[:, 1])
    stack = np.stack([items + shift, items], axis=1).reshape(-1, *shift.shape)
    keep = np.bincount(part, minlength=len(stack)) > 0
    if nonzero:
        keep &= stack.any(axis=(1, 2))
    order = np.argsort(part, kind="stable")
    order = order[keep[part[order]]]
    return pattern.cells[order], (np.cumsum(keep) - 1)[part[order]], stack[keep]


def test_split_diagonal_keeps_the_stacked_parts_bit_for_bit():
    rng = np.random.default_rng(34)
    for trial in range(60):
        pat = random_pattern(rng, max_grid=5, max_block=3)
        items = rng.standard_normal((pat.p, pat.m, pat.n))
        shift = rng.standard_normal((pat.m, pat.n))
        items[rng.random(pat.p) < 0.3] = 0.0  # zero off-diagonal parts
        hit = rng.random(pat.p) < 0.3
        items[hit] = -shift  # zero diagonal parts
        nonzero = bool(trial % 2)
        got = psd._split_diagonal(pat, tuple(items), shift, nonzero)
        want = _reference_split_diagonal(pat, items, shift, nonzero)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)


def _twenty_class_input(nb=128, ell=10, seed=35):
    """A seeded transpose-closed 10 x 10 grid of ``nb x nb`` blocks in 20 classes:
    the even and the odd diagonal cells (an SPD anchor and a symmetric block), and
    nine lags, each split into a subdiagonal class and its transposed partner."""
    rng = np.random.default_rng(seed)
    cells, klass = [], []
    for i in range(ell):
        cells.append((i, i))
        klass.append(i % 2)
    for d in range(1, ell):
        for i in range(ell - d):
            cells += [(i + d, i), (i, i + d)]
            klass += [2 * d, 2 * d + 1]
    pat = BlockPattern(ell, ell, nb, nb, np.array(cells), np.array(klass))
    blocks = rng.standard_normal((pat.p, nb, nb)) / nb
    blocks[0] = blocks[0] @ blocks[0].T + np.eye(nb)
    blocks[1] = (blocks[1] + blocks[1].T) / 2
    blocks[3::2] = blocks[2::2].transpose(0, 2, 1)
    return pat, blocks


@pytest.mark.parametrize("compress, bound", [(spsd_compress_blocks, 0.5),
                                             (psd.spd_compress_blocks, 1.5)])
def test_compressing_from_blocks_allocates_less_than_copies_of_them(compress, bound):
    pat, blocks = _twenty_class_input()
    assert pat.p == 20
    compress(pat, blocks, 16)  # imports and cached pattern members first
    tracemalloc.start()
    try:
        compress(pat, blocks, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * blocks.nbytes


def test_package_root_exports_the_block_entries():
    from blockten import class_error_fro, spd_compress_blocks
    from blockten import reconstruct

    assert spd_compress_blocks is psd.spd_compress_blocks
    assert class_error_fro is reconstruct.class_error_fro
