"""Symmetry- and definiteness-preserving compression."""

import numpy as np
import pytest

from blockten import build_pattern, struct_assemble
from blockten.blocks import BlockPattern
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


def test_spsd_rejects_rectangular_grid_or_blocks():
    pat = build_pattern("toeplitz", 3, 3, 2, 3)
    with pytest.raises(ShapeError):
        spsd_compress_blocks(pat, np.zeros((5, 2, 3)), 1)
    with pytest.raises(ShapeError):
        spsd_compress(np.zeros((6, 7)), pat, 1)


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
