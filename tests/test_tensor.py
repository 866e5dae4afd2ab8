"""Unfold/fold conventions and mode arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockten.errors import ShapeError
from blockten.tensor import fold, fro_norm, mode_multiply, unfold

dims_strategy = st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=5)


def _random_tensor(dims, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(tuple(dims))


def test_unfold_first_index_fastest_example():
    # the 2x2x2 tensor holding 1..8 in first-index-fastest order
    t = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
    np.testing.assert_array_equal(unfold(t, 1), [[1, 3, 5, 7], [2, 4, 6, 8]])
    np.testing.assert_array_equal(unfold(t, 2), [[1, 2, 5, 6], [3, 4, 7, 8]])
    np.testing.assert_array_equal(unfold(t, 3), [[1, 2, 3, 4], [5, 6, 7, 8]])


def test_unfold_order3_slice_formulas():
    t = _random_tensor((3, 4, 2))
    m, p, n = t.shape
    np.testing.assert_array_equal(unfold(t, 1), np.hstack([t[:, :, k] for k in range(n)]))
    np.testing.assert_array_equal(unfold(t, 2), np.hstack([t[:, :, k].T for k in range(n)]))
    np.testing.assert_array_equal(unfold(t, 3), np.hstack([t[:, k, :].T for k in range(p)]))


@settings(max_examples=40, deadline=None)
@given(dims=dims_strategy, mode=st.integers(min_value=1, max_value=5), seed=st.integers(0, 99))
def test_fold_inverts_unfold(dims, mode, seed):
    if mode > len(dims):
        mode = 1 + (mode - 1) % len(dims)
    t = _random_tensor(dims, seed)
    assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)


@settings(max_examples=25, deadline=None)
@given(dims=dims_strategy, seed=st.integers(0, 99))
def test_unfold_preserves_norm(dims, seed):
    t = _random_tensor(dims, seed)
    for mode in range(1, t.ndim + 1):
        assert np.isclose(np.linalg.norm(unfold(t, mode)), fro_norm(t), rtol=1e-13)


def test_mode_multiply_matches_unfolded_product():
    t = _random_tensor((3, 4, 2), seed=3)
    u = np.random.default_rng(1).standard_normal((5, 4))
    out = mode_multiply(t, 2, u)
    assert out.shape == (3, 5, 2)
    np.testing.assert_allclose(unfold(out, 2), u @ unfold(t, 2), atol=1e-14)


def test_mode_products_on_distinct_modes_commute():
    t = _random_tensor((3, 4, 2), seed=5)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((2, 3))
    w = rng.standard_normal((5, 2))
    ab = mode_multiply(mode_multiply(t, 1, u), 3, w)
    ba = mode_multiply(mode_multiply(t, 3, w), 1, u)
    np.testing.assert_allclose(ab, ba, atol=1e-13)


def test_mode_multiply_shape_checks():
    t = _random_tensor((3, 4, 2))
    with pytest.raises(ShapeError):
        mode_multiply(t, 4, np.eye(2))
    with pytest.raises(ShapeError):
        mode_multiply(t, 1, np.eye(4))  # wrong inner extent


def test_fold_scalar_like_example():
    t = fold(np.array([[5.0]]), 1, (1, 1, 1))
    assert t.shape == (1, 1, 1) and t[0, 0, 0] == 5.0


def test_fold_rejects_inconsistent_shapes():
    with pytest.raises(ShapeError):
        fold(np.zeros((3, 5)), 1, (3, 2, 2))


def test_fro_norm_any_order():
    t = _random_tensor((2, 3, 2, 2), seed=11)
    assert np.isclose(fro_norm(t), np.sqrt((t**2).sum()), rtol=1e-14)


def test_fro_norm_is_scale_safe():
    t = _random_tensor((5, 6, 4), seed=12)
    ref = fro_norm(t)
    assert ref == np.linalg.norm(t.ravel())  # bit for bit at ordinary scales
    for scale in (1e-200, 1e200):  # the plain sum of squares gives 0.0 and inf
        assert fro_norm(t * scale) == pytest.approx(ref * scale, rel=1e-15)
    for e in (-660, 660):
        assert fro_norm(np.ldexp(t, e)) == np.ldexp(ref, e)
    assert fro_norm(np.zeros((2, 3))) == 0.0
