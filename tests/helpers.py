"""Shared generators for randomized structure tests."""

from __future__ import annotations

import numpy as np

from blockten.blocks import BlockPattern, build_pattern

PATTERN_KINDS = ("diagonal", "banded", "banded_symmetric", "toeplitz",
                 "toeplitz_symmetric", "hankel", "general")


def random_pattern(rng: np.random.Generator, kind: str | None = None,
                   max_grid: int = 5, max_block: int = 4) -> BlockPattern:
    """A small random pattern of the requested (or a random) structure class."""
    if kind is None:
        kind = PATTERN_KINDS[rng.integers(len(PATTERN_KINDS))]
    ell = int(rng.integers(2, max_grid + 1))
    m = int(rng.integers(1, max_block + 1))
    n = int(rng.integers(1, max_block + 1))
    if kind == "diagonal":
        return build_pattern("diagonal", ell, ell, m, n)
    if kind == "banded":
        return build_pattern("banded", ell, ell, m, n, band=int(rng.integers(0, ell)))
    if kind == "banded_symmetric":
        return build_pattern("banded", ell, ell, m, n,
                             band=int(rng.integers(0, ell)), block_symmetric=True)
    if kind == "toeplitz":
        return build_pattern("toeplitz", ell, ell, m, n)
    if kind == "toeplitz_symmetric":
        return build_pattern("toeplitz", ell, ell, m, n, block_symmetric=True)
    if kind == "hankel":
        return build_pattern("hankel", ell, ell, m, n)
    # general: random partition of a random subset of grid cells
    q = int(rng.integers(2, max_grid + 1))
    cells = [(i, j) for i in range(ell) for j in range(q)]
    rng.shuffle(cells)
    keep = np.array(cells[: int(rng.integers(1, len(cells) + 1))], dtype=np.int64)
    p = int(rng.integers(1, len(keep) + 1))
    return BlockPattern(ell, q, m, n, keep, np.arange(len(keep)) % p, "general")


def random_blocks(rng: np.random.Generator, pattern: BlockPattern) -> list[np.ndarray]:
    return [rng.standard_normal((pattern.m, pattern.n)) for _ in range(pattern.p)]


def random_ranks(rng: np.random.Generator, dims: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(int(rng.integers(1, d + 1)) for d in dims)


def placement_matrix(pattern: BlockPattern, k: int) -> np.ndarray:
    """Dense ``E_k`` (0-based class index): ``1/sqrt(eta_k)`` on its cells."""
    return np.where(pattern.class_of == k, 1.0 / np.sqrt(pattern.counts[k]), 0.0)


def struct_scalars(pattern: BlockPattern, coeffs: np.ndarray) -> np.ndarray:
    """Dense ``sum_k coeffs[k] * E_k``."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    assert coeffs.shape == (pattern.p,)
    values = np.append(coeffs / np.sqrt(pattern.counts), 0.0)
    return values[pattern.class_of]  # class -1 (no class) picks the trailing zero


def classify_placements(placements: tuple[np.ndarray, ...], ell: int, q: int) -> str:
    """Best-fitting descriptive tag for a placement family, class by class:
    the oracle for the vectorised classifier in ``blockten.blocks``."""
    all_cells = np.vstack(placements) if placements else np.zeros((0, 2), dtype=np.int64)
    if len(all_cells) and np.all(all_cells[:, 0] == all_cells[:, 1]):
        return "diagonal"

    def full_diagonal(cells: np.ndarray) -> int | None:
        offs = set(np.unique(cells[:, 1] - cells[:, 0]).tolist())
        if ell != q:
            return None
        if len(offs) == 1:
            (d,) = offs
            return d if len(cells) == ell - abs(d) else None
        if len(offs) == 2:
            d1, d2 = sorted(offs)
            if d1 == -d2 and d2 > 0 and len(cells) == 2 * (ell - d2):
                return d2
        return None

    def full_antidiagonal(cells: np.ndarray) -> int | None:
        sums = set(np.unique(cells.sum(axis=1)).tolist())
        if ell != q or len(sums) != 1:
            return None
        (s,) = sums
        expected = min(s + 1, ell, 2 * ell - 1 - s)
        return s if len(cells) == expected else None

    if placements and all(full_diagonal(c) is not None for c in placements):
        return "toeplitz"
    if placements and all(full_antidiagonal(c) is not None for c in placements):
        return "hankel"
    if len(all_cells):
        b = int(np.max(np.abs(all_cells[:, 0] - all_cells[:, 1])))
        if b < max(ell, q) - 1:
            return f"banded:{b}"
    return "general"


def c_term_dense(rep, j: int) -> np.ndarray:
    """Dense ``C_j`` of a Kron-sum term."""
    return struct_scalars(rep.pattern, rep.coeffs[:, j])
