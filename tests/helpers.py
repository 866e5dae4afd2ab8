"""Shared generators for randomized structure tests."""

from __future__ import annotations

import numpy as np

from blockten.blocks import BlockPattern, build_pattern, struct_scalars

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
    keep = cells[: int(rng.integers(1, len(cells) + 1))]
    p = int(rng.integers(1, len(keep) + 1))
    groups: list[list[tuple[int, int]]] = [[] for _ in range(p)]
    for idx, cell in enumerate(keep):
        groups[idx % p].append(cell)
    placements = tuple(np.array(g, dtype=np.int64) for g in groups if g)
    return BlockPattern(ell=ell, q=q, m=m, n=n, placements=placements,
                        structure_class="general")


def random_blocks(rng: np.random.Generator, pattern: BlockPattern) -> list[np.ndarray]:
    return [rng.standard_normal((pattern.m, pattern.n)) for _ in range(pattern.p)]


def random_ranks(rng: np.random.Generator, dims: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(int(rng.integers(1, d + 1)) for d in dims)


def placement_matrix(pattern: BlockPattern, k: int) -> np.ndarray:
    """Dense ``E_k`` (0-based class index): ``1/sqrt(eta_k)`` on its cells."""
    return np.where(pattern.class_of == k, 1.0 / np.sqrt(pattern.counts[k]), 0.0)


def c_term_dense(rep, j: int) -> np.ndarray:
    """Dense ``C_j`` of a Kron-sum term."""
    return struct_scalars(rep.pattern, rep.coeffs[:, j])
