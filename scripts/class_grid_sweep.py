#!/usr/bin/env python3
"""Class-grid fill ratio against the dense and CSR product kernels.

A Kronecker-sum product multiplies a class grid keyed by column, an
``ell x q`` grid of blocks; a block-low-rank product one keyed by class, an
``ell x p`` grid.  The library applies a grid densely when its fill ratio
(``ell * q`` or ``ell * p`` over the ``sum(eta)`` claimed cells) is at most
``blocks._DENSE_FILL``, else through scipy CSR.  This sweep times both
kernels of both forms, each forced in turn, on an ``ell x ell`` grid of
``m x m`` blocks at two block sizes, so that constant is checked against
measurements rather than guessed:

* ``toeplitz:b`` -- block Toeplitz with diagonals ``|i - j| <= b``: the
  Kronecker form's ratio falls from about ``ell / 3`` to 1 as ``b`` grows;
* ``full/p`` -- every cell claimed, class ``flat cell id % p``: the
  block-low-rank form's ratio is ``p / ell``;
* ``banded:1`` -- one class per cell of a tridiagonal grid (the sparse case).

Each time is the best of ``--repeats`` products, in microseconds; ``pick``
names the kernel the library chooses.  For figures comparable with the
benchmark, run with one BLAS thread pinned to one CPU:

    OPENBLAS_NUM_THREADS=1 taskset -c 0 python scripts/class_grid_sweep.py
"""

import argparse
import timeit
from unittest import mock

import numpy as np

from blockten import BlockLowRankRep, BlockPattern, KronSumRep, build_pattern, reconstruct
from blockten.blocks import _DENSE_FILL, _grid_is_filled


def sweep_patterns(ell: int, m: int) -> list[tuple[str, BlockPattern]]:
    pats = [(f"toeplitz:{b}", build_pattern("toeplitz", ell, ell, m, m, band=b))
            for b in sorted({1, 2, ell // 8, ell // 4, ell // 2, ell - 1} - {0})]
    cells = np.argwhere(np.ones((ell, ell), dtype=bool))  # every cell, row-major
    for p in sorted({f * ell // 2 for f in (1, 2, 4, 8, 12, 16, 32)} & set(range(1, ell**2 + 1))):
        pats.append((f"full/{p}", BlockPattern(ell, ell, m, m, cells, np.arange(ell * ell) % p)))
    pats.append(("banded:1", build_pattern("banded", ell, ell, m, m, band=1)))
    return pats


def best_us(rep_of, dense: bool, x: np.ndarray, repeats: int) -> tuple[float, np.ndarray]:
    """Best time of one product of a fresh form with the kernel forced."""
    with mock.patch.object(reconstruct, "_grid_is_filled", lambda pattern, extent: dense):
        rep = rep_of()
        y = rep.matvec(x)  # builds the cached grid before timing
        number = max(1, int(2e-3 / max(min(timeit.repeat(lambda: rep.matvec(x), number=1,
                                                             repeat=3)), 1e-7)))
        t = min(timeit.repeat(lambda: rep.matvec(x), number=number, repeat=repeats)) / number
    return 1e6 * t, y


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ell", type=int, default=48, help="block-grid extent")
    parser.add_argument("--blocks", type=int, nargs=2, default=(16, 48), help="two block sizes m")
    parser.add_argument("--rank", type=int, default=8, help="Kronecker terms and BLR ranks")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    r = args.rank
    print(f"dense_fill: {_DENSE_FILL}")
    print(f"{'m':>4} {'pattern':>12} {'kron_ratio':>10} {'dense_us':>9} {'csr_us':>9} {'pick':>5}"
          f" {'blr_ratio':>10} {'dense_us':>9} {'csr_us':>9} {'pick':>5}")
    for m in args.blocks:
        rk = min(r, m)
        for name, pat in sweep_patterns(args.ell, m):
            x = rng.standard_normal(pat.shape[1])
            coeffs, terms = rng.standard_normal((pat.p, r)), rng.standard_normal((r, m, m))
            left, right = rng.standard_normal((m, rk)), rng.standard_normal((m, rk))
            middles = rng.standard_normal((pat.p, rk, rk))
            row = f"{m:>4} {name:>12}"
            for rep_of, extent in ((lambda: KronSumRep(pat, coeffs, terms), pat.q),
                                   (lambda: BlockLowRankRep(pat, left, right, middles), pat.p)):
                (t_dense, y_dense), (t_csr, y_csr) = (best_us(rep_of, d, x, args.repeats)
                                                      for d in (True, False))
                if not np.allclose(y_dense, y_csr, rtol=1e-12, atol=1e-12 * np.abs(y_csr).max()):
                    raise SystemExit(f"{name}: the dense and CSR kernels disagree")
                pick = "dense" if _grid_is_filled(pat, extent) else "csr"
                row += (f" {pat.ell * extent / len(pat.klass):>10.2f} {t_dense:>9.1f}"
                        f" {t_csr:>9.1f} {pick:>5}")
            print(row)


if __name__ == "__main__":
    main()
