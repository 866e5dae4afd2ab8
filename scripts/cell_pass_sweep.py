#!/usr/bin/env python3
"""Chunk budget of the checked cell passes against their running time.

``extract_blocks`` (so ``mat_to_tensor``), ``detect_pattern``'s byte check
and ``error_fro`` read the cells of the block grid row-major, about
``blocks._CHUNK`` entries (at least one cell) at a time, so a chunk stays in
cache while it is compared with its representatives.  This sweep times the
three calls, each with the budget forced in turn, on two dense matrices, so
that constant is checked against measurements rather than guessed:

* ``toeplitz`` -- an ``ell x ell`` block-Toeplitz grid of ``m x m`` blocks:
  ``2 ell - 1`` classes, every cell claimed, heavy repetition;
* ``banded`` -- one class per cell of an ``n x n`` tridiagonal grid of
  ``n x n`` blocks: one-cell classes on a mostly empty grid.

Each time is the best of ``--repeats`` calls, in milliseconds; ``cells`` is
the number of cells per chunk, and the budget in use is marked ``*``.  Every
budget must give the same blocks, pattern and error.  For figures comparable
with the benchmark, run with one BLAS thread pinned to one CPU:

    OPENBLAS_NUM_THREADS=1 taskset -c 0 python scripts/cell_pass_sweep.py
"""

import argparse
import timeit
from unittest import mock

import numpy as np

from blockten import blocks, build_pattern, decomp, reconstruct, struct_assemble


def sweep_matrices(ell: int, m: int, n: int, rng) -> list[tuple[str, np.ndarray, object]]:
    """``(name, a, pattern)`` of the two test matrices, with random blocks."""
    out = []
    for name, pat in (("toeplitz", build_pattern("toeplitz", ell, ell, m, m)),
                      ("banded", build_pattern("banded", n, n, n, n, band=1))):
        out.append((name, struct_assemble(pat, rng.standard_normal((pat.p, pat.m, pat.n))), pat))
    return out


def best_ms(fn, repeats: int) -> tuple[float, object]:
    result = fn()  # warms up and returns what is compared across budgets
    return 1e3 * min(timeit.repeat(fn, number=1, repeat=repeats)), result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--toeplitz", type=int, nargs=2, default=(48, 48), metavar=("ELL", "M"),
                        help="block-grid extent and block size of the Toeplitz matrix")
    parser.add_argument("--banded", type=int, default=60, help="grid extent and block size n")
    parser.add_argument("--chunks", type=int, nargs="+", default=(12, 13, 14, 15, 16, 17, 18),
                        help="budgets to try, as powers of two of entries")
    parser.add_argument("--rank", type=int, default=8, help="Tucker ranks of the certified form")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"chunk: 2**{int(np.log2(blocks._CHUNK))} entries")
    print(f"{'matrix':>9} {'chunk':>6} {'cells':>6} {'extract_ms':>11} {'detect_ms':>10}"
          f" {'error_ms':>9}")
    for name, a, pat in sweep_matrices(*args.toeplitz, args.banded, rng):
        r = min(args.rank, pat.m, pat.p)
        rep = reconstruct.kron_sum_from_tucker(
            decomp.hosvd(blocks.mat_to_tensor(a, pat), (r, r, r)), pat)
        seen = None
        for power in args.chunks:
            with mock.patch.object(blocks, "_CHUNK", 2**power):
                (t_ext, reps), (t_det, (found, _)), (t_err, err) = (
                    best_ms(fn, args.repeats) for fn in (
                        lambda: blocks.extract_blocks(a, pat),
                        lambda: blocks.detect_pattern(a, pat.m, pat.n),
                        lambda: reconstruct.error_fro(a, rep)))
            if seen is None:
                seen = reps, found, err
            elif not (np.array_equal(reps, seen[0]) and found == seen[1]
                      and abs(err - seen[2]) <= 1e-12 * seen[2]):
                raise SystemExit(f"{name}: chunk 2**{power} changes a result")
            mark = "*" if 2**power == blocks._CHUNK else " "
            print(f"{name:>9} {mark}2**{power:<3} {max(1, 2**power // (pat.m * pat.n)):>6}"
                  f" {t_ext:>11.2f} {t_det:>10.2f} {t_err:>9.2f}")


if __name__ == "__main__":
    main()
