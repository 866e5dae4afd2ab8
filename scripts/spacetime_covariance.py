#!/usr/bin/env python3
"""Shared-basis compression of a separable space-time covariance matrix.

Points sit on a uniform 2-D grid, times are equispaced, and the kernel is
exp(-(r/90)^2 - (tau/0.5)^2), so the NT x NT covariance is symmetric
block-Toeplitz with T distinct N x N blocks.  The sweep reports the trace
error of the rank-r projection, the storage ratio, and whether the nugget-
shifted approximation still admits a Cholesky factorization.  The full
matrix is never materialized: only the T distinct blocks are formed.
"""

import argparse

import numpy as np
import scipy.linalg

from blockten import (
    KernelConfig,
    report_metrics,
    spacetime_build,
    spsd_compress_blocks,
    struct_assemble,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=20, help="points per side")
    parser.add_argument("--spacing", type=float, default=10.0)
    parser.add_argument("--times", type=int, default=30)
    parser.add_argument("--dt", type=float, default=0.1)
    parser.add_argument("--ranks", type=int, nargs="+", default=[5, 10, 20, 30])
    parser.add_argument("--cholesky", action="store_true",
                        help="densify the approximation and factor it "
                             "(memory: (N T)^2 doubles)")
    args = parser.parse_args()

    xs = np.arange(args.grid) * args.spacing
    points = np.array([(x, y) for x in xs for y in xs])
    times = np.arange(args.times) * args.dt
    pattern, blocks = spacetime_build(points, times)
    n, t = len(points), len(times)
    print(f"N = {n} points, T = {t} steps, {pattern.p} distinct blocks")
    print(f"{'rank':>4}  {'relerr_trace':>12}  {'storage':>9}  {'cholesky':>8}")
    for r in args.ranks:
        rep = spsd_compress_blocks(pattern, blocks, r)
        metrics = report_metrics(pattern, rep, trace_ref=float(n * t))
        status = "-"
        if args.cholesky:
            # struct_assemble, not rep.densify(): the default 12000^2
            # matrix is above densify's size cap
            chat = struct_assemble(*rep.cell_blocks())
            chat[np.diag_indices_from(chat)] += KernelConfig().nugget
            try:
                scipy.linalg.cholesky(chat, lower=True, overwrite_a=True,
                                      check_finite=False)
                status = "ok"
            except np.linalg.LinAlgError:
                status = "FAILED"
        print(f"{r:>4}  {metrics['relerr_trace']:>12.3e}  "
              f"{metrics['storage_ratio']:>9.6f}  {status:>8}")


if __name__ == "__main__":
    main()
