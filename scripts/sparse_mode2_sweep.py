#!/usr/bin/env python3
"""Mode-2 compression of a sparse grid operator from its coordinate file.

The operator is the variable-coefficient 9-point grid operator of the
benchmark's ``grid_mode2`` workload (``n^2 x n^2``; an ``n x n`` tridiagonal
grid of ``n x n`` blocks, one class per cell, mode-2 rank 6), assembled
directly as CSR, never densely, and written as a coordinate ``.mtx``.  Each
size runs in a fresh interpreter, which times, in process, one

    blockten compress A.mtx --method mode2 --pattern banded --band 1 --rank 6

(``--pattern auto`` detects the pattern instead of naming it), from the read of
the file to the write of the container, and prints:

* ``compress_s`` -- its wall time, and ``max_rss_mb`` the process's own
  maximum resident set size after it (the matrix and the file included);
* ``relerr_fro`` -- the error the command certifies;
* ``csr_us`` and ``form_us`` -- the best of ``--repeats`` products
  ``A @ x`` with the CSR matrix and with the Kronecker form read back from
  the container, and ``product_relerr`` their relative difference.

The default size keeps the run short; ``--sizes 200,400`` gives the large
cases.  For figures comparable with the benchmark, run with one BLAS thread
pinned to one CPU:

    OPENBLAS_NUM_THREADS=1 taskset -c 0 python scripts/sparse_mode2_sweep.py
"""

import argparse
import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import time
import timeit

import numpy as np
import scipy.sparse

from blockten import cli, container, fileio


def grid_operator_csr(n: int, rng: np.random.Generator) -> scipy.sparse.csr_matrix:
    """The ``grid_mode2`` operator as CSR: block row ``i`` of the stencil blocks scaled row by
    row by ``kappa(., y_i)``, a separable sum of two products (coefficients jittered by
    ``rng``)."""
    x = np.arange(1, n + 1) / (n + 1)
    c1, c2 = (v * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0)) for v in (0.5, 0.8))
    kappa = np.outer(1 + c1 * x**2, 1 + 0.5 * x) + np.outer(c2 * np.cos(2 * np.pi * x),
                                                            np.cos(np.pi * x))
    eye, up, down = (scipy.sparse.eye(n, k=k, format="csr") for k in (0, 1, -1))
    stencil = (scipy.sparse.kron(eye, 8 * eye - up - down)             # diagonal blocks
               + scipy.sparse.kron(up, -(eye + 0.5 * up + down))       # upper blocks
               + scipy.sparse.kron(down, -(0.5 * eye + 0.25 * up + down)))  # lower blocks
    return (scipy.sparse.diags(kappa.ravel()) @ stencil).tocsr()


def run(n: int, rank: int, repeats: int, seed: int, pattern: str) -> None:
    a = grid_operator_csr(n, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        matrix, form = os.path.join(tmp, "A.mtx"), os.path.join(tmp, "A.btc")
        fileio.write_matrix(matrix, a)
        out = io.StringIO()
        t0 = time.perf_counter()
        named = ["--band", "1"] if pattern == "banded" else []
        with contextlib.redirect_stdout(out):
            code = cli.main(["compress", matrix, "-o", form, "--block-rows", str(n),
                             "--block-cols", str(n), "--method", "mode2", "--pattern", pattern,
                             *named, "--rank", str(rank)])
        seconds = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if code:
            print(f"{n:>5} {a.nnz:>9}  compress exited {code}")
            return
        printed = dict(line.split(": ", 1) for line in out.getvalue().splitlines())
        rep = container.container_read(form)
    x = np.random.default_rng(seed + 1).standard_normal(a.shape[1])
    y_csr, y_form = a @ x, rep.matvec(x)
    csr_us, form_us = (1e6 * min(timeit.repeat(lambda: fn(x), number=1, repeat=repeats))
                       for fn in (a.__matmul__, rep.matvec))
    gap = np.linalg.norm(y_form - y_csr) / np.linalg.norm(y_csr)
    relerr = float(printed["relerr_fro"])
    print(f"{n:>5} {a.nnz:>9} {seconds:>11.3f} {rss_mb:>11.1f} {relerr:>11.2e}"
          f" {csr_us:>9.0f} {form_us:>9.0f} {gap:>15.2e}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="100", help="comma-separated grid sizes n")
    parser.add_argument("--rank", type=int, default=6, help="the mode-2 rank")
    parser.add_argument("--repeats", type=int, default=20, help="products timed per size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pattern", choices=("banded", "auto"), default="banded",
                        help="name the banded pattern, or detect it")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",")]
    if args.child:
        run(sizes[0], args.rank, args.repeats, args.seed, args.pattern)
        return
    print(f"{'n':>5} {'nnz':>9} {'compress_s':>11} {'max_rss_mb':>11} {'relerr_fro':>11}"
          f" {'csr_us':>9} {'form_us':>9} {'product_relerr':>15}", flush=True)
    for n in sizes:  # a fresh interpreter each, so the maximum RSS is that size's own
        subprocess.run([sys.executable, __file__, "--child", "--sizes", str(n),
                        "--rank", str(args.rank), "--repeats", str(args.repeats),
                        "--seed", str(args.seed), "--pattern", args.pattern], check=True)


if __name__ == "__main__":
    main()
