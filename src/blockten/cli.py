"""Command-line surface: analyze / compress / reconstruct / matvec / report.

The pipeline behind ``compress`` is: resolve the block pattern (detected, or
named via ``--pattern``), map the matrix to its weighted tensor, factor it
(HOSVD, single-mode Tucker, CP, or the definiteness-preserving paths), and
serialize the structured representation to a container file.

Every reported quantity is printed as a ``key: value`` line so runs are
machine-parsable.  Exit codes: 0 success, 2 parse/format errors (bad flags,
malformed files, unsupported container versions), 3 dimension/extent errors,
4 numerical failures.  Messages go to standard error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from .apps import report_metrics
from .blocks import blocks_to_tensor, build_pattern, detect_pattern, extract_blocks
from .container import container_read, container_write
from .decomp import (
    TuckerRep,
    cp_als,
    hosvd,
    randomized_mode_basis,
    tail_rank,
    tucker_partial,
)
from .errors import (
    ContainerExtentError,
    ContainerFormatError,
    ConvergenceError,
    NotPositiveDefiniteError,
    PatternMismatchError,
    ShapeError,
)
from .fileio import read_matrix, read_vector, write_matrix, write_vector
from .psd import spd_compress_blocks, spsd_compress_blocks
from .reconstruct import (
    blr_from_kruskal,
    blr_from_tucker,
    kron_sum_from_kruskal,
    kron_sum_from_tucker,
)
from .tensor import fro_norm, unfold

__all__ = ["main"]

_PATTERN_CHOICES = ("auto", "banded", "toeplitz", "hankel", "diagonal")
_METHOD_CHOICES = ("hosvd", "cp", "mode2", "spsd", "spd")


class _UsageError(Exception):
    """Flag combinations argparse cannot express; reported like parse errors."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockten",
        description="Compress structured block matrices through their weighted tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pattern_flags(p):
        p.add_argument("--block-rows", type=int, required=True, metavar="M",
                       help="rows of one block")
        p.add_argument("--block-cols", type=int, required=True, metavar="N",
                       help="columns of one block")
        p.add_argument("--pattern", choices=_PATTERN_CHOICES, default="auto",
                       help="block pattern; 'auto' groups equal blocks greedily")
        p.add_argument("--band", type=int, default=None,
                       help="semibandwidth for --pattern banded/toeplitz")
        p.add_argument("--symmetric", action="store_true",
                       help="share classes across the diagonal (banded/toeplitz)")
        p.add_argument("--detect-tol", type=float, default=0.0, metavar="T",
                       help="entrywise tolerance when matching blocks")

    an = sub.add_parser("analyze", help="report structure and singular-value decay")
    an.add_argument("input", help="Matrix Market file")
    add_pattern_flags(an)
    an.add_argument("--machine", action="store_true",
                    help="full singular values as TSV rows")
    an.set_defaults(func=_cmd_analyze)

    co = sub.add_parser("compress", help="factor the matrix and write a container")
    co.add_argument("input", help="Matrix Market file")
    co.add_argument("-o", "--output-file", required=True, metavar="OUT.btc")
    add_pattern_flags(co)
    co.add_argument("--method", choices=_METHOD_CHOICES, required=True)
    ranksel = co.add_mutually_exclusive_group(required=True)
    ranksel.add_argument("--ranks", metavar="R1,R2,R3",
                         help="per-mode Tucker ranks (hosvd only)")
    ranksel.add_argument("--rank", type=int, metavar="R",
                         help="single rank: every compressed mode (clipped to "
                              "its extent), the CP rank, or the shared basis rank")
    ranksel.add_argument("--tol", type=float, metavar="EPS",
                         help="pick smallest ranks with relative error budget EPS "
                              "split evenly across compressed modes")
    co.add_argument("--output", choices=("kron_sum", "blr"), default="kron_sum",
                    help="structured output format")
    co.add_argument("--split", choices=("factor", "qr"), default=None,
                    help="how CP components map to Kronecker terms "
                         "(--method cp --output kron_sum only; default factor)")
    co.add_argument("--randomized", action="store_true",
                    help="sketched range finder instead of exact SVD (hosvd/mode2)")
    co.add_argument("--sketch", type=int, default=None, metavar="S",
                    help="Gaussian sketch size (default rank + 5)")
    co.add_argument("--seed", type=int, default=0,
                    help="seed for the sketch stream (recorded in the container)")
    co.set_defaults(func=_cmd_compress)

    re = sub.add_parser("reconstruct", help="container back to Matrix Market")
    re.add_argument("input", help="container file")
    re.add_argument("-o", "--output-file", required=True, metavar="OUT.mtx")
    re.set_defaults(func=_cmd_reconstruct)

    mv = sub.add_parser("matvec", help="multiply a container by a vector file")
    mv.add_argument("input", help="container file")
    mv.add_argument("vector", help="one decimal per line")
    mv.add_argument("-o", "--output-file", required=True, metavar="OUT.txt")
    mv.set_defaults(func=_cmd_matvec)

    rp = sub.add_parser("report", help="metrics for an existing container")
    rp.add_argument("input", help="container file")
    rp.add_argument("--matrix", default=None,
                    help="original Matrix Market file for error metrics")
    rp.set_defaults(func=_cmd_report)
    return parser


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _resolve_pattern(a, args):
    """``(pattern, blocks)``: a detected pattern comes with the blocks its
    detection verified, a named one with ``None``."""
    m, n = args.block_rows, args.block_cols
    if m < 1 or n < 1:
        raise _UsageError("block extents must be positive")
    _check_tolerance("--detect-tol", args.detect_tol)
    if args.pattern not in ("banded", "toeplitz") and (args.band is not None or args.symmetric):
        raise _UsageError("--band and --symmetric apply to --pattern banded/toeplitz only")
    if args.pattern == "banded" and args.band is None:
        raise _UsageError("--pattern banded needs --band")
    if args.pattern == "auto":
        return detect_pattern(a, m, n, tol=args.detect_tol)
    if a.shape[0] % m or a.shape[1] % n:
        raise ShapeError(f"matrix {a.shape} is not tiled by {m} x {n} blocks")
    return build_pattern(
        args.pattern, a.shape[0] // m, a.shape[1] // n, m, n,
        band=args.band, block_symmetric=args.symmetric,
    ), None


def _blocks(a, pattern, blocks, args):
    """The verified blocks of ``a``: the detected ones, or extracted now."""
    return blocks if blocks is not None else extract_blocks(a, pattern, tol=args.detect_tol)


def _check_tolerance(flag: str, value: float) -> None:
    if not (np.isfinite(value) and value >= 0):
        raise _UsageError(f"{flag} must be a finite number >= 0, got {value!r}")


def _mode_singular_values(t, modes=(1, 2, 3)) -> dict[int, np.ndarray]:
    """Exact singular values of the unfolding of each mode in ``modes``."""
    return {k: np.linalg.svd(unfold(t, k), compute_uv=False) for k in modes}


def _randomized_tucker(t, modes, ranks, sketch, seed) -> TuckerRep:
    factors: list[np.ndarray | None] = [None, None, None]
    for mode, r in zip(modes, ranks):
        factors[mode - 1] = randomized_mode_basis(t, mode, r, sketch, seed + mode)
    return TuckerRep.project(t, factors)


def _tucker_for(args, t):
    modes = (1, 2, 3) if args.method == "hosvd" else (2,)
    budget = None
    if args.ranks is not None:
        if args.method != "hosvd":
            raise _UsageError("--ranks applies to --method hosvd only")
        try:
            parts = [int(tok) for tok in args.ranks.split(",")]
        except ValueError as exc:
            raise _UsageError(f"bad --ranks value {args.ranks!r}") from exc
        if len(parts) != 3:
            raise _UsageError("--ranks needs exactly three integers")
        ranks = parts
    elif args.rank is not None:
        ranks = [min(args.rank, t.shape[m - 1]) for m in modes]
    else:
        # each mode's tail gets an equal share of the squared budget
        # (eps * ||T||_F)^2, passed as a norm; ||T|| = ||A|| for a
        # conforming matrix
        budget = args.tol * fro_norm(t) / np.sqrt(len(modes))
        if args.randomized:
            sv = _mode_singular_values(t, modes)
            ranks = [tail_rank(sv[k], budget) for k in modes]
        else:
            # the extents are caps: the budget picks each rank from the
            # spectrum of the factorisation that also yields the basis
            ranks = [t.shape[k - 1] for k in modes]

    if args.randomized:
        sketch = args.sketch if args.sketch is not None else max(ranks) + 5
        tk = _randomized_tucker(t, modes, ranks, sketch, args.seed)
    elif args.method == "hosvd":
        tk = hosvd(t, list(ranks), tail_budget=budget)
    else:
        tk = tucker_partial(t, [None, ranks[0], None], tail_budget=budget)
    return tk, [tk.ranks[k - 1] for k in modes]


def _print_metrics(metrics: dict) -> None:
    for key in sorted(metrics):
        print(f"{key}: {float(metrics[key])!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    a = read_matrix(args.input)
    pattern, blocks = _resolve_pattern(a, args)
    print(f"structure_class: {pattern.structure_class}")
    print(f"grid: {pattern.ell} x {pattern.q}")
    print(f"block: {pattern.m} x {pattern.n}")
    print(f"classes: {pattern.p}")
    hist = Counter(pattern.counts)
    print("eta_histogram: " + " ".join(
        f"{eta}x{freq}" for eta, freq in sorted(hist.items(), reverse=True)))
    t = blocks_to_tensor(pattern, _blocks(a, pattern, blocks, args))
    sv_modes = _mode_singular_values(t)
    if args.machine:
        print("mode\tindex\tsingular_value")
        for mode, sv in sv_modes.items():
            for idx, val in enumerate(sv, start=1):
                print(f"{mode}\t{idx}\t{float(val)!r}")
    else:
        for mode, sv in sv_modes.items():
            head = " ".join(f"{v:.6e}" for v in sv[:8])
            print(f"mode{mode}_sv: {head}" + (" ..." if len(sv) > 8 else ""))
    return 0


def _cmd_compress(args) -> int:
    a = read_matrix(args.input)
    pattern, blocks = _resolve_pattern(a, args)
    if args.randomized and args.method not in ("hosvd", "mode2"):
        raise _UsageError("--randomized applies to --method hosvd/mode2 only")
    if args.split is not None and (args.method != "cp" or args.output != "kron_sum"):
        raise _UsageError("--split applies to --method cp --output kron_sum only")
    if args.rank is not None and args.rank < 1:
        raise _UsageError("--rank must be positive")
    if args.tol is not None:
        _check_tolerance("--tol", args.tol)
    if args.sketch is not None and args.sketch < 1:
        raise _UsageError(f"--sketch must be positive, got {args.sketch}")

    if args.method in ("hosvd", "mode2"):
        t = blocks_to_tensor(pattern, _blocks(a, pattern, blocks, args))
        tk, ranks = _tucker_for(args, t)
        rep = (kron_sum_from_tucker(tk, pattern) if args.output == "kron_sum"
               else blr_from_tucker(tk, pattern))
    elif args.method == "cp":
        if args.rank is None:
            raise _UsageError("--method cp needs --rank")
        t = blocks_to_tensor(pattern, _blocks(a, pattern, blocks, args))
        result = cp_als(t, args.rank)
        ranks = [args.rank]
        print(f"cp_fit: {result.fit!r}")
        print(f"cp_iterations: {result.n_iters}")
        print(f"cp_converged: {result.converged}")
        rep = (kron_sum_from_kruskal(result.rep, pattern, split=args.split or "factor")
               if args.output == "kron_sum"
               else blr_from_kruskal(result.rep, pattern))
    else:  # spsd / spd
        if args.rank is None:
            raise _UsageError(f"--method {args.method} needs --rank")
        ranks = [args.rank]
        compress = spsd_compress_blocks if args.method == "spsd" else spd_compress_blocks
        rep = compress(pattern, _blocks(a, pattern, blocks, args), args.rank)

    container_write(args.output_file, rep, seed=args.seed, ranks=ranks)
    print(f"kind: {type(rep).__name__}")
    print(f"method: {args.method}")
    print("ranks: " + ",".join(str(r) for r in ranks))
    if rep.n_terms is not None:
        print(f"terms: {rep.n_terms}")
    _print_metrics(report_metrics(a, rep))
    return 0


def _cmd_reconstruct(args) -> int:
    rep = container_read(args.input)
    write_matrix(args.output_file, rep.densify())
    print(f"wrote: {args.output_file}")
    return 0


def _cmd_matvec(args) -> int:
    rep = container_read(args.input)
    x = read_vector(args.vector)
    write_vector(args.output_file, rep.matvec(x))
    print(f"wrote: {args.output_file}")
    return 0


def _cmd_report(args) -> int:
    rep = container_read(args.input)
    print(f"kind: {type(rep).__name__}")
    rows, cols = rep.shape
    print(f"shape: {rows} x {cols}")
    for key, value in (("terms", rep.n_terms), ("rank", rep.rank)):
        if value is not None:
            print(f"{key}: {value}")
    matrix = read_matrix(args.matrix) if args.matrix is not None else None
    _print_metrics(report_metrics(matrix, rep))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        return args.func(args)
    except (_UsageError, ContainerFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ShapeError, PatternMismatchError, ContainerExtentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotPositiveDefiniteError, ConvergenceError, FloatingPointError,
            ZeroDivisionError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
