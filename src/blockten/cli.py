"""Command-line surface: analyze / compress / reconstruct / matvec / report.

The pipeline behind ``compress`` is: resolve the block pattern (detected, or
named via ``--pattern``) and the blocks it verifies, map them to the weighted
tensor, factor it (HOSVD, CP, or the definiteness-preserving paths; an exact
mode2 factors the verified mode-2 rows on their support instead, with no tensor),
and serialize the structured representation to a container file.

Flags check their values as they are parsed, and ``_check_flags`` refuses every
combination a command does not take, before any input is read.  Every reported
quantity is printed as a ``key: value`` line so runs are machine-parsable.
Exit codes: 0 success, 2 usage and parse/format errors (bad flags, malformed
files, unsupported container versions), 3 dimension/extent errors, 4 numerical
failures (a ``matvec`` product beyond the float range among them).  Messages
go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter

import numpy as np

from .apps import report_metrics
from .blocks import (blocks_to_rows, blocks_to_tensor, build_pattern, detect_pattern,
                     extract_blocks, extract_rows)
from .container import container_read, container_write
from .decomp import TuckerRep, cp_als, hosvd, mode2_tucker, randomized_mode_basis
from .errors import (
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
from .tensor import fro_norm, scale_exponent, unfold

__all__ = ["main"]

# the exit code of every error a command reports, found along the error's class hierarchy
_EXIT_CODES = {ContainerFormatError: 2, OSError: 2, ShapeError: 3, PatternMismatchError: 3,
               NotPositiveDefiniteError: 4, ConvergenceError: 4, FloatingPointError: 4,
               ZeroDivisionError: 4, np.linalg.LinAlgError: 4}

_PATTERN_CHOICES = ("auto", "banded", "toeplitz", "hankel", "diagonal")
# the compress flags each method takes besides --rank
_METHOD_FLAGS = {
    "hosvd": ("ranks", "tol", "output", "randomized", "sketch", "seed"),
    "cp": ("output",),
    "mode2": ("tol", "output", "randomized", "sketch", "seed"),
    "spsd": (),
    "spd": (),
}


def _flag_type(convert, ok, expected: str):
    """An argparse ``type=``: ``convert`` the text, then refuse a value
    failing ``ok`` as not ``expected``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_positive_int = _flag_type(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _flag_type(int, lambda v: v >= 0, "an integer >= 0")
_tolerance = _flag_type(float, lambda v: np.isfinite(v) and v >= 0, "a finite number >= 0")
_three_ints = _flag_type(lambda text: [int(tok) for tok in text.split(",")],
                         lambda v: len(v) == 3 and min(v) > 0, "three positive integers")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockten",
        description="Compress structured block matrices through their weighted tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pattern_flags(p):
        p.add_argument("--block-rows", type=_positive_int, required=True, metavar="M",
                       help="rows of one block")
        p.add_argument("--block-cols", type=_positive_int, required=True, metavar="N",
                       help="columns of one block")
        p.add_argument("--pattern", choices=_PATTERN_CHOICES, default="auto",
                       help="block pattern; 'auto' groups equal blocks greedily")
        p.add_argument("--band", type=_nonnegative_int, default=None,
                       help="semibandwidth for --pattern banded/toeplitz")
        p.add_argument("--symmetric", action="store_true",
                       help="share classes across the diagonal (banded/toeplitz)")
        p.add_argument("--detect-tol", type=_tolerance, default=0.0, metavar="T",
                       help="entrywise tolerance when matching blocks")

    an = sub.add_parser("analyze", help="report structure and singular-value decay")
    an.add_argument("input", help="Matrix Market file")
    add_pattern_flags(an)
    an.add_argument("--machine", action="store_true",
                    help="full singular values as TSV rows")
    an.set_defaults(func=_cmd_analyze, parser=an)

    co = sub.add_parser("compress", help="factor the matrix and write a container")
    co.add_argument("input", help="Matrix Market file")
    co.add_argument("-o", "--output-file", required=True, metavar="OUT.btc")
    add_pattern_flags(co)
    co.add_argument("--method", choices=tuple(_METHOD_FLAGS), required=True)
    ranksel = co.add_mutually_exclusive_group(required=True)
    ranksel.add_argument("--ranks", type=_three_ints, metavar="R1,R2,R3",
                         help="per-mode Tucker ranks (hosvd only)")
    ranksel.add_argument("--rank", type=_positive_int, metavar="R",
                         help="single rank: every compressed mode (clipped to "
                              "its extent), the CP rank, or the shared basis rank")
    ranksel.add_argument("--tol", type=_tolerance, metavar="EPS",
                         help="pick smallest ranks with relative error budget EPS "
                              "split evenly across compressed modes (hosvd/mode2)")
    co.add_argument("--output", choices=("kron_sum", "blr"), default=None,
                    help="structured output format (hosvd/mode2/cp; default kron_sum)")
    co.add_argument("--randomized", action="store_true", default=None,
                    help="sketched range finder instead of exact SVD (hosvd/mode2, no --tol)")
    co.add_argument("--sketch", type=_positive_int, default=None, metavar="S",
                    help="Gaussian sketch size (--randomized only; default rank + 5)")
    co.add_argument("--seed", type=_nonnegative_int, default=None,
                    help="seed for the sketch stream (--randomized only; default 0; recorded)")
    co.set_defaults(func=_cmd_compress, parser=co)

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


def _check_flags(parser: argparse.ArgumentParser, args) -> None:
    """Refuse every flag combination the command does not take, through
    ``parser.error`` (exit 2); flag values were checked while parsing."""
    if "pattern" in args:
        if args.pattern not in ("banded", "toeplitz") and (args.band is not None or args.symmetric):
            parser.error("--band and --symmetric apply to --pattern banded/toeplitz only")
        if args.pattern == "banded" and args.band is None:
            parser.error("--pattern banded needs --band")
    if args.command != "compress":
        return
    for flag in ("ranks", "tol", "output", "randomized", "sketch", "seed"):
        if getattr(args, flag) is not None and flag not in _METHOD_FLAGS[args.method]:
            parser.error(f"--{flag} does not apply to --method {args.method}")
    for flag in ("sketch", "seed"):
        if getattr(args, flag) is not None and not args.randomized:
            parser.error(f"--{flag} needs --randomized")
    if args.randomized and args.tol is not None:
        parser.error("--randomized takes --rank or --ranks, not --tol")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _resolve_pattern(a, args, rows: bool = False):
    """``(pattern, blocks)``: the pattern of ``a``, detected or named by ``--pattern``, and the
    blocks verified against it within ``--detect-tol``; with ``rows``, their ``(support, rows)``
    (:func:`extract_rows`: under a named pattern, a coordinate file's entries give them)."""
    m, n = args.block_rows, args.block_cols
    if args.pattern == "auto":
        pattern, blocks = detect_pattern(a, m, n, tol=args.detect_tol)
        return pattern, blocks_to_rows(pattern, blocks) if rows else blocks
    if a.shape[0] % m or a.shape[1] % n:
        raise ShapeError(f"matrix {a.shape} is not tiled by {m} x {n} blocks")
    pattern = build_pattern(
        args.pattern, a.shape[0] // m, a.shape[1] // n, m, n,
        band=args.band, block_symmetric=args.symmetric,
    )
    return pattern, (extract_rows if rows else extract_blocks)(a, pattern, tol=args.detect_tol)


def _tucker_for(args, pattern, held, rows: bool):
    """The Tucker factorization the flags ask for, and the ranks of its compressed modes (all
    three for hosvd, mode 2 for mode2): with ``rows`` (an exact mode2), of the mode-2 rows
    ``held`` on their support (:func:`mode2_tucker`, no tensor), else of the tensor of the
    blocks ``held``."""
    if rows:
        tk = mode2_tucker(*held, pattern.m, pattern.n, min(args.rank or pattern.p, pattern.p),
                          None if args.tol is None else args.tol * fro_norm(held[1]))
        return tk, [tk.ranks[1]]
    t = blocks_to_tensor(pattern, held)
    modes = (1, 2, 3) if args.method == "hosvd" else (2,)
    # --rank is clipped to each extent; under --tol the extents are caps, and
    # the budget picks each rank from the spectrum that also yields the basis
    caps = args.ranks or [min(args.rank or t.shape[k - 1], t.shape[k - 1]) for k in modes]
    if args.randomized:
        sketch = args.sketch or max(caps) + 5
        bases = {k: randomized_mode_basis(t, k, r, sketch, (args.seed or 0) + k)
                 for k, r in zip(modes, caps)}
        tk = TuckerRep.project(t, [bases.get(k) for k in (1, 2, 3)])
    else:
        # each mode's tail gets an equal share of the squared budget
        # (eps * ||T||_F)^2, passed as a norm; ||T|| = ||A|| for a conforming matrix
        budget = None if args.tol is None else args.tol * fro_norm(t) / np.sqrt(len(modes))
        tk = hosvd(t, caps, tail_budget=budget)
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
    t = blocks_to_tensor(pattern, blocks)
    sv_modes = {k: np.linalg.svd(unfold(t, k), compute_uv=False) for k in (1, 2, 3)}
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
    """Factor the matrix, write the container and print its certificate: from the verified
    blocks or mode-2 rows (the matrix only for its trace), unless ``--detect-tol`` is positive."""
    a = read_matrix(args.input)
    rows = args.method == "mode2" and not args.randomized  # the route with no tensor
    pattern, held = _resolve_pattern(a, args, rows)
    if args.method in ("hosvd", "mode2"):
        tk, ranks = _tucker_for(args, pattern, held, rows)
        rep = (blr_from_tucker(tk, pattern) if args.output == "blr"
               else kron_sum_from_tucker(tk, pattern))
    elif args.method == "cp":
        result = cp_als(blocks_to_tensor(pattern, held), args.rank)
        ranks = [args.rank]
        print(f"cp_fit: {result.fit!r}")
        print(f"cp_iterations: {result.n_iters}")
        print(f"cp_converged: {result.converged}")
        rep = (blr_from_kruskal(result.rep, pattern) if args.output == "blr"
               else kron_sum_from_kruskal(result.rep, pattern))
    else:  # spsd / spd; the rank is the form's (0 when nothing is left to project)
        compress = spsd_compress_blocks if args.method == "spsd" else spd_compress_blocks
        rep = compress(pattern, held, args.rank)
        ranks = [rep.rank]

    seed = (args.seed or 0) if args.randomized else None  # recorded for a sketched basis only
    container_write(args.output_file, rep, seed=seed, ranks=ranks)
    print(f"kind: {type(rep).__name__}")
    print(f"method: {args.method}")
    print("ranks: " + ",".join(str(r) for r in ranks))
    if hasattr(rep, "n_terms"):
        print(f"terms: {rep.n_terms}")
    source = (pattern, held[1], tk.factors[1]) if rows else (pattern, held)
    _print_metrics(report_metrics(a if args.detect_tol else source, rep,
                                  trace_ref=float(a.diagonal().sum())))
    return 0


def _cmd_reconstruct(args) -> int:
    rep = container_read(args.input)
    write_matrix(args.output_file, rep.densify())
    print(f"wrote: {args.output_file}")
    return 0


def _cmd_matvec(args) -> int:
    rep = container_read(args.input)
    x = read_vector(args.vector)
    with np.errstate(over="ignore", invalid="ignore"):
        y = rep.matvec(x)
        if not np.isfinite(y).all():
            # the product or a partial sum overflowed: redo it on x scaled
            # down exactly by a power of two, to a 1-norm below one
            e = scale_exponent(x) + x.size.bit_length()
            y = np.ldexp(rep.matvec(np.ldexp(x, -e)), e)
    if not np.isfinite(y).all():
        raise FloatingPointError("the product leaves the float range")
    write_vector(args.output_file, y)
    print(f"wrote: {args.output_file}")
    return 0


def _cmd_report(args) -> int:
    rep = container_read(args.input)
    print(f"kind: {type(rep).__name__}")
    rows, cols = rep.shape
    print(f"shape: {rows} x {cols}")
    for key, member in (("terms", "n_terms"), ("rank", "rank")):
        if hasattr(rep, member):
            print(f"{key}: {getattr(rep, member)}")
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
        _check_flags(getattr(args, "parser", parser), args)  # the subcommand's usage line
    except SystemExit as exc:  # argparse prints its own message
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
