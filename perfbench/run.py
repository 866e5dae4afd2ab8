#!/usr/bin/env python3
"""Seeded benchmark of blockten's compress -> certify -> apply pipeline.

Usage, from the root of a checkout that holds ``src/blockten``:

    python3 perfbench/run.py --workload grid_mode2 --seed 1 --seconds 25 --trace 0

One run sets the workload up three times and times the import three times
(setup_s is the sum of the two medians), then runs closed-loop passes for
``--seconds`` seconds, each pass pinned to the next CPU in turn.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates traced and untraced passes, derives the per-layer metrics from
the spans of the traced ones, and reports the tracing overhead as the
difference between the two pass medians.  The last line of standard output
is one JSON object; ``perfbench/out/`` receives a result file with the
environment, every metric, the raw samples and, for traced runs, the spans.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, set before numpy loads: the steadiest setting on a
# small shared machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import ctypes  # noqa: E402


def _keep_heap() -> bool:
    """Have glibc malloc serve every block from a heap it never trims.

    By default each array above a few megabytes is mapped fresh and unmapped
    when freed, so every call pays first-touch page faults, whose cost on a
    virtual machine follows the host's memory load.  Reusing the process's
    own pages keeps that out of the timings.  Returns False off glibc.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    m_trim_threshold, m_mmap_max = -1, -4
    return bool(mallopt(m_mmap_max, 0)) and bool(mallopt(m_trim_threshold, 2**31 - 1))


HEAP_KEPT = _keep_heap()  # before numpy allocates anything

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("grid_mode2", "toeplitz_detect", "spacetime_spsd", "cli_session")
SETUP_REPEATS = 3
# What run.py imports before its first set-up, timed in a fresh interpreter.
IMPORT_PROBE = """\
import time
start = time.perf_counter()
import sys
sys.path[:0] = sys.argv[1:]
import argparse, glob, json, platform, shutil, statistics, tempfile, tracemalloc
import numpy, scipy, tracing, workloads
print(time.perf_counter() - start)
"""
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _tail(values, pct: int) -> tuple[float, int]:
    """The ``pct`` percentile and how many samples lie beyond it."""
    if not values:
        return 0.0, 0
    value = float(np.percentile(values, pct))
    return value, sum(v > value for v in values)


def _next_cpu(turn: int) -> None:
    """Pin this single-threaded process to the next usable CPU in turn.

    On a shared host one CPU can run slower than another for many seconds
    while a neighbour loads it; moving every pass spreads a run over all
    CPUs, so its fastest passes do not hang on which CPU it started on.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def _import_samples(first: float, src: Path) -> list[float]:
    """Import times: this process's ``first`` and those of fresh interpreters.

    Importing happens once per process, so the other samples come from
    ``SETUP_REPEATS - 1`` short-lived interpreters, each waited for.
    """
    samples = [first]
    for turn in range(1, SETUP_REPEATS):
        _next_cpu(turn)
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(HERE)],
                               capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(probe.stdout))
    return samples


def _environment(args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS) or None,
        "malloc_heap_kept": HEAP_KEPT,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def _blas_threads() -> int | None:
    """Threads OpenBLAS runs with, asked from the library numpy loaded."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _end_to_end(workload, rec, setup_s, peak_bytes) -> tuple[dict, dict]:
    """Bounded timings are each run's fastest sample and, for compress and
    matvec, its tail; medians are printed and saved beside them."""
    s = rec.samples
    metrics = {"setup_s": (setup_s, "s")}
    extra = {}
    for name in ("compress_ms", "certify_ms", "matvec_us", "roundtrip_ms"):
        unit = name.rpartition("_")[2]
        metrics[f"{name}_min"] = (min(s[name], default=0.0), unit)
        extra[f"{name}_median"] = _median(s[name])
        if name in workload.tail_percentiles:
            pct = workload.tail_percentiles[name]
            value, beyond = _tail(s[name], pct)
            metrics[f"{name}_tail"] = (value, unit)
            extra[f"{name}_tail_at"] = {"percentile": pct, "samples": len(s[name]),
                                     "beyond": beyond}
    metrics["peak_mb"] = (peak_bytes / 2**20, "MB")
    metrics["relerr"] = (_median(s["relerr"]), "ratio")
    metrics["storage_ratio"] = (workload.storage_ratio(rec), "ratio")
    for name in ("matvec_kron_us", "matvec_blr_us", "ref_dense_us",
                 "container_write_ms", "container_read_ms"):
        if s.get(name):
            extra[f"{name}_median"] = _median(s[name])
    return metrics, extra


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "blockten" / "__init__.py").is_file():
        print(f"error: no blockten sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import blockten

    if Path(blockten.__file__).resolve().parent != (src / "blockten").resolve():
        print(f"error: imported blockten from {blockten.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Recorder, attempt_pass, matvec_flops

    import_s = perf_counter() - T_START
    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        rec = Recorder()
        setups = []
        for turn in range(SETUP_REPEATS):  # inputs, files and one warm-up pass
            _next_cpu(turn)
            start = perf_counter()
            workload = cls(np.random.default_rng(args.seed), workdir)
            warm = Recorder()
            attempt_pass(workload, warm)
            rec.absorb(warm, "warmup")
            setups.append(perf_counter() - start)
        imports = _import_samples(import_s, src)
        setup_s = _median(imports) + _median(setups)

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:  # trace one more set-up: some calls happen only there
            patches = tracing.install(tracer)
            tracer.op = -1
            try:
                tracer.step("setup", cls, np.random.default_rng(args.seed), workdir)
            finally:
                tracing.uninstall(patches)

        walls = {True: [], False: []}
        deadline = perf_counter() + args.seconds
        passes = 0
        while True:
            traced = tracer is not None and passes % 2 == 0
            _next_cpu(passes // 2)  # a traced and an untraced pass share a CPU
            start = perf_counter()
            if traced:
                patches = tracing.install(tracer)
                tracer.op = passes
            rec.tracer = tracer if traced else None
            try:
                attempt_pass(workload, rec)
            finally:
                if traced:
                    tracing.uninstall(patches)
            walls[traced].append(perf_counter() - start)
            passes += 1
            if perf_counter() >= deadline and (tracer is None or walls[False]):
                break
        rec.tracer = None

        if tracer is None:
            probe = Recorder()
            tracemalloc.start()
            attempt_pass(workload, probe)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rec.absorb(probe, "peak")
            metrics, extra = _end_to_end(workload, rec, setup_s, peak)
        else:
            metrics = tracing.layer_metrics(tracer)
            shape = workload.shape_metrics()
            for name in ("blocks.cell_fill_ratio", "reconstruct.certify_entries_ratio"):
                metrics[name] = (shape.get(name, 0.0), "ratio")
            metrics["reconstruct.matvec_flops"] = (matvec_flops(workload), "flop")
            traced_s, plain_s = _median(walls[True]), _median(walls[False])
            metrics["trace.overhead_ms"] = (1e3 * (traced_s - plain_s), "ms")
            metrics["trace.overhead_pct"] = (100 * (traced_s - plain_s) / plain_s, "%")
            extra = {"traced_pass_ms": 1e3 * traced_s, "untraced_pass_ms": 1e3 * plain_s}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(args)
    extra.update(passes=passes, setup_repeats_s=setups, import_repeats_s=imports,
                 fail_ratio=rec.failed / rec.attempted, failures=dict(rec.failures))
    record = {"environment": env, "metrics": {k: {"value": v, "unit": u}
                                              for k, (v, u) in metrics.items()},
              "details": extra, "samples": dict(rec.samples)}
    if tracer is not None:
        t0 = min((sp.start for sp in tracer.spans), default=0.0)
        record["spans"] = [[sp.name, sp.layer, sp.start - t0, sp.end - t0, sp.parent,
                            sp.op, sp.error] for sp in tracer.spans]
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for key in ("workload", "seed", "thread_env", "blas_threads", "nproc", "python",
                "numpy", "scipy", "blas"):
        print(f"env.{key}: {env[key]}")
    for key, value in extra.items():
        print(f"{key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"{key}: {value!r} {unit}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
