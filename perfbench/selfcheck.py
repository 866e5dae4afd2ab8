#!/usr/bin/env python3
"""Self-check of the benchmark against its own ``BENCHMARK.json``.

Usage, from the root of the checkout:

    python3 perfbench/selfcheck.py [--seconds 2]

For every workload and both trace settings it runs ``perfbench/run.py``
briefly and checks the last output line: the four result keys, every
declared metric present with its declared unit and nothing else, finite
values, end-to-end values above zero, no failed operation, and a nonzero
value for each per-layer metric on the workloads that exercise its layer.
It then copies ``BENCHMARK.json`` and ``perfbench/`` into an empty
directory and checks that the benchmark refuses to run there.
Exits 1 on the first violation.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per-layer metric prefix -> workloads on which it must be nonzero
EXERCISED = {
    "blocks.mat_to_tensor_ms": ("grid_mode2", "toeplitz_detect"),
    "blocks.detect_pattern_ms": ("toeplitz_detect", "cli_session"),
    "blocks.build_pattern_ms": ("grid_mode2",),
    "tensor.unfold_ms": ("grid_mode2", "toeplitz_detect"),
    "tensor.mode_multiply_ms": ("grid_mode2", "toeplitz_detect"),
    "decomp.tucker_partial_ms": ("grid_mode2", "cli_session"),
    "decomp.hosvd_ms": ("toeplitz_detect", "cli_session"),
    "decomp.cp_als_ms": ("toeplitz_detect",),
    "decomp.cp_als.sweeps": ("toeplitz_detect",),
    "decomp.basis_kept_ratio": ("grid_mode2", "toeplitz_detect", "spacetime_spsd"),
    "psd.spsd_compress_blocks_ms": ("spacetime_spsd",),
    "psd.check_transpose_closed_ms": ("spacetime_spsd",),
    "reconstruct.kron_sum_from_tucker_ms": ("grid_mode2", "toeplitz_detect"),
    "reconstruct.blr_from_tucker_ms": ("grid_mode2", "toeplitz_detect"),
    "reconstruct.error_fro_ms": ("grid_mode2", "toeplitz_detect", "cli_session"),
    "reconstruct.matvec_kron_us": ("grid_mode2", "toeplitz_detect"),
    "reconstruct.matvec_blr_us": ("grid_mode2", "toeplitz_detect", "spacetime_spsd"),
    "reconstruct.matvec_flops": ("grid_mode2", "toeplitz_detect", "spacetime_spsd"),
    "reconstruct.certify_entries_ratio": ("grid_mode2", "toeplitz_detect", "cli_session"),
    "ref.dense_matvec_us": ("grid_mode2", "toeplitz_detect"),
    "blocks.cell_fill_ratio": ("grid_mode2", "toeplitz_detect", "spacetime_spsd",
                               "cli_session"),
    "apps.spacetime_build_ms": ("spacetime_spsd",),
    "apps.report_metrics_ms": ("spacetime_spsd", "cli_session"),
    "container.write_ms": ("grid_mode2", "toeplitz_detect", "spacetime_spsd", "cli_session"),
    "container.read_ms": ("grid_mode2", "toeplitz_detect", "spacetime_spsd", "cli_session"),
    "container.bytes": ("grid_mode2", "toeplitz_detect", "spacetime_spsd", "cli_session"),
    "fileio.read_matrix_ms": ("cli_session",),
    "fileio.read_vector_ms": ("cli_session",),
    "fileio.bytes_read": ("cli_session",),
    "multilevel.psf_weighted_tensor_ms": ("cli_session",),
    "multilevel.densify_ms": ("cli_session",),
    "multilevel.densified_entries": ("cli_session",),
    "cli.compress_ms": ("cli_session",),
    "cli.report_ms": ("cli_session",),
    "cli.matvec_ms": ("cli_session",),
    "cli.matvec_multilevel_ms": ("cli_session",),
    "trace.spans": ("grid_mode2", "toeplitz_detect", "spacetime_spsd", "cli_session"),
}


def _fail(msg: str) -> None:
    print(f"selfcheck FAILED: {msg}")
    sys.exit(1)


def _run(cwd: Path, workload: str, seconds: float, trace: int) -> subprocess.CompletedProcess:
    cmd = [*json.loads((cwd / "BENCHMARK.json").read_text())["command"],
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, seconds: float, trace: int) -> None:
    proc = _run(ROOT, workload, seconds, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        _fail(f"{where} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        _fail(f"{where}: correct={result['correct']} failed={result['failed']} "
              f"attempted={result['attempted']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        _fail(f"{where}: missing {sorted({m['name'] for m in declared} - set(got))}, "
              f"undeclared {sorted(set(got) - {m['name'] for m in declared})}")
    for m in declared:
        value, unit = got[m["name"]]["value"], got[m["name"]]["unit"]
        if unit != m["unit"]:
            _fail(f"{where}: {m['name']} in {unit!r}, declared {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            _fail(f"{where}: {m['name']} = {value!r}")
        if not trace and value <= 0:
            _fail(f"{where}: end-to-end {m['name']} = {value!r} is not positive")
        if trace and workload in EXERCISED.get(m["name"], ()) and value <= 0:
            _fail(f"{where}: {m['name']} = {value!r} on a workload that exercises it")
    print(f"ok: {where}: {len(got)} metrics, {result['attempted']} operations")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "grid_mode2", 1, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail("the benchmark ran without the sources it measures")
    print(f"ok: without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    unknown = set(EXERCISED) - set(names)
    if unknown:
        _fail(f"EXERCISED names undeclared per-layer metrics {sorted(unknown)}")
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], args.seconds, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
