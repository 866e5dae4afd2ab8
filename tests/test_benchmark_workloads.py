"""The benchmark's workloads (perfbench/workloads.py) check their own results
after every step.  One pass of each must pass those checks on the library as
it is, or a library change breaks the benchmark run rather than this suite."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["grid_mode2", "toeplitz_detect", "spacetime_spsd",
                                  "cli_session"])
def test_one_pass_of_each_workload_passes_its_checks(name, tmp_path):
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name](np.random.default_rng(1), str(tmp_path))
    rec = workloads.Recorder()
    workloads.attempt_pass(workload, rec)
    assert rec.attempted > 0
    assert rec.failed == 0, dict(rec.failures)


def test_cli_session_tolerance_keeps_its_mode2_rank(tmp_path, capsys):
    # the mode-2 unfolding of the n = 40 grid operator has 118 nonzero columns
    # out of 1600; dropping the zero ones leaves the rank the budget picks
    from blockten.cli import main
    from blockten.fileio import write_matrix

    workloads = _load_workloads()
    session = workloads.CliSession
    for seed in (1, 7002):
        path = tmp_path / "A.mtx"
        write_matrix(path, workloads.grid_operator(session.n, np.random.default_rng(seed)))
        size = str(session.n)
        code = main(["compress", str(path), "-o", str(tmp_path / "k.btc"), "--block-rows", size,
                     "--block-cols", size, "--method", "mode2", "--pattern", "banded",
                     "--band", "1", "--tol", repr(session.tol)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ranks: 5\n" in out
