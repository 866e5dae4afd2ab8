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
