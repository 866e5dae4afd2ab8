#!/usr/bin/env python3
"""Which library functions the benchmark workloads reach.

Sets up each workload of ``perfbench/workloads.py`` on a fixed seed and runs
one pass of it, with a call tracer limited to ``src/blockten``.  For each
workload it prints the library functions the pass reaches, then those only
its set-up reaches; last, the functions that no workload reaches at all.  A
change to a function no workload reaches cannot move a benchmark metric.
Calls made while the library is imported (its class decorators) are not
traced, so those functions are listed as reached by none.

The workloads module is loaded from its file, read-only (no bytecode cache
is written next to it), and the workloads write their files to a temporary
directory.  Takes no options:

    python scripts/workload_reach.py
"""

import importlib.util
import inspect
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

import blockten

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = Path(blockten.__file__).resolve().parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SEED = 1


def _load_workloads():
    sys.dont_write_bytecode = True  # nothing written under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _name(code: types.CodeType) -> str:
    return f"{Path(code.co_filename).stem}.{code.co_qualname}"


def _is_function(code: types.CodeType) -> bool:
    """A named function or method: not a module or class body, lambda or comprehension."""
    return bool(code.co_flags & inspect.CO_OPTIMIZED) and not code.co_name.startswith("<")


def library_functions() -> set[str]:
    """Every named function and method defined in the library source."""
    names, todo = set(), []
    for path in sorted(LIBRARY.glob("*.py")):
        todo.append(compile(path.read_text(), str(path), "exec"))
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if _is_function(code):
            names.add(_name(code))
    return names


def traced(fn, *args) -> tuple[object, set[str]]:
    """``fn(*args)`` and the named library functions it calls."""
    reached = set()
    prefix = str(LIBRARY)

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix) and _is_function(code):
            reached.add(_name(code))
        return None  # no line events: calls are all it records

    sys.settrace(on_call)
    try:
        out = fn(*args)
    finally:
        sys.settrace(None)
    return out, reached


def main() -> int:
    workloads = _load_workloads()
    every = library_functions()
    seen = set()
    with tempfile.TemporaryDirectory() as workdir:
        for name, cls in workloads.WORKLOADS.items():
            workload, setup = traced(cls, np.random.default_rng(SEED), workdir)
            rec = workloads.Recorder()
            _, run = traced(workloads.attempt_pass, workload, rec)
            seen |= setup | run
            print(f"{name}: {len(run)} functions in one pass, "
                  f"{rec.attempted} operations, {rec.failed} failed")
            for fn in sorted(run):
                print(f"  {fn}")
            print(f"{name}: {len(setup - run)} more in its set-up only")
            for fn in sorted(setup - run):
                print(f"  {fn}")
            if rec.failed:
                print(f"{name}: failures {dict(rec.failures)}")
    unreached = sorted(every - seen)
    print(f"reached by no workload: {len(unreached)} of {len(every)} functions")
    for fn in unreached:
        print(f"  {fn}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
