"""The benchmark's span tracer (perfbench/tracing.py) wraps library functions
and a few methods by name.  It must still install over the library as it is,
and put every original back, or traced benchmark runs break; and the spans that
perfbench/selfcheck.py expects of a workload must still be reached."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def _load_perfbench(path=TRACING):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _functions(namespace) -> dict:
    return {name: val for name, val in vars(namespace).items() if inspect.isfunction(val)}


def test_tracer_installs_and_restores_every_function():
    tracing = _load_perfbench()
    targets = [importlib.import_module(f"blockten.{layer}") for layer in tracing.LAYERS]
    targets += [getattr(importlib.import_module(f"blockten.{layer}"), cls)
                for layer, cls, _ in tracing.METHODS]
    before = [_functions(target) for target in targets]
    patches = tracing.install(tracing.Tracer())  # a method it names must exist
    try:
        assert len(patches) > len(tracing.METHODS)
        for target, attr, original in patches:
            assert vars(target)[attr] is not original
    finally:
        tracing.uninstall(patches)
    for target, functions in zip(targets, before):
        assert _functions(target) == functions, target


def test_every_traced_metric_names_a_wrapped_function():
    # a metric whose span or counter names nothing the tracer wraps reads 0
    # without an error, so a renamed or inlined function would zero it silently
    tracing = _load_perfbench()
    wrapped = set()

    class Recorder(tracing.Tracer):
        def wrap(self, fn, name, layer):
            wrapped.add(name)
            return super().wrap(fn, name, layer)

    tracing.uninstall(tracing.install(Recorder()))
    wanted = {name for name, _ in tracing.SPAN_METRICS.values()}
    wanted |= {name for names, _ in tracing.COUNTER_HOOKS.values() for name in names}
    wanted = {name for name in wanted if name.split(".")[0] in tracing.LAYERS}
    missing = sorted(wanted - wrapped)
    assert wanted and not missing, missing


def test_a_traced_cli_session_pass_times_tucker_partial(tmp_path):
    # the selfcheck expects this span on cli_session: its exact mode2 compress factors
    # the mode-2 rows through decomp.tucker_partial
    tracing, workloads = _load_perfbench(), _load_perfbench(WORKLOADS)
    workload = workloads.WORKLOADS["cli_session"](np.random.default_rng(1), str(tmp_path))
    tracer = tracing.Tracer()
    rec = workloads.Recorder(tracer)
    patches = tracing.install(tracer)
    try:
        workloads.attempt_pass(workload, rec)
    finally:
        tracing.uninstall(patches)
    assert rec.failed == 0, dict(rec.failures)
    assert tracing.layer_metrics(tracer)["decomp.tucker_partial_ms"][0] > 0
