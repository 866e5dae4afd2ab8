"""In-memory span tracing of calls between blockten's modules.

The benchmark never edits the library.  For a traced pass it swaps, at run
time, every reference one blockten module holds to a function of another
(and every public function in its own module) for a wrapper that records a
span: name, layer, start, end, parent span and the id of the operation
that caused it.  A few methods that are called across module boundaries
are wrapped on their classes.  ``uninstall`` puts every original back, so
untraced passes run the library exactly as shipped.

Counters are recorded at the same boundaries by per-function hooks, so
ratios such as bytes read or singular vectors kept are measured where the
work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("tensor", "blocks", "decomp", "reconstruct", "psd", "multilevel",
          "apps", "container", "fileio", "cli")

# methods that other modules call on objects: (layer, class, method)
METHODS = (
    ("decomp", "TuckerRep", "reconstruct"),
    ("psd", "SpsdRep", "as_blr"),
    ("psd", "SpsdRep", "densify"),
    ("psd", "SpsdRep", "trace"),
    ("multilevel", "MultilevelTuckerRep", "densify"),
)


def _file_size(args, kwargs, out):
    return os.path.getsize(args[0])


# counter name -> (span name, hook(args, kwargs, result) -> increment)
COUNTER_HOOKS = {
    "fileio.bytes_read": (("fileio.read_matrix", "fileio.read_vector"), _file_size),
    "container.bytes": (("container.container_write",), _file_size),
    "multilevel.densified_entries": (("multilevel.MultilevelTuckerRep.densify",),
                                     lambda args, kwargs, out: out.size),
    "decomp.cp_als.sweeps": (("decomp.cp_als",), lambda args, kwargs, out: out.n_iters),
    "cli.nonzero_exits": (("cli.main",), lambda args, kwargs, out: int(out != 0)),
    # svd_truncated(a, r): r vectors kept out of min(a.shape) computed
    "decomp.sv_kept": (("decomp.svd_truncated",), lambda args, kwargs, out: args[1]),
    "decomp.sv_computed": (("decomp.svd_truncated",),
                           lambda args, kwargs, out: min(args[0].shape)),
}


# per-layer metric -> (span name, root step names or None for any step)
SPAN_METRICS = {
    "blocks.mat_to_tensor_ms": ("blocks.mat_to_tensor", None),
    "blocks.detect_pattern_ms": ("blocks.detect_pattern", None),
    "blocks.build_pattern_ms": ("blocks.build_pattern", None),
    "tensor.unfold_ms": ("tensor.unfold", None),
    "tensor.mode_multiply_ms": ("tensor.mode_multiply", None),
    "decomp.tucker_partial_ms": ("decomp.tucker_partial", None),
    "decomp.hosvd_ms": ("decomp.hosvd", None),
    "decomp.cp_als_ms": ("decomp.cp_als", None),
    "psd.spsd_compress_blocks_ms": ("psd.spsd_compress_blocks", None),
    "psd.check_transpose_closed_ms": ("psd.check_transpose_closed", None),
    "reconstruct.kron_sum_from_tucker_ms": ("reconstruct.kron_sum_from_tucker", None),
    "reconstruct.blr_from_tucker_ms": ("reconstruct.blr_from_tucker", None),
    "reconstruct.error_fro_ms": ("reconstruct.error_fro", None),
    "reconstruct.matvec_kron_us": ("reconstruct.matvec", ("matvec_kron",)),
    "reconstruct.matvec_blr_us": ("reconstruct.matvec", ("matvec_blr",)),
    "ref.dense_matvec_us": ("ref_dense", None),
    "apps.spacetime_build_ms": ("apps.spacetime_build", None),
    "apps.report_metrics_ms": ("apps.report_metrics", None),
    "container.write_ms": ("container.container_write", ("container_write",)),
    "container.read_ms": ("container.container_read", ("container_read",)),
    "fileio.read_matrix_ms": ("fileio.read_matrix", None),
    "fileio.read_vector_ms": ("fileio.read_vector", None),
    "multilevel.psf_weighted_tensor_ms": ("multilevel.psf_weighted_tensor", None),
    "multilevel.densify_ms": ("multilevel.MultilevelTuckerRep.densify", None),
    "cli.compress_ms": ("cli.main", ("cli_compress_mode2", "cli_compress_hosvd")),
    "cli.report_ms": ("cli.main", ("cli_report",)),
    "cli.matvec_ms": ("cli.main", ("cli_matvec",)),
    "cli.matvec_multilevel_ms": ("cli.main", ("cli_matvec_multilevel",)),
}
# counters reported as a median per pass, and as a total over the run
PASS_COUNTERS = {"fileio.bytes_read": "bytes", "multilevel.densified_entries": "count",
                 "decomp.cp_als.sweeps": "count"}
RUN_COUNTERS = ("cli.nonzero_exits",)


@dataclass(frozen=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    error: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[int, Counter] = {}
        self.op = 0
        self._stack: list[int] = []
        self._hooks: dict[str, list[tuple[str, object]]] = {}
        for counter, (names, hook) in COUNTER_HOOKS.items():
            for name in names:
                self._hooks.setdefault(name, []).append((counter, hook))

    def call(self, name: str, layer: str, fn, args, kwargs):
        if not self._stack and layer != "bench":
            return fn(*args, **kwargs)  # outside a step: a check, not the workload
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        error = True
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
            error = False
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, layer, start, end, parent, self.op, error)
        for counter, hook in self._hooks.get(name, ()):
            self.counters.setdefault(self.op, Counter())[counter] += hook(args, kwargs, out)
        return out

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs)
        return traced

    def step(self, name: str, fn, *args, **kwargs):
        """Run one benchmark step as a root span of layer ``bench``."""
        return self.call(name, "bench", fn, args, kwargs)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Route calls into every blockten layer through ``tracer``.

    Returns the patches to hand back to :func:`uninstall`.
    """
    mods = {name: importlib.import_module(f"blockten.{name}") for name in LAYERS}
    patches = []
    for owner, mod in mods.items():
        public = set(getattr(mod, "__all__", ()))
        for attr, val in list(vars(mod).items()):
            if not inspect.isfunction(val):
                continue
            home = val.__module__.rpartition(".")[2]
            if home not in mods or (home == owner and attr not in public):
                continue
            patches.append((mod, attr, val))
            setattr(mod, attr, tracer.wrap(val, f"{home}.{val.__name__}", home))
    for layer, cls_name, meth in METHODS:
        cls = getattr(mods[layer], cls_name)
        val = cls.__dict__[meth]
        patches.append((cls, meth, val))
        setattr(cls, meth, tracer.wrap(val, f"{layer}.{cls_name}.{meth}", layer))
    return patches


def uninstall(patches) -> None:
    for target, attr, val in reversed(patches):
        setattr(target, attr, val)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counters of the traced passes.

    Span metrics are medians over passes of the per-pass sum (self time),
    count (calls) or mean (named functions).  A function that only the
    traced set-up (op -1) calls is measured there.
    """
    spans = tracer.spans
    own = self_times(spans)
    root: list[int] = []
    for i, sp in enumerate(spans):
        root.append(i if sp.parent < 0 else root[sp.parent])
    ops = sorted({sp.op for sp in spans if sp.op >= 0})

    def per_pass(select, reduce) -> float:
        groups: dict[int, list] = {}
        for i, sp in enumerate(spans):
            value = select(i, sp)
            if value is not None:
                groups.setdefault(sp.op, []).append(value)
        values = [reduce(groups[op]) for op in ops if op in groups] or (
            [reduce(groups[-1])] if -1 in groups else [])
        return statistics.median(values) if values else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (1e3 * per_pass(
            lambda i, sp: own[i] if sp.layer == layer else None, sum), "ms")
        metrics[f"{layer}.calls"] = (per_pass(
            lambda i, sp: 1 if sp.layer == layer else None, len), "count")
        metrics[f"{layer}.errors"] = (sum(sp.error for sp in spans if sp.layer == layer),
                                      "count")
    for metric, (name, steps) in SPAN_METRICS.items():
        scale, unit = (1e6, "us") if metric.endswith("_us") else (1e3, "ms")

        def select(i, sp, name=name, steps=steps):
            if sp.name != name or (steps and spans[root[i]].name not in steps):
                return None
            return sp.duration

        metrics[metric] = (scale * per_pass(select, statistics.fmean), unit)
    metrics["trace.spans"] = (per_pass(lambda i, sp: 1, len), "count")

    per_op = [tracer.counters.get(op, Counter()) for op in ops]
    for name, unit in PASS_COUNTERS.items():
        metrics[name] = (statistics.median(c[name] for c in per_op) if per_op else 0.0, unit)
    for name in RUN_COUNTERS:
        metrics[name] = (sum(c[name] for c in tracer.counters.values()), "count")
    writes = sum(sp.name == "container.container_write" and sp.op >= 0 for sp in spans)
    written = sum(c["container.bytes"] for c in per_op)
    metrics["container.bytes"] = (written / writes if writes else 0.0, "bytes")
    kept = sum(c["decomp.sv_kept"] for c in tracer.counters.values())
    computed = sum(c["decomp.sv_computed"] for c in tracer.counters.values())
    metrics["decomp.basis_kept_ratio"] = (kept / computed if computed else 0.0, "ratio")
    return metrics
