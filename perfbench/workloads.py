"""The four benchmark workloads.

Each workload is one closed-loop caller with concurrency 1: ``run_pass``
issues the next library call only when the previous one has returned.  The
seed draws the matvec vectors and a small perturbation of the inputs;
shapes and ranks are fixed, so runs on different seeds stay comparable.

A pass records these samples, all from wall time:

* ``compress_ms`` -- input to compressed representation(s);
* ``certify_ms`` -- producing the reported relative error;
* ``roundtrip_ms`` -- container write plus read;
* ``matvec_us`` -- one product per structured form on the same vector,
  averaged over the forms.

Checks run after each step and outside its timed region.  A failed check
marks that step as failed; it never aborts the run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from blockten import apps, blocks, cli, container, decomp, fileio, multilevel, psd, reconstruct

ISOMETRY_TOL = 1e-12  # |dense error - tensor error| <= tol * ||A||
AGREE_TOL = 1e-10     # relative disagreement allowed between two products
PSD_TOL = 1e-10       # x^T A_hat x >= -tol * ||x||^2
# Tails sit at a fixed percentile, so runs and commits stay comparable when
# the sample count moves: p75 of the 40-90 passes of a 25 s run, p90 where a
# pass samples several matvecs.  Either leaves ten samples beyond it.
TAIL_PERCENTILES = {"compress_ms": 75, "matvec_us": 90}


class StepFailed(Exception):
    """A step raised; the rest of its pass depends on its output."""


class Recorder:
    """Times steps of a pass and counts operations, failures and samples."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: Counter = Counter()

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as one operation; return ``(result, seconds)``."""
        self.attempted += 1
        start = perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args, **kwargs)
            else:
                out = self.tracer.step(name, fn, *args, **kwargs)
        except Exception as exc:
            self.check(False, f"{name} raised {type(exc).__name__}: {exc}")
            raise StepFailed(name) from exc
        return out, perf_counter() - start

    def check(self, ok: bool, what: str) -> bool:
        """Mark the most recent operation failed unless ``ok``."""
        if not ok:
            self.failed_ops.add(self.attempted)
            self.failures[what] += 1
        return bool(ok)

    def add(self, metric: str, value: float) -> None:
        self.samples[metric].append(float(value))

    def absorb(self, other: "Recorder", tag: str) -> None:
        """Count another recorder's operations and failures, not its samples."""
        self.attempted += other.attempted
        self.failed_ops.update(f"{tag}.{op}" for op in other.failed_ops)
        self.failures.update(other.failures)


def attempt_pass(workload, rec: Recorder) -> None:
    """Run one pass, counting whatever breaks it as a failure."""
    try:
        workload.run_pass(rec)
    except StepFailed:
        pass  # already counted against the step that raised
    except Exception as exc:  # a check broke: count it and keep the run going
        rec.check(False, f"pass raised {type(exc).__name__}: {exc}")


def matvec_flops(workload) -> float:
    """Mean multiply-add count of one product per structured form."""
    flops = []
    for rep in workload.forms.values():
        counter = reconstruct.FlopCounter()
        reconstruct.matvec(rep, np.ones(rep.shape[1]), counter)
        flops.append(counter.flops)
    return sum(flops) / len(flops) if flops else 0.0


def _close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-300)
    return bool(np.all(np.isfinite(a))) and float(np.linalg.norm(a - b)) <= tol * scale


def _jitter(rng: np.random.Generator, value: float, rel: float = 1e-3) -> float:
    return value * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _roundtrip(rec: Recorder, rep, path: str, arrays) -> float:
    """Write and read ``rep``; check the read-back is bit-exact."""
    _, t_write = rec.run("container_write", container.container_write, path, rep)
    back, t_read = rec.run("container_read", container.container_read, path)
    with open(path, "rb") as fh:
        first = fh.read()
    container.container_write(path + ".again", back)
    with open(path + ".again", "rb") as fh:
        again = fh.read()
    rec.check(back.pattern == rep.pattern
              and all(np.array_equal(getattr(back, a), getattr(rep, a)) for a in arrays)
              and first == again, "container round trip is not bit-exact")
    rec.add("container_write_ms", 1e3 * t_write)
    rec.add("container_read_ms", 1e3 * t_read)
    return t_write + t_read


def _structured_matvecs(rec: Recorder, forms: dict, dense, vectors, bound, densified):
    """Apply every form to every vector; time ``dense @ x`` as reference.

    ``bound`` is ``||A - A_hat||_F``: ``||A_hat x - A x|| <= bound ||x||``.
    ``densified`` is ``densify(form) @ x`` for the first vector, or None.
    """
    for idx, x in enumerate(vectors):
        outs, total = {}, 0.0
        for name, rep in forms.items():
            outs[name], dt = rec.run(f"matvec_{name}", reconstruct.matvec, rep, x)
            rec.add(f"matvec_{name}_us", 1e6 * dt)
            total += dt
        rec.add("matvec_us", 1e6 * total / len(forms))
        ys = list(outs.values())
        rec.check(all(_close(y, ys[0], AGREE_TOL) for y in ys[1:]),
                  "structured forms disagree on a product")
        if dense is not None:
            ref, dt = rec.run("ref_dense", np.matmul, dense, x)
            rec.add("ref_dense_us", 1e6 * dt)
            slack = bound * float(np.linalg.norm(x)) * (1 + 1e-6) + 1e-12 * float(
                np.linalg.norm(ref))
            rec.check(all(float(np.linalg.norm(y - ref)) <= slack for y in ys),
                      "product farther from A x than the certified error allows")
        if idx == 0 and densified is not None:
            rec.check(all(_close(y, densified(x), AGREE_TOL) for y in ys),
                      "product disagrees with densify(rep) @ x")


def _isometry_ok(relerr: float, norm_a: float, t: np.ndarray, tk) -> bool:
    tensor_err = float(np.linalg.norm(t - tk.reconstruct()))
    return abs(relerr * norm_a - tensor_err) <= ISOMETRY_TOL * norm_a


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------


def grid_operator(n: int, rng: np.random.Generator) -> np.ndarray:
    """Variable-coefficient 9-point grid operator, ``n^2 x n^2``.

    Block row ``i`` is scaled by ``kappa(., y_i)`` with the separable-sum
    coefficient ``kappa(x, y) = f1(y) g1(x) + f2(y) g2(x)``.  The diagonal,
    upper and lower blocks use three different stencils, so the blocks
    span exactly six matrices (mode-2 rank 6) and no two cells hold the
    same block.
    """
    x = np.arange(1, n + 1) / (n + 1)
    c1, c2 = _jitter(rng, 0.5), _jitter(rng, 0.8)
    kappa = np.outer(1 + c1 * x**2, 1 + 0.5 * x) + np.outer(c2 * np.cos(2 * np.pi * x),
                                                            np.cos(np.pi * x))
    eye, up, down = np.eye(n), np.eye(n, k=1), np.eye(n, k=-1)
    diag = 8 * eye - up - down
    upper = -(eye + 0.5 * up + down)
    lower = -(0.5 * eye + 0.25 * up + down)
    a = np.zeros((n * n, n * n))
    for i in range(n):
        rows = slice(i * n, (i + 1) * n)
        a[rows, rows] = kappa[i][:, None] * diag
        if i + 1 < n:
            nxt = slice((i + 1) * n, (i + 2) * n)
            a[rows, nxt] = kappa[i][:, None] * upper
            a[nxt, rows] = kappa[i + 1][:, None] * lower
    return a


def toeplitz_matrix(ell: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Block-Toeplitz matrix whose lag-``d`` block is the shifted Gaussian
    ``exp(-((a - b + s d) / w)^2) / (1 + (d / tau)^2)``."""
    s, w, tau = _jitter(rng, 0.3), _jitter(rng, 8.0), _jitter(rng, 10.0)
    idx = np.arange(m)
    lag_blocks = {
        d: np.exp(-(((idx[:, None] - idx[None, :] + s * d) / w) ** 2)) / (1 + (d / tau) ** 2)
        for d in range(-(ell - 1), ell)
    }
    a = np.empty((ell * m, ell * m))
    for i in range(ell):
        for j in range(ell):
            a[i * m:(i + 1) * m, j * m:(j + 1) * m] = lag_blocks[j - i]
    return a


def psf_cube(k: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian point-spread function with a seeded nonseparable bump."""
    g = np.exp(-0.5 * ((np.arange(k) - k // 2) / 1.5) ** 2)
    psf = np.einsum("i,j,k->ijk", g, g, g) + 0.05 * rng.random((k, k, k))
    return psf / psf.sum()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _DenseMatrixWorkload:
    """A workload whose matrix exists densely: every compression is
    certified against it and every product checked against ``A x``."""

    tail_percentiles = TAIL_PERCENTILES
    vector_count = 8

    def __init__(self, a: np.ndarray, rng: np.random.Generator, path: str) -> None:
        self.a = a
        self.norm_a = float(np.linalg.norm(a))
        self.vectors = [rng.standard_normal(a.shape[1]) for _ in range(self.vector_count)]
        self.path = path
        self.rep = None
        self.forms: dict = {}

    def _certify_and_apply(self, rec: Recorder, t, tk, kron, blr) -> None:
        relerr, dt = rec.run("error_fro", reconstruct.error_fro, self.a, kron)
        rec.add("certify_ms", 1e3 * dt)
        rec.add("relerr", relerr)
        rec.check(_isometry_ok(relerr, self.norm_a, t, tk), "dense error != tensor error")

        rec.add("roundtrip_ms", 1e3 * _roundtrip(rec, kron, self.path, ("coeffs", "terms")))
        dense_kron = reconstruct.densify(kron)
        self.rep, self.forms = kron, {"kron": kron, "blr": blr}
        _structured_matvecs(rec, self.forms, self.a, self.vectors, relerr * self.norm_a,
                            lambda x: dense_kron @ x)

    def shape_metrics(self) -> dict[str, float]:
        """Ratios fixed by the pattern: cells holding a class over cells
        visited, and tensor entries over the entries of the dense matrix."""
        pat = self.rep.pattern
        return {
            "blocks.cell_fill_ratio": sum(pat.counts) / (pat.ell * pat.q),
            "reconstruct.certify_entries_ratio": (pat.m * pat.p * pat.n)
            / (pat.ell * pat.m * pat.q * pat.n),
        }

    def storage_ratio(self, rec: Recorder) -> float:
        metrics = apps.report_metrics(self.a, self.rep)
        rec.check(math.isclose(metrics["relerr_fro"], rec.samples["relerr"][-1], rel_tol=1e-12),
                  "report_metrics relerr_fro differs from error_fro")
        return metrics["storage_ratio"]


class GridMode2(_DenseMatrixWorkload):
    """Many small classes on a large, mostly empty block grid."""

    name = "grid_mode2"
    n = 60
    rank = 5

    def __init__(self, rng: np.random.Generator, workdir: str) -> None:
        super().__init__(grid_operator(self.n, rng), rng, os.path.join(workdir, "grid.btc"))

    def run_pass(self, rec: Recorder) -> None:
        n = self.n
        pattern, t0 = rec.run("build_pattern", blocks.build_pattern, "banded", n, n, n, n, band=1)
        rec.check(pattern.p == 3 * n - 2, "banded pattern has the wrong class count")
        t, t1 = rec.run("mat_to_tensor", blocks.mat_to_tensor, self.a, pattern)
        rec.check(abs(float(np.linalg.norm(t)) - self.norm_a) <= ISOMETRY_TOL * self.norm_a,
                  "||T|| != ||A||")
        tk, t2 = rec.run("tucker_partial", decomp.tucker_partial, t, [None, self.rank, None])
        kron, t3 = rec.run("kron_sum_from_tucker", reconstruct.kron_sum_from_tucker, tk, pattern)
        blr, t4 = rec.run("blr_from_tucker", reconstruct.blr_from_tucker, tk, pattern)
        rec.add("compress_ms", 1e3 * (t0 + t1 + t2 + t3 + t4))
        self._certify_and_apply(rec, t, tk, kron, blr)


class ToeplitzDetect(_DenseMatrixWorkload):
    """Heavy repetition: detection, all-mode HOSVD and CP on one grid."""

    name = "toeplitz_detect"
    ell = m = 48
    ranks = (8, 8, 8)
    cp_rank = 6
    cp_sweeps = 20
    vector_count = 4  # keeps 40-60 passes in a 25 s run

    def __init__(self, rng: np.random.Generator, workdir: str) -> None:
        super().__init__(toeplitz_matrix(self.ell, self.m, rng), rng,
                         os.path.join(workdir, "toeplitz.btc"))

    def run_pass(self, rec: Recorder) -> None:
        (pattern, _), t0 = rec.run("detect_pattern", blocks.detect_pattern,
                                   self.a, self.m, self.m, tol=0.0)
        rec.check(pattern.p == 2 * self.ell - 1 and pattern.structure_class == "toeplitz",
                  "detection missed the block-Toeplitz structure")
        t, t1 = rec.run("mat_to_tensor", blocks.mat_to_tensor, self.a, pattern)
        tk, t2 = rec.run("hosvd", decomp.hosvd, t, self.ranks)
        kron, t3 = rec.run("kron_sum_from_tucker", reconstruct.kron_sum_from_tucker, tk, pattern)
        blr, t4 = rec.run("blr_from_tucker", reconstruct.blr_from_tucker, tk, pattern)
        cp, t5 = rec.run("cp_als", decomp.cp_als, t, self.cp_rank,
                         max_iters=self.cp_sweeps, tol=0.0)
        rec.check(cp.n_iters == self.cp_sweeps and 0.0 < cp.fit <= 1.0
                  and all(b >= a - 1e-9 for a, b in zip(cp.fit_history, cp.fit_history[1:])),
                  "CP-ALS fit is not a nondecreasing fixed-length trace")
        rec.add("compress_ms", 1e3 * (t0 + t1 + t2 + t3 + t4 + t5))
        self._certify_and_apply(rec, t, tk, kron, blr)


class SpacetimeSpsd:
    """Matrix-free SPSD path: the full ``NT x NT`` matrix is never formed."""

    name = "spacetime_spsd"
    tail_percentiles = TAIL_PERCENTILES
    side = 16      # N = side^2 points on a square grid
    spacing = 10.0
    steps = 20     # T time instants
    rank = 20

    def __init__(self, rng: np.random.Generator, workdir: str) -> None:
        g = np.arange(self.side) * self.spacing
        pts = np.array([(x, y) for y in g for x in g])
        self.points = pts + 1e-3 * self.spacing * rng.uniform(-1, 1, pts.shape)
        self.times = np.arange(self.steps, dtype=np.float64)
        size = len(self.points) * self.steps
        self.vectors = [rng.standard_normal(size) for _ in range(8)]
        self.path = os.path.join(workdir, "spacetime.btc")
        self.rep = None

    def run_pass(self, rec: Recorder) -> None:
        (pattern, blks), t0 = rec.run("spacetime_build", apps.spacetime_build,
                                      self.points, self.times)
        rep, t1 = rec.run("spsd_compress_blocks", psd.spsd_compress_blocks,
                          pattern, blks, self.rank)
        rec.add("compress_ms", 1e3 * (t0 + t1))

        trace_ref = float(len(self.points) * self.steps)
        metrics, dt = rec.run("report_metrics", apps.report_metrics, pattern, rep,
                              trace_ref=trace_ref)
        rec.add("certify_ms", 1e3 * dt)
        rec.add("relerr", metrics["relerr_trace"])
        rec.add("storage_ratio", metrics["storage_ratio"])
        rec.check(0.0 < metrics["relerr_trace"] < 1.0, "trace error out of range")

        blr, _ = rec.run("as_blr", rep.as_blr)
        _structured_matvecs(rec, {"blr": blr}, None, self.vectors, 0.0, None)
        x, y = self.vectors[0], self.vectors[1]
        ax, ay = reconstruct.matvec(blr, x), reconstruct.matvec(blr, y)
        scale = float(np.linalg.norm(ax)) * float(np.linalg.norm(y)) + float(
            np.linalg.norm(ay)) * float(np.linalg.norm(x))
        rec.check(abs(float(y @ ax) - float(x @ ay)) <= AGREE_TOL * scale,
                  "bilinear form is not symmetric")
        rec.check(float(x @ ax) >= -PSD_TOL * float(x @ x), "quadratic form is negative")

        rec.add("roundtrip_ms", 1e3 * _roundtrip(rec, rep, self.path, ("basis", "blocks")))
        self.rep, self.forms = rep, {"blr": blr}

    def shape_metrics(self) -> dict[str, float]:
        pat = self.rep.pattern
        return {"blocks.cell_fill_ratio": sum(pat.counts) / (pat.ell * pat.q)}

    def storage_ratio(self, rec: Recorder) -> float:
        return rec.samples["storage_ratio"][-1]


class CliSession:
    """The command line in-process: the only user of fileio, cli and multilevel."""

    name = "cli_session"
    tail_percentiles = {"compress_ms": 75, "matvec_us": 75}  # one matvec sample per pass
    n = 40
    psf_k = 9
    ml_ranks = (1, 3, 3, 3, 1)
    tol = 2e-2

    def __init__(self, rng: np.random.Generator, workdir: str) -> None:
        self.files = {key: os.path.join(workdir, name) for key, name in dict(
            matrix="A.mtx", vector="x.txt", ml_vector="xml.txt", kron="A_kron.btc",
            blr="A_blr.btc", ml="psf.btc", y="y.txt", y_ml="yml.txt").items()}
        self.a = grid_operator(self.n, rng)
        fileio.write_matrix(self.files["matrix"], self.a)
        self.x = rng.standard_normal(self.n * self.n)
        fileio.write_vector(self.files["vector"], self.x)
        t, mlp = multilevel.psf_weighted_tensor(psf_cube(self.psf_k, rng))
        self.ml = multilevel.MultilevelTuckerRep(pattern=mlp,
                                                 tucker=decomp.hosvd(t, self.ml_ranks))
        container.container_write(self.files["ml"], self.ml)
        self.x_ml = rng.standard_normal(self.psf_k ** 3)
        fileio.write_vector(self.files["ml_vector"], self.x_ml)
        self.y_ml = self.ml.densify() @ self.x_ml
        self.block_args = ["--block-rows", str(self.n), "--block-cols", str(self.n)]

    def _cli(self, rec: Recorder, name: str, argv: list[str]) -> tuple[dict, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, dt = rec.run(name, cli.main, argv)
        if not rec.check(code == 0, f"{name} exited {code}: {err.getvalue().strip()}"):
            raise StepFailed(name)
        kv = dict(line.split(": ", 1) for line in out.getvalue().splitlines() if ": " in line)
        return kv, dt

    def run_pass(self, rec: Recorder) -> None:
        f = self.files
        mode2, t0 = self._cli(rec, "cli_compress_mode2", [
            "compress", f["matrix"], "-o", f["kron"], *self.block_args, "--method", "mode2",
            "--pattern", "banded", "--band", "1", "--tol", repr(self.tol)])
        relerr = float(mode2["relerr_fro"])
        rec.check(0.0 < relerr <= self.tol, "compress --tol missed its error budget")
        _, t1 = self._cli(rec, "cli_compress_hosvd", [
            "compress", f["matrix"], "-o", f["blr"], *self.block_args, "--method", "hosvd",
            "--rank", "5", "--output", "blr"])
        rec.add("compress_ms", 1e3 * (t0 + t1) / 2)
        rec.add("relerr", relerr)
        rec.add("storage_ratio", float(mode2["storage_ratio"]))

        report, dt = self._cli(rec, "cli_report", ["report", f["kron"], "--matrix", f["matrix"]])
        rec.add("certify_ms", 1e3 * dt)
        rec.check(math.isclose(float(report["relerr_fro"]), relerr, rel_tol=1e-12),
                  "report --matrix disagrees with compress")

        _, t2 = self._cli(rec, "cli_matvec", ["matvec", f["kron"], f["vector"], "-o", f["y"]])
        rec.check(_close(np.loadtxt(f["y"]),
                         reconstruct.matvec(container.container_read(f["kron"]), self.x),
                         AGREE_TOL), "CLI matvec differs from the library matvec")
        _, t3 = self._cli(rec, "cli_matvec_multilevel",
                          ["matvec", f["ml"], f["ml_vector"], "-o", f["y_ml"]])
        rec.check(_close(np.loadtxt(f["y_ml"]), self.y_ml, AGREE_TOL),
                  "CLI multilevel matvec differs from densify(rep) @ x")
        rec.add("matvec_us", 1e6 * (t2 + t3) / 2)

        kron = container.container_read(f["kron"])
        rec.add("roundtrip_ms", 1e3 * _roundtrip(rec, kron, f["kron"] + ".copy",
                                                 ("coeffs", "terms")))
        self.rep, self.forms = kron, {}  # its products run inside the CLI

    shape_metrics = _DenseMatrixWorkload.shape_metrics

    def storage_ratio(self, rec: Recorder) -> float:
        return rec.samples["storage_ratio"][-1]


WORKLOADS = {w.name: w for w in (GridMode2, ToeplitzDetect, SpacetimeSpsd, CliSession)}
