"""End-to-end runs of the command-line interface, in process."""

import contextlib
import io
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.sparse
from scipy.ndimage import convolve

from blockten import apps, cli
from blockten import blocks as block_maps
from blockten import psd
from blockten import decomp
from blockten.blocks import (blocks_to_tensor, build_pattern, detect_pattern, extract_blocks,
                             struct_assemble)
from blockten.cli import main
from blockten.container import container_read, container_write
from blockten.decomp import hosvd, tucker_partial
from blockten.errors import ContainerFormatError
from blockten.multilevel import MultilevelPattern, MultilevelTuckerRep, psf_weighted_tensor
from blockten.reconstruct import KronSumRep, blr_from_tucker, kron_sum_from_tucker
from blockten.tensor import fro_norm
from blockten.fileio import read_matrix, read_vector, write_matrix, write_vector
from blockten.blocks import DENSIFY_LIMIT

def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if ": " in line:
            key, _, val = line.partition(": ")
            pairs[key] = val
    return pairs


def block_toeplitz(rng, s, m, band):
    blocks = {d: rng.standard_normal((m, m)) for d in range(-band, band + 1)}
    a = np.zeros((s * m, s * m))
    for i in range(s):
        for j in range(s):
            if abs(j - i) <= band:
                a[i * m:(i + 1) * m, j * m:(j + 1) * m] = blocks[j - i]
    return a


@pytest.fixture
def toep(tmp_path):
    a = block_toeplitz(np.random.default_rng(101), s=6, m=4, band=2)
    path = tmp_path / "toep.mtx"
    write_matrix(path, a)
    return path, a


def test_analyze_reports_structure(toep, capsys):
    path, _ = toep
    code, out, _ = run_cli(capsys, "analyze", path, "--block-rows", 4, "--block-cols", 4)
    assert code == 0
    pairs = kv(out)
    assert pairs["structure_class"] == "toeplitz"
    assert pairs["grid"] == "6 x 6"
    assert pairs["classes"] == "5"
    assert pairs["eta_histogram"] == "6x1 5x2 4x2"
    assert "mode2_sv" in pairs


def test_analyze_machine_singular_values_match_oracle(toep, capsys):
    from blockten.blocks import detect_pattern, mat_to_tensor
    from blockten.tensor import unfold

    path, a = toep
    code, out, _ = run_cli(capsys, "analyze", path, "--block-rows", 4,
                           "--block-cols", 4, "--machine")
    assert code == 0
    rows = [ln.split("\t") for ln in out.splitlines() if ln[:1].isdigit()]
    got = {int(m): [] for m in (1, 2, 3)}
    for mode, _idx, val in rows:
        got[int(mode)].append(float(val))
    pattern, _ = detect_pattern(a, 4, 4)
    t = mat_to_tensor(a, pattern)
    for mode in (1, 2, 3):
        sv = np.linalg.svd(unfold(t, mode), compute_uv=False)
        np.testing.assert_allclose(got[mode], sv, rtol=1e-12)


def test_compress_reconstruct_roundtrip_full_rank(toep, tmp_path, capsys):
    path, a = toep
    out_c = tmp_path / "full.btc"
    code, out, _ = run_cli(capsys, "compress", path, "-o", out_c,
                           "--block-rows", 4, "--block-cols", 4,
                           "--method", "hosvd", "--ranks", "4,5,4")
    assert code == 0
    pairs = kv(out)
    assert pairs["kind"] == "KronSumRep"
    assert float(pairs["relerr_fro"]) < 1e-12

    out_m = tmp_path / "back.mtx"
    code, _, _ = run_cli(capsys, "reconstruct", out_c, "-o", out_m)
    assert code == 0
    back = read_matrix(out_m)
    assert np.linalg.norm(a - back) <= 1e-12 * np.linalg.norm(a)


def test_mode2_exact_when_slices_live_in_small_subspace(tmp_path, capsys):
    rng = np.random.default_rng(102)
    base = rng.standard_normal((2, 4, 4))
    s, band = 6, 5
    coeffs = rng.standard_normal((2 * s - 1, 2))
    blocks = {d: np.einsum("c,cij->ij", coeffs[d + s - 1], base)
              for d in range(-band, band + 1)}
    a = np.zeros((s * 4, s * 4))
    for i in range(s):
        for j in range(s):
            a[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4] = blocks[j - i]
    path = tmp_path / "a.mtx"
    write_matrix(path, a)

    for fmt in ("kron_sum", "blr"):
        out_c = tmp_path / f"{fmt}.btc"
        code, out, _ = run_cli(capsys, "compress", path, "-o", out_c,
                               "--block-rows", 4, "--block-cols", 4,
                               "--method", "mode2", "--rank", 2,
                               "--output", fmt, "--pattern", "toeplitz")
        assert code == 0
        assert float(kv(out)["relerr_fro"]) < 1e-12


def test_tol_selects_minimal_rank(tmp_path, capsys):
    rng = np.random.default_rng(103)
    base = rng.standard_normal((2, 4, 4))
    s = 5
    coeffs = rng.standard_normal((2 * s - 1, 2))
    blocks = {d: np.einsum("c,cij->ij", coeffs[d + s - 1], base)
              for d in range(-(s - 1), s)}
    a = np.zeros((s * 4, s * 4))
    for i in range(s):
        for j in range(s):
            a[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4] = blocks[j - i]
    path = tmp_path / "a.mtx"
    write_matrix(path, a)
    code, out, _ = run_cli(capsys, "compress", path, "-o", tmp_path / "t.btc",
                           "--block-rows", 4, "--block-cols", 4,
                           "--method", "mode2", "--tol", "1e-10")
    assert code == 0
    pairs = kv(out)
    assert pairs["ranks"] == "2"
    assert float(pairs["relerr_fro"]) < 1e-10


def test_tight_tol_budget_is_met_on_a_decaying_spectrum(tmp_path, capsys):
    # mode-2 singular values fall from 1 to 1e-12 over noise of 1e-11, so a
    # 1e-10 budget keeps directions far below sqrt(eps) * sigma_1
    rng = np.random.default_rng(3)
    pattern = build_pattern("toeplitz", 12, 12, 6, 6)
    p = pattern.p
    u = np.linalg.qr(rng.standard_normal((p, p)))[0]
    v = np.linalg.qr(rng.standard_normal((36, p)))[0]
    slices = (u * np.geomspace(1.0, 1e-12, p)) @ v.T + 1e-11 * rng.standard_normal((p, 36))
    path = tmp_path / "a.mtx"
    write_matrix(path, struct_assemble(pattern, list(slices.reshape(p, 6, 6))))
    for tol in (1e-6, 1e-8, 1e-9, 1e-10):
        code, out, _ = run_cli(capsys, "compress", path, "-o", tmp_path / "t.btc",
                               "--block-rows", 6, "--block-cols", 6, "--pattern", "toeplitz",
                               "--method", "mode2", "--tol", tol)
        assert code == 0
        assert float(kv(out)["relerr_fro"]) <= tol


@pytest.mark.parametrize("method, tol", [("hosvd", "0.7"), ("hosvd", "0.5"),
                                         ("mode2", "0.3"), ("mode2", "1e-8")])
def test_tol_container_equals_the_explicit_rank_container(toep, tmp_path, capsys, method, tol):
    # --tol builds its bases from the factorisation that picked the ranks;
    # the result must be the one the explicit ranks give
    path, _ = toep
    args = ("--block-rows", 4, "--block-cols", 4, "--method", method)
    code, out, _ = run_cli(capsys, "compress", path, "-o", tmp_path / "tol.btc", *args,
                           "--tol", tol)
    assert code == 0
    ranks = kv(out)["ranks"]
    flag = ("--ranks", ranks) if method == "hosvd" else ("--rank", ranks)
    code, _, _ = run_cli(capsys, "compress", path, "-o", tmp_path / "rank.btc", *args, *flag)
    assert code == 0
    assert (tmp_path / "tol.btc").read_bytes() == (tmp_path / "rank.btc").read_bytes()


def test_randomized_seed_reproducibility(toep, tmp_path, capsys):
    path, _ = toep
    blobs = {}
    for name, seed in (("s1", 9), ("s2", 9), ("s3", 10)):
        out_c = tmp_path / f"{name}.btc"
        code, _, _ = run_cli(capsys, "compress", path, "-o", out_c,
                             "--block-rows", 4, "--block-cols", 4,
                             "--method", "mode2", "--rank", 3,
                             "--randomized", "--sketch", 4, "--seed", seed)
        assert code == 0
        blobs[name] = out_c.read_bytes()
    assert blobs["s1"] == blobs["s2"]
    assert blobs["s1"] != blobs["s3"]


def test_matvec_matches_dense_product(toep, tmp_path, capsys):
    path, a = toep
    out_c = tmp_path / "full.btc"
    run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 4,
            "--block-cols", 4, "--method", "hosvd", "--ranks", "4,5,4")
    x = np.random.default_rng(104).standard_normal(a.shape[1])
    xp = tmp_path / "x.txt"
    write_vector(xp, x)
    yp = tmp_path / "y.txt"
    code, _, _ = run_cli(capsys, "matvec", out_c, xp, "-o", yp)
    assert code == 0
    y = read_vector(yp)
    assert np.linalg.norm(a @ x - y) <= 1e-12 * np.linalg.norm(a @ x)


def test_seed_needs_randomized_and_only_a_sketched_basis_records_one(toep, tmp_path, capsys):
    path, _ = toep
    args = ("--block-rows", 4, "--block-cols", 4, "--method", "mode2", "--rank", 3)
    # refused before the input is read: the missing file is never reported
    code, out, err = run_cli(capsys, "compress", tmp_path / "missing.mtx", "-o",
                             tmp_path / "s.btc", *args, "--seed", 7)
    assert code == 2 and "--seed needs --randomized" in err and out == ""
    assert "usage: blockten compress" in err and not (tmp_path / "s.btc").exists()
    headers = {}
    for name, extra in (("exact", ()), ("sketched", ("--randomized",)),
                        ("seeded", ("--randomized", "--seed", 0))):
        code, _, _ = run_cli(capsys, "compress", path, "-o", tmp_path / f"{name}.btc", *args,
                             *extra)
        assert code == 0
        headers[name] = (tmp_path / f"{name}.btc").read_bytes().partition(b"\n---\n")[0]
    assert b"\nseed:" not in headers["exact"]
    assert b"\nseed: 0\n" in headers["sketched"]
    assert (tmp_path / "sketched.btc").read_bytes() == (tmp_path / "seeded.btc").read_bytes()


def test_randomized_tol_is_a_usage_error(toep, tmp_path, capsys):
    # the range finder has no a posteriori tail estimate, so --randomized
    # takes explicit ranks only; the exact --tol run stays available
    path, _ = toep
    args = ("--block-rows", 4, "--block-cols", 4, "--method", "hosvd", "--tol", "1e-8")
    code, _, err = run_cli(capsys, "compress", path, "-o", tmp_path / "r.btc", *args,
                           "--randomized", "--seed", 5)
    assert code == 2 and "--randomized takes --rank or --ranks, not --tol" in err
    assert "usage: blockten compress" in err  # compress's own usage line
    assert not (tmp_path / "r.btc").exists()
    code, _, _ = run_cli(capsys, "compress", path, "-o", tmp_path / "exact.btc", *args)
    assert code == 0


def test_report_on_an_spd_container_prints_its_rank(tmp_path, capsys):
    path = tmp_path / "spd.mtx"
    write_matrix(path, spd_block_toeplitz(np.random.default_rng(112), s=4, m=5))
    out_c = tmp_path / "spd.btc"
    code, _, _ = run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 5,
                         "--block-cols", 5, "--method", "spd", "--rank", 3)
    assert code == 0
    code, out, _ = run_cli(capsys, "report", out_c)
    assert code == 0
    assert kv(out)["kind"] == "SpdRep" and kv(out)["rank"] == "3"


def test_spd_container_off_its_grid_is_an_extent_error(tmp_path, capsys):
    # an ell: line that disagrees with the remainder grid, or a chol that is
    # not m x m, would otherwise be read as an operator of another shape
    path = tmp_path / "spd.mtx"
    write_matrix(path, spd_block_toeplitz(np.random.default_rng(116), s=4, m=3))
    good = tmp_path / "spd.btc"
    code, _, _ = run_cli(capsys, "compress", path, "-o", good, "--block-rows", 3,
                         "--block-cols", 3, "--method", "spd", "--rank", 2)
    assert code == 0
    blob = good.read_bytes()
    assert b"\nell: 4\n" in blob
    bad = {f"ell{ell}": blob.replace(b"\nell: 4\n", f"\nell: {ell}\n".encode())
           for ell in (5, 2, 0, -1)}
    rep = container_read(good)
    narrow = object.__new__(psd.SpdRep)  # a 3 x 2 chol, past the constructor's check
    for field, value in (("chol", rep.chol[:, :2]), ("remainder", rep.remainder),
                         ("ell", rep.ell)):
        object.__setattr__(narrow, field, value)
    container_write(tmp_path / "narrow.btc", narrow)
    bad["chol"] = (tmp_path / "narrow.btc").read_bytes()
    x = tmp_path / "x.txt"
    write_vector(x, np.ones(12))
    for name, data in bad.items():
        container = tmp_path / f"{name}.btc"
        container.write_bytes(data)
        for command, written in ((("report", container), None),
                                 (("matvec", container, x), tmp_path / "y.txt"),
                                 (("reconstruct", container), tmp_path / "r.mtx")):
            argv = command if written is None else (*command, "-o", written)
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and err.startswith("error:"), (name, command[0], err)
            assert out == "" and (written is None or not written.exists()), (name, command[0])


# `compress --method spd --rank 2 --block-rows 3 --block-cols 3` on kron(I_4, B) as the
# library wrote it before an empty remainder stored an n x 0 basis: the unused
# eye(3, 2) basis beside no blocks
_OLD_EMPTY_REMAINDER_SPD = (
    b"blockten-container/1\ncreated_by: blockten 0.1.0\nseed: 0\nranks: 2\nkind: spd\n"
    b"ell: 4\npattern.ell: 4\npattern.q: 4\npattern.m: 3\npattern.n: 3\n"
    b"pattern.structure_class: general\npattern.classes: 0\narrays: chol basis blocks\n"
    b"array.chol: 3 3\narray.basis: 3 2\narray.blocks: 0 2 2\n---\n" + bytes.fromhex(
        "0200000000000000030000000000000003000000000000000000000000000040"
        "000000000000e03f00000000000000000000000000000000346ffd937288fa3f"
        "2668153df64be33f00000000000000000000000000000000fc2f16ed9e77f43f"
        "020000000000000003000000000000000200000000000000000000000000f03f"
        "000000000000000000000000000000000000000000000000000000000000f03f"
        "0000000000000000030000000000000000000000000000000200000000000000"
        "0200000000000000"))


def test_old_empty_remainder_spd_containers_still_read(tmp_path, capsys):
    b = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    write_matrix(tmp_path / "a.mtx", np.kron(np.eye(4), b))
    fresh, old = tmp_path / "fresh.btc", tmp_path / "old.btc"
    code, _, _ = run_cli(capsys, "compress", tmp_path / "a.mtx", "-o", fresh, "--block-rows", 3,
                         "--block-cols", 3, "--method", "spd", "--rank", 2)
    assert code == 0
    old.write_bytes(_OLD_EMPTY_REMAINDER_SPD)
    header = fresh.read_bytes().partition(b"\n---\n")[0].split(b"\n")
    assert b"array.basis: 3 0" in header and b"array.blocks: 0 0 0" in header
    new_rep, old_rep = container_read(fresh), container_read(old)
    assert old_rep.remainder.basis.shape == (3, 2) and new_rep.remainder.basis.shape == (3, 0)
    np.testing.assert_array_equal(old_rep.densify(), new_rep.densify())
    x = np.random.default_rng(5).standard_normal(12)
    np.testing.assert_array_equal(old_rep.matvec(x), new_rep.matvec(x))
    # each file's ratio counts the arrays it holds: 6 + 6 of the old file's
    # scalars and 6 of the fresh one's over the 9 of the anchor block
    for path, rep, rank, ratio in ((old, old_rep, "2", 12 / 9), (fresh, new_rep, "0", 6 / 9)):
        code, out, _ = run_cli(capsys, "report", path)
        assert code == 0 and kv(out)["rank"] == rank
        assert float(kv(out)["storage_ratio"]) == rep.stored_scalars() / rep.distinct_scalars()
        assert rep.stored_scalars() / rep.distinct_scalars() == pytest.approx(ratio)


def test_spd_compress_records_the_rank_of_the_form_it_wrote(tmp_path, capsys):
    # kron(I_4, B) leaves nothing for the rank-2 basis to project: the form has rank 0
    b = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    write_matrix(tmp_path / "a.mtx", np.kron(np.eye(4), b))
    out_c = tmp_path / "spd.btc"
    code, out, _ = run_cli(capsys, "compress", tmp_path / "a.mtx", "-o", out_c, "--block-rows", 3,
                           "--block-cols", 3, "--method", "spd", "--rank", 2)
    assert code == 0 and kv(out)["ranks"] == "0"
    assert b"\nranks: 0\n" in out_c.read_bytes().partition(b"\n---\n")[0]
    code, out, _ = run_cli(capsys, "report", out_c)
    assert code == 0 and kv(out)["rank"] == "0"


@pytest.mark.parametrize("kind", ["kron_sum", "blr", "multilevel"])
def test_report_against_a_zero_matrix_leaves_the_ratio_out(toep, tmp_path, capsys, kind):
    if kind == "multilevel":
        out_c, rep = _multilevel_container(tmp_path)
    else:
        out_c = tmp_path / "c.btc"
        code, _, _ = run_cli(capsys, "compress", toep[0], "-o", out_c, "--block-rows", 4,
                             "--block-cols", 4, "--method", "hosvd", "--rank", 2,
                             "--output", kind)
        assert code == 0
        rep = container_read(out_c)
    zero = tmp_path / "zero.mtx"
    write_matrix(zero, np.zeros(rep.shape))
    code, out, err = run_cli(capsys, "report", out_c, "--matrix", zero)
    assert code == 0, err
    pairs = kv(out)
    assert pairs["shape"] == f"{rep.shape[0]} x {rep.shape[1]}"
    assert "storage_ratio" not in pairs and "relerr_fro" not in pairs


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
def test_tol_compress_does_not_depend_on_the_matrix_scale(tmp_path, capsys, scale):
    # near 1e160 the squared norm overflows, near 1e-170 it underflows to 0
    rng = np.random.default_rng(112)
    pattern = build_pattern("toeplitz", 5, 5, 4, 4)
    base = rng.standard_normal((3, 4, 4)) * np.array([1.0, 0.3, 0.1])[:, None, None]
    blocks = np.einsum("kc,cij->kij", rng.standard_normal((pattern.p, 3)), base)
    a = struct_assemble(pattern, blocks + 1e-4 * rng.standard_normal(blocks.shape))
    runs = []
    for factor in (1.0, scale):
        path = tmp_path / "a.mtx"
        write_matrix(path, factor * a)
        code, out, err = run_cli(capsys, "compress", path, "-o", tmp_path / "t.btc",
                                 "--block-rows", 4, "--block-cols", 4,
                                 "--method", "mode2", "--tol", "1e-3")
        assert code == 0 and not err
        runs.append(kv(out))
    assert runs[1]["ranks"] == runs[0]["ranks"] == "3"
    assert float(runs[1]["relerr_fro"]) == pytest.approx(float(runs[0]["relerr_fro"]),
                                                         rel=1e-12)


def test_matvec_applies_a_psf_container_beyond_the_dense_limit(tmp_path, capsys):
    # the full-rank K = 23 blur operator has 23^6 > DENSIFY_LIMIT entries;
    # its product is the zero-padded 3-D convolution with the kernel
    k = 23
    assert k**6 > DENSIFY_LIMIT
    rng = np.random.default_rng(113)
    psf = rng.standard_normal((k, k, k))
    t, mlp = psf_weighted_tensor(psf)
    path = tmp_path / "psf.btc"
    container_write(path, MultilevelTuckerRep(pattern=mlp, tucker=hosvd(t, t.shape)))
    x = rng.standard_normal(k**3)
    write_vector(tmp_path / "x.txt", x)
    code, _, err = run_cli(capsys, "matvec", path, tmp_path / "x.txt", "-o", tmp_path / "y.txt")
    assert code == 0, err
    want = convolve(x.reshape((k, k, k), order="F"), psf, mode="constant").ravel(order="F")
    assert np.linalg.norm(read_vector(tmp_path / "y.txt") - want) <= 1e-12 * np.linalg.norm(want)
    # writing the matrix out still needs the dense form
    code, _, _ = run_cli(capsys, "reconstruct", path, "-o", tmp_path / "a.mtx")
    assert code == 3


def test_coordinate_file_beyond_the_dense_limit_stays_sparse(tmp_path, capsys, monkeypatch):
    # a 20000^2 block-tridiagonal Toeplitz matrix of sparse 20 x 20 blocks:
    # 4e8 entries densely, 1.2e6 in its 2998 nonzero cells
    s, m = 1000, 20
    assert (s * m) ** 2 > DENSIFY_LIMIT
    terms = [scipy.sparse.kron(scipy.sparse.eye(s, k=d),
                               scipy.sparse.random(m, m, density=0.1, random_state=d + 1)
                               + scipy.sparse.eye(m))
             for d in (-1, 0, 1)]
    a = (terms[0] + terms[1] + terms[2]).tocsr()
    path = tmp_path / "big.mtx"
    write_matrix(path, a)
    out_c = tmp_path / "big.btc"
    code, out, err = run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", m,
                             "--block-cols", m, "--method", "hosvd", "--rank", 2)
    assert code == 0, err
    pairs = kv(out)
    assert container_read(out_c).pattern.counts == (s, s - 1, s - 1)
    code, out, err = run_cli(capsys, "report", out_c, "--matrix", path)
    assert code == 0, err
    assert float(kv(out)["relerr_fro"]) == pytest.approx(float(pairs["relerr_fro"]), rel=1e-12)
    # the stack of nonzero cells keeps the dense-size guard
    monkeypatch.setattr(block_maps, "DENSIFY_LIMIT", 10**6)
    code, _, err = run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", m,
                           "--block-cols", m, "--method", "hosvd", "--rank", 2)
    assert code == 3 and "nonzero 20 x 20 cells would hold 1199200 entries" in err


def spd_block_toeplitz(rng, s, m):
    g = rng.standard_normal((m, m))
    t0 = g @ g.T + 8.0 * np.eye(m)
    offs = {d: 0.25 * rng.standard_normal((m, m)) for d in range(1, s)}
    a = np.zeros((s * m, s * m))
    for i in range(s):
        for j in range(s):
            d = j - i
            blk = t0 if d == 0 else (offs[d] if d > 0 else offs[-d].T)
            a[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
    return a


def test_spd_compress_and_factored_matvec(tmp_path, capsys):
    a = spd_block_toeplitz(np.random.default_rng(105), s=5, m=6)
    path = tmp_path / "spd.mtx"
    write_matrix(path, a)
    out_c = tmp_path / "spd.btc"
    code, out, _ = run_cli(capsys, "compress", path, "-o", out_c,
                           "--block-rows", 6, "--block-cols", 6,
                           "--method", "spd", "--rank", 3,
                           "--pattern", "toeplitz")
    assert code == 0
    assert kv(out)["kind"] == "SpdRep"

    rep = container_read(out_c)
    dense = rep.densify()
    np.linalg.cholesky(dense)  # stays SPD after truncation

    x = np.random.default_rng(106).standard_normal(a.shape[1])
    xp, yp = tmp_path / "x.txt", tmp_path / "y.txt"
    write_vector(xp, x)
    code, _, _ = run_cli(capsys, "matvec", out_c, xp, "-o", yp)
    assert code == 0
    y = read_vector(yp)
    assert np.linalg.norm(dense @ x - y) <= 1e-12 * np.linalg.norm(dense @ x)


def test_spd_of_a_near_singular_anchor_compresses(tmp_path, capsys):
    # the anchor of this covariance has condition number 8e13: two triangular
    # solves against it leave a scaled remainder whose transpose partners
    # differ far beyond the transpose tolerance, so closure is checked before
    # scaling and partners are scaled as exact transposes
    from blockten.apps import spacetime_build

    rng = np.random.default_rng(3)
    pattern, blocks = spacetime_build(rng.uniform(0, 10, (12, 2)), np.arange(6.0))
    assert np.linalg.cond(blocks[0]) > 1e13
    path, out_c = tmp_path / "st.mtx", tmp_path / "spd.btc"
    write_matrix(path, struct_assemble(pattern, blocks))
    code, out, err = run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 12,
                             "--block-cols", 12, "--method", "spd", "--rank", 5)
    assert code == 0, err
    assert kv(out)["kind"] == "SpdRep" and float(kv(out)["relerr_fro"]) < 0.05
    np.linalg.cholesky(container_read(out_c).densify())


@pytest.mark.parametrize("pattern", [("--pattern", "auto"),
                                     ("--pattern", "toeplitz", "--symmetric")])
@pytest.mark.parametrize("case", ["kron_identity", "one_block"])
def test_spd_with_an_empty_remainder_reports_a_finite_ratio(tmp_path, capsys, case, pattern):
    # every diagonal block is the anchor and no other block is nonzero, so the
    # remainder has no class and the ratio is over the anchor block alone
    rng = np.random.default_rng(119)
    m = 3 if case == "kron_identity" else 6
    g = rng.standard_normal((m, m))
    b = g @ g.T + m * np.eye(m)
    path = tmp_path / "a.mtx"
    write_matrix(path, np.kron(np.eye(4), b) if case == "kron_identity" else b)
    out_c = tmp_path / "spd.btc"
    for argv in (("compress", path, "-o", out_c, "--block-rows", m, "--block-cols", m,
                  "--method", "spd", "--rank", 2, *pattern),
                 ("report", out_c), ("report", out_c, "--matrix", path)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv[0], err)
        # the anchor's Cholesky factor over the anchor block; no basis is stored
        assert float(kv(out)["storage_ratio"]) == pytest.approx((m + 1) / (2 * m), abs=1e-3)


def test_spd_uses_the_detected_blocks(tmp_path, capsys, monkeypatch):
    # diagonal blocks that agree to 1e-8 only: --detect-tol groups them, and
    # spd must compress the blocks detection verified rather than re-extract
    # them exactly
    rng = np.random.default_rng(109)
    a = spd_block_toeplitz(rng, s=5, m=4)
    for i in range(5):
        e = 1e-9 * rng.standard_normal((4, 4))
        a[4 * i:4 * i + 4, 4 * i:4 * i + 4] += e + e.T
    path = tmp_path / "near.mtx"
    write_matrix(path, a)
    args = ("compress", path, "-o", tmp_path / "near.btc", "--block-rows", 4, "--block-cols", 4,
            "--rank", 2, "--detect-tol", "1e-6")
    for method in ("spd", "spsd", "hosvd"):
        code, out, err = run_cli(capsys, *args, "--method", method)
        assert code == 0, (method, err)

    def no_extraction(*_):
        raise AssertionError("blocks extracted a second time")

    monkeypatch.setattr(psd, "extract_blocks", no_extraction)
    code, out, err = run_cli(capsys, *args, "--method", "spd")
    assert code == 0, err
    assert kv(out)["kind"] == "SpdRep"


def test_spsd_report_from_container_alone(tmp_path, capsys):
    a = spd_block_toeplitz(np.random.default_rng(107), s=5, m=6)
    path = tmp_path / "spd.mtx"
    write_matrix(path, a)
    out_c = tmp_path / "spsd.btc"
    code, out, _ = run_cli(capsys, "compress", path, "-o", out_c,
                           "--block-rows", 6, "--block-cols", 6,
                           "--method", "spsd", "--rank", 4,
                           "--pattern", "toeplitz")
    assert code == 0
    compress_pairs = kv(out)
    code, out, _ = run_cli(capsys, "report", out_c)
    assert code == 0
    pairs = kv(out)
    assert pairs["kind"] == "SpsdRep"
    assert pairs["rank"] == "4"
    assert pairs["shape"] == "30 x 30"
    # storage ratio derives from the pattern alone, so it matches compress time
    assert float(pairs["storage_ratio"]) == pytest.approx(
        float(compress_pairs["storage_ratio"]))


def test_report_with_matrix_adds_error_metrics(toep, tmp_path, capsys):
    path, _ = toep
    out_c = tmp_path / "c.btc"
    run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 4,
            "--block-cols", 4, "--method", "mode2", "--rank", 3)
    code, out, _ = run_cli(capsys, "report", out_c, "--matrix", path)
    assert code == 0
    pairs = kv(out)
    assert "relerr_fro" in pairs and "storage_ratio" in pairs
    # a multilevel container is certified the same way
    ml_c, rep = _multilevel_container(tmp_path)
    a = rep.densify() + 1e-3 * np.random.default_rng(110).standard_normal(rep.shape)
    mp = tmp_path / "ml.mtx"
    write_matrix(mp, a)
    code, out, _ = run_cli(capsys, "report", ml_c, "--matrix", mp)
    assert code == 0
    want = np.linalg.norm(a - rep.densify()) / np.linalg.norm(a)
    assert float(kv(out)["relerr_fro"]) == pytest.approx(want, rel=1e-12)


def _multilevel_container(tmp_path):
    inner = build_pattern("banded", 3, 3, 2, 2, band=1)
    mlp = MultilevelPattern(levels=(build_pattern("toeplitz", 2, 2, 6, 6), inner))
    tk = hosvd(np.random.default_rng(109).standard_normal(mlp.dims), [2, 3, 4, 2])
    rep = MultilevelTuckerRep(pattern=mlp, tucker=tk)
    path = tmp_path / "ml.btc"
    container_write(path, rep)
    return path, rep


def test_cp_compress_runs(toep, tmp_path, capsys):
    path, _ = toep
    code, out, _ = run_cli(capsys, "compress", path, "-o", tmp_path / "cp.btc",
                           "--block-rows", 4, "--block-cols", 4,
                           "--method", "cp", "--rank", 3)
    assert code == 0
    pairs = kv(out)
    assert pairs["kind"] == "KronSumRep"
    assert "cp_fit" in pairs


@pytest.mark.parametrize("extra", [(), ("--output", "blr")])
def test_cp_fit_is_one_minus_the_certified_error(toep, tmp_path, capsys, extra):
    # the fit cp_als reports without forming the model agrees with the error
    # certified on the written representation
    path, _ = toep
    code, out, _ = run_cli(capsys, "compress", path, "-o", tmp_path / "cp.btc",
                           "--block-rows", 4, "--block-cols", 4,
                           "--method", "cp", "--rank", 3, *extra)
    assert code == 0
    pairs = kv(out)
    assert pairs["cp_converged"] in ("True", "False")
    assert abs(float(pairs["cp_fit"]) - (1.0 - float(pairs["relerr_fro"]))) <= 1e-12


# compress certifies from the blocks it verified (every kind at --detect-tol 0);
# report --matrix reads the matrix again, so the two must agree
_CERTIFIED_RUNS = [
    *[("--method", method, "--rank", "2", "--output", output)
      for method in ("hosvd", "mode2", "cp") for output in ("kron_sum", "blr")],
    ("--method", "spsd", "--rank", "2"),
    ("--method", "spd", "--rank", "2"),
    ("--method", "mode2", "--rank", "2", "--detect-tol", "1e-12"),
]


@pytest.fixture(scope="module")
def certified_matrix(tmp_path_factory):
    a = spd_block_toeplitz(np.random.default_rng(112), s=5, m=3)
    root = tmp_path_factory.mktemp("certificate")
    paths = {"array": root / "array.mtx", "coordinate": root / "coordinate.mtx"}
    write_matrix(paths["array"], a)
    write_matrix(paths["coordinate"], scipy.sparse.csr_matrix(a))
    return paths


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
@pytest.mark.parametrize("flags", _CERTIFIED_RUNS, ids=" ".join)
def test_compress_certificate_equals_report_against_the_matrix(certified_matrix, tmp_path,
                                                               capsys, fmt, flags):
    path, out_c = certified_matrix[fmt], tmp_path / "c.btc"
    assert path.read_text().split("\n")[0].split()[2] == fmt
    code, out, err = run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 3,
                             "--block-cols", 3, *flags)
    assert code == 0, err
    code, out_r, err = run_cli(capsys, "report", out_c, "--matrix", path)
    assert code == 0, err
    keys = ("relerr_fro", "storage_ratio", "relerr_trace")
    got, want = ({k: float(v) for k, v in kv(o).items() if k in keys} for o in (out, out_r))
    assert got.keys() == want.keys() and "relerr_fro" in got
    assert got.pop("relerr_fro") == pytest.approx(want.pop("relerr_fro"), rel=1e-12, abs=0)
    assert got == want  # storage_ratio and relerr_trace exactly


def test_compress_at_tol_zero_reads_the_matrix_once(toep, certified_matrix, tmp_path, capsys,
                                                    monkeypatch):
    def reread(*_):
        raise AssertionError("the matrix was read again for its error")

    monkeypatch.setattr(apps, "error_fro", reread)
    runs = [(toep[0], 4, flags) for flags in (
        ("--method", "mode2", "--rank", "2"),
        ("--pattern", "toeplitz", "--method", "hosvd", "--rank", "2", "--output", "blr"))]
    runs += [(certified_matrix[fmt], 3, ("--method", method, "--rank", "2"))
             for fmt in ("array", "coordinate") for method in ("spd", "spsd", "cp")]
    for path, extent, flags in runs:
        code, out, err = run_cli(capsys, "compress", path, "-o", tmp_path / "c.btc",
                                 "--block-rows", extent, "--block-cols", extent, *flags)
        assert code == 0, (flags, err)
        assert {"relerr_fro", "storage_ratio"} <= kv(out).keys()


# compress --method mode2 factors the verified mode-2 rows on their support; the tensor path
# it replaced, tucker_partial on the tensor of the verified blocks, is its oracle

@pytest.fixture(scope="module")
def mode2_matrix(tmp_path_factory):
    """A 6 x 6 block-Toeplitz matrix of band 2 whose 5 x 5 blocks share a random support; the
    +2 diagonal's block is zero, so a named pattern has a class that holds only zeros."""
    rng = np.random.default_rng(120)
    pat = build_pattern("toeplitz", 6, 6, 5, 5, band=2)
    mask = rng.random((5, 5)) < 0.6
    blocks = [rng.standard_normal((5, 5)) * mask for _ in range(pat.p)]
    blocks[-1][:] = 0.0
    a = struct_assemble(pat, blocks)
    root = tmp_path_factory.mktemp("mode2")
    paths = {"array": root / "array.mtx", "coordinate": root / "coordinate.mtx"}
    write_matrix(paths["array"], a)
    write_matrix(paths["coordinate"], scipy.sparse.csr_matrix(a))
    return a, paths


def tensor_path(a, named: bool, rank, tol, output):
    """The form the parent's path writes: tucker_partial on the tensor of the verified blocks."""
    if named:
        pattern = build_pattern("toeplitz", 6, 6, 5, 5, band=2)
        blocks = extract_blocks(a, pattern)
    else:
        pattern, blocks = detect_pattern(a, 5, 5)
    t = blocks_to_tensor(pattern, blocks)
    tk = tucker_partial(t, [None, min(rank or pattern.p, pattern.p), None],
                        None if tol is None else tol * fro_norm(t))
    return (blr_from_tucker if output == "blr" else kron_sum_from_tucker)(tk, pattern)


def close(got, want):
    return fro_norm(got - want) <= 1e-12 * fro_norm(want)


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
@pytest.mark.parametrize("named", [True, False], ids=["toeplitz", "auto"])
@pytest.mark.parametrize("select", [("--rank", "2"), ("--tol", "0.6")], ids=" ".join)
@pytest.mark.parametrize("output", ["kron_sum", "blr"])
def test_mode2_matches_the_tensor_path(mode2_matrix, tmp_path, capsys, fmt, named, select,
                                       output):
    a, paths = mode2_matrix
    out_c = tmp_path / "c.btc"
    pattern = ("--pattern", "toeplitz", "--band", "2") if named else ()
    code, out, err = run_cli(capsys, "compress", paths[fmt], "-o", out_c, "--block-rows", 5,
                             "--block-cols", 5, "--method", "mode2", *select, *pattern,
                             "--output", output)
    assert code == 0, err
    got = container_read(out_c)
    want = tensor_path(a, named, int(select[1]) if select[0] == "--rank" else None,
                       float(select[1]) if select[0] == "--tol" else None, output)
    assert got.pattern == want.pattern
    if output == "kron_sum":
        assert np.array_equal(got.coeffs, want.coeffs)  # the same basis, bit for bit
        assert close(got.terms, want.terms)
        assert kv(out)["ranks"] == str(want.n_terms)
    else:
        assert np.array_equal(got.left, want.left) and np.array_equal(got.right, want.right)
        assert close(got.middles, want.middles)
    code, out_r, err = run_cli(capsys, "report", out_c, "--matrix", paths[fmt])
    assert code == 0, err
    relerr = float(kv(out)["relerr_fro"])
    assert 1e-3 < relerr == pytest.approx(float(kv(out_r)["relerr_fro"]), rel=1e-12, abs=0)
    assert kv(out)["storage_ratio"] == kv(out_r)["storage_ratio"]


def test_mode2_on_a_coordinate_file_builds_no_cell_stack(tmp_path, capsys, monkeypatch):
    # block-tridiagonal Toeplitz, 200 x 200 cells of 10 x 10 sparse blocks: the 598 nonzero
    # cells' stack would hold 59800 entries
    s, m = 200, 10
    terms = [scipy.sparse.kron(scipy.sparse.eye(s, k=d),
                               scipy.sparse.random(m, m, density=0.3, random_state=d + 5)
                               + scipy.sparse.eye(m))
             for d in (-1, 0, 1)]
    path = tmp_path / "tri.mtx"
    write_matrix(path, (terms[0] + terms[1] + terms[2]).tocsr())
    monkeypatch.setattr(block_maps, "DENSIFY_LIMIT", 59800 - 1)
    flags = ("--block-rows", m, "--block-cols", m, "--pattern", "toeplitz", "--band", 1,
             "--rank", 2)
    code, out, err = run_cli(capsys, "compress", path, "-o", tmp_path / "m.btc", *flags,
                             "--method", "mode2")
    assert code == 0, err
    assert kv(out)["ranks"] == "2" and float(kv(out)["relerr_fro"]) > 0
    code, _, err = run_cli(capsys, "compress", path, "-o", tmp_path / "h.btc", *flags,
                           "--method", "hosvd")
    assert code == 3 and "598 nonzero 10 x 10 cells would hold 59800 entries" in err


@pytest.mark.parametrize("limit, refused", [(192, None), (191, 192), (149, 150), (63, 64)],
                         ids=["holds", "core", "rows", "block"])
def test_mode2_refuses_what_it_cannot_hold(tmp_path, capsys, monkeypatch, limit, refused):
    # a 20 x 20 block-tridiagonal Toeplitz grid of 8 x 8 blocks sharing a 50-entry support:
    # the rows hold 3 x 50 entries, a rank-3 core 3 x 64 and a block 64
    rng = np.random.default_rng(121)
    pat = build_pattern("toeplitz", 20, 20, 8, 8, band=1)
    mask = np.zeros(64, dtype=bool)
    mask[rng.permutation(64)[:50]] = True
    blocks = [rng.standard_normal((8, 8)) * mask.reshape(8, 8) for _ in range(pat.p)]
    path = tmp_path / "tri.mtx"
    write_matrix(path, scipy.sparse.csr_matrix(struct_assemble(pat, blocks)))
    monkeypatch.setattr(block_maps, "DENSIFY_LIMIT", limit)
    code, _, err = run_cli(capsys, "compress", path, "-o", tmp_path / "m.btc", "--block-rows", 8,
                           "--block-cols", 8, "--pattern", "toeplitz", "--band", 1, "--rank", 3,
                           "--method", "mode2")
    if refused is None:
        assert code == 0, err
    else:
        assert code == 3 and f"dense result would hold {refused} entries (limit {limit})" in err


@pytest.mark.parametrize("entries, select, want", [
    ("", ("--rank", 2), "ranks: 2\nterms: 2\n"),  # no entry: no error and no ratio printed
    ("", ("--tol", 0.1), "ranks: 1\nterms: 1\n"),
    ("1 1 -0.0\n6 5 -0.0\n", ("--rank", 2), "ranks: 2\nterms: 2\n"),  # cells holding -0.0
    ("1 1 -0.0\n3 3 2.5\n", ("--rank", 2),
     "ranks: 2\nterms: 2\nrelerr_fro: 0.0\nstorage_ratio: 21.0\n"),  # classes holding zeros
])
def test_mode2_on_degenerate_input_prints_what_the_tensor_path_prints(
        tmp_path, capsys, monkeypatch, entries, select, want):
    path = tmp_path / "z.mtx"
    count = entries.count("\n")
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n8 8 {count}\n{entries}")
    basis = decomp._mode_basis

    def nonempty_basis(mat, *args, **kwargs):
        assert mat.shape[1] > 0, "an empty unfolding reached the basis kernel"
        return basis(mat, *args, **kwargs)

    monkeypatch.setattr(decomp, "_mode_basis", nonempty_basis)
    code, out, err = run_cli(capsys, "compress", path, "-o", tmp_path / "z.btc",
                             "--block-rows", 2, "--block-cols", 2, "--pattern", "banded",
                             "--band", 1, "--method", "mode2", *select)
    assert code == 0, err
    assert out == "kind: KronSumRep\nmethod: mode2\n" + want
    a = read_matrix(path)
    pattern = build_pattern("banded", 4, 4, 2, 2, band=1)
    t = blocks_to_tensor(pattern, extract_blocks(a, pattern))
    rank, budget = (select[1], None) if select[0] == "--rank" else (pattern.p, 0.1 * fro_norm(t))
    ref = kron_sum_from_tucker(tucker_partial(t, [None, rank, None], budget), pattern)
    got = container_read(tmp_path / "z.btc")
    assert np.array_equal(got.coeffs, ref.coeffs) and np.array_equal(got.terms, ref.terms)


# ---------------------------------------------------------------------------
# failure taxonomy
# ---------------------------------------------------------------------------


def test_exit_2_missing_input(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", tmp_path / "nope.mtx",
                           "--block-rows", 2, "--block-cols", 2)
    assert code == 2
    assert "error" in err


def test_exit_2_usage_errors(toep, tmp_path, capsys):
    path, _ = toep
    out_c = tmp_path / "o.btc"
    cases = [
        ("--method", "cp", "--rank", 2, "--randomized"),
        ("--method", "mode2", "--ranks", "1,2,3"),
        ("--method", "cp", "--tol", "1e-3"),
        ("--method", "spd", "--tol", "0"),
        ("--method", "spsd", "--rank", 0),
        ("--method", "hosvd", "--ranks", "1,2"),
        ("--method", "hosvd", "--ranks", "a,b,c"),
        ("--method", "hosvd", "--ranks", "0,2,2"),
        ("--method", "hosvd", "--tol", "-1"),
        ("--method", "hosvd", "--tol", "nan"),
        ("--method", "mode2", "--tol", "inf"),
        ("--method", "hosvd", "--rank", 2, "--detect-tol", "-1"),
        ("--method", "hosvd", "--rank", 2, "--detect-tol", "nan"),
        ("--method", "hosvd", "--rank", 2, "--randomized", "--sketch", 0),
        ("--method", "mode2", "--rank", 2, "--randomized", "--sketch", -3),
        ("--method", "cp", "--rank", 2, "--split", "qr"),  # no such flag
        ("--method", "hosvd", "--rank", 2, "--band", 1),
        ("--method", "hosvd", "--rank", 2, "--symmetric"),
        ("--method", "hosvd", "--rank", 2, "--pattern", "hankel", "--band", 1),
        ("--method", "hosvd", "--rank", 2, "--pattern", "diagonal", "--symmetric"),
        ("--method", "hosvd", "--rank", 2, "--pattern", "banded"),
        ("--method", "spd", "--rank", 2, "--pattern", "banded", "--symmetric"),
        ("--method", "hosvd", "--rank", 2, "--sketch", 7),
        ("--method", "spsd", "--rank", 2, "--output", "blr"),
        ("--method", "spd", "--rank", 2, "--output", "kron_sum"),
        ("--method", "mode2", "--tol", "1e-3", "--randomized"),
        ("--method", "hosvd", "--rank", 2, "--randomized", "--seed", -1),
        ("--method", "hosvd", "--rank", 2, "--pattern", "banded", "--band", -1),
        ("--method", "hosvd", "--rank", 2, "--pattern", "toeplitz", "--band", -1),
    ]
    for extra in cases:
        code, _, err = run_cli(capsys, "compress", path, "-o", out_c,
                               "--block-rows", 4, "--block-cols", 4, *extra)
        assert code == 2, extra
        assert "error" in err
        assert not out_c.exists()
    for extra in (("--band", 1), ("--pattern", "hankel", "--symmetric"), ("--pattern", "banded")):
        code, _, err = run_cli(capsys, "analyze", path, "--block-rows", 4, "--block-cols", 4,
                               *extra)
        assert code == 2 and "error" in err, extra


def test_misplaced_flag_is_reported_before_the_input_is_read(tmp_path, capsys):
    missing = tmp_path / "nope.mtx"
    code, _, err = run_cli(capsys, "compress", missing, "-o", tmp_path / "o.btc",
                           "--block-rows", 2, "--block-cols", 2, "--method", "cp",
                           "--rank", 2, "--sketch", 3)
    assert code == 2 and "--sketch does not apply to --method cp" in err
    assert "nope.mtx" not in err
    code, _, err = run_cli(capsys, "analyze", missing, "--block-rows", 2, "--block-cols", 2,
                           "--band", 1)
    assert code == 2 and "--band" in err and "nope.mtx" not in err
    code, _, err = run_cli(capsys, "compress", missing, "-o", tmp_path / "o.btc",
                           "--block-rows", 2, "--block-cols", 2, "--method", "cp",
                           "--rank", 2, "--split", "qr")
    assert code == 2 and "unrecognized arguments: --split qr" in err


@pytest.mark.parametrize("pattern", [(), ("--pattern", "toeplitz")])
def test_exit_3_cp_on_a_zero_matrix(tmp_path, capsys, pattern):
    path, out_c = tmp_path / "zero.mtx", tmp_path / "cp.btc"
    write_matrix(path, np.zeros((12, 12)))
    code, _, err = run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 4,
                           "--block-cols", 4, "--method", "cp", "--rank", 2, *pattern)
    assert code == 3 and err.startswith("error: ")
    assert not out_c.exists()


def test_matvec_rescales_an_overflowing_product_or_exits_4(tmp_path, capsys):
    # A = 2 I in 4 x 4 diagonal blocks, whose one Kronecker term holds
    # sqrt(eta) * 2 I = 4 I: on the vector 5e307 its partial products overflow
    # while A x = 1e308 is finite; on 1e308 the product itself overflows
    path, out_c = tmp_path / "a.mtx", tmp_path / "a.btc"
    write_matrix(path, 2.0 * np.eye(16))
    code, _, _ = run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 4,
                         "--block-cols", 4, "--pattern", "diagonal", "--method", "mode2",
                         "--rank", 1)
    assert code == 0
    xp, yp = tmp_path / "x.txt", tmp_path / "y.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would raise here
        x = np.full(16, 1e308)
        write_vector(xp, x / 2)
        code, _, err = run_cli(capsys, "matvec", out_c, xp, "-o", yp)
        assert code == 0, err
        np.testing.assert_allclose(read_vector(yp), x, rtol=1e-15)
        yp.unlink()
        write_vector(xp, x)
        code, out, err = run_cli(capsys, "matvec", out_c, xp, "-o", yp)
    assert code == 4 and out == ""
    assert err == "error: the product leaves the float range\n"
    assert not yp.exists()


def test_exit_2_matvec_nonfinite_vector(toep, tmp_path, capsys):
    path, a = toep
    out_c = tmp_path / "c.btc"
    run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 4,
            "--block-cols", 4, "--method", "hosvd", "--rank", 2)
    xp = tmp_path / "x.txt"
    x = np.ones(a.shape[1])
    x[3] = np.nan
    write_vector(xp, x)
    code, _, err = run_cli(capsys, "matvec", out_c, xp, "-o", tmp_path / "y.txt")
    assert code == 2
    assert "non-finite" in err
    assert not (tmp_path / "y.txt").exists()


def test_exit_2_nonfinite_matrix(toep, tmp_path, capsys):
    _, a = toep
    dense = a.copy()  # written in array format
    dense[5, 2] = np.nan
    sparse = np.zeros_like(a)  # written in coordinate format
    sparse[0, 0] = 1.0
    sparse[9, 1] = -np.inf
    out_c = tmp_path / "c.btc"
    for bad, where in ((dense, "nan at row 6, column 3"), (sparse, "-inf at row 10, column 2")):
        path = tmp_path / "bad.mtx"
        write_matrix(path, bad)
        code, _, err = run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 4,
                               "--block-cols", 4, "--method", "hosvd", "--rank", 2)
        assert code == 2
        assert f"non-finite entry {where}" in err
        assert not out_c.exists()
    # whole inf and nan tokens, in any case, pass the byte check to reach the located message
    for text, where in ((_MM_COORD + "1 1 1.0\n2 2 inf\n", "inf at row 2, column 2"),
                        (_MM_ARRAY + "1.0\n-Infinity\n3.0\nNaN\n", "-inf at row 2, column 1")):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        code, _, err = run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 1,
                               "--block-cols", 1, "--method", "hosvd", "--rank", 1)
        assert code == 2 and f"non-finite entry {where}" in err, err
        assert not out_c.exists()


_MM_ARRAY = "%%MatrixMarket matrix array real general\n2 2\n"
_MM_COORD = "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
_MM_INT_ARRAY = "%%MatrixMarket matrix array integer general\n2 2\n"
_MM_INT_COORD = "%%MatrixMarket matrix coordinate integer general\n2 2 2\n"


@pytest.mark.parametrize("body", [
    _MM_ARRAY + "1.0\nabc\n3.0\n4.0\n",  # a bad float, array format
    _MM_COORD + "1 1 1.0\n2 2 x\n",  # a bad float, coordinate format
    _MM_COORD + "1 1 1.0\n2 2\n",  # a missing value
    _MM_ARRAY + "1.0\n2.0\n3.0\n",  # a truncated array body
    _MM_COORD + "1 1 1.0\n",  # a truncated coordinate body
    _MM_COORD + "0 1 1.0\n2 2 1.0\n",  # a row index of 0
    _MM_COORD + "3 1 1.0\n2 2 1.0\n",  # a row index beyond the extent
    _MM_COORD + "1 1 1.0\n2 2 1.0\n1 2 1.0\n",  # surplus entries
    _MM_COORD + "99999999999999999999 1 1.0\n2 2 1.0\n",  # an index beyond int64
    _MM_INT_COORD + "1 1 1.5\n2 2 1\n",  # scipy would read these integer values as 1
    _MM_INT_COORD + "1 1 1e3\n2 2 1\n",
    _MM_INT_ARRAY + "1.5\n2\n3\n4\n",
    _MM_INT_COORD.encode() + b"1 1 \xff\n2 2 1\n",  # not UTF-8
    _MM_COORD + "1 1 1.0 5\n2 2 1.0\n",  # scipy would skip these surplus tokens
    _MM_COORD + "1 1 1.0\n2 2 1.0 % a comment\n",
    _MM_ARRAY + "1.0 7\n2.0\n3.0\n4.0\n",
    _MM_COORD + "1 1 1.0\n2 2 1.0 5",  # and crash on them without a last line end
    "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n3.0\n4.0\n",
    _MM_COORD + "1 1 1.0\n2 2 4x\n",  # scipy would read these values up to the garbage
    _MM_COORD + "1 1 1.0%\n2 2 1.0\n",
    _MM_COORD + "1 1 1.0\n2 2 4n\n",
    _MM_ARRAY + "1.0\n2x\n3.0\n4.0\n",
], ids=["array_float", "coordinate_float", "missing_value", "array_truncated",
        "coordinate_truncated", "row_0", "row_beyond", "surplus", "index_overflow",
        "integer_fraction", "integer_exponent", "integer_array_fraction", "integer_not_utf8",
        "coordinate_surplus_token", "coordinate_trailing_comment", "array_surplus_token",
        "unterminated_surplus_token", "symmetric_array_surplus_value", "glued_letter",
        "glued_percent", "glued_n", "array_glued_letter"])
def test_exit_2_malformed_matrix_market_body(tmp_path, capsys, body):
    good, out_c = tmp_path / "good.mtx", tmp_path / "c.btc"
    write_matrix(good, np.eye(2))
    assert run_cli(capsys, "compress", good, "-o", out_c, "--block-rows", 1,
                   "--block-cols", 1, "--method", "mode2", "--rank", 1)[0] == 0
    path = tmp_path / "bad.mtx"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    blocks = ("--block-rows", 1, "--block-cols", 1)
    for argv in (("analyze", path, *blocks),
                 ("compress", path, "-o", tmp_path / "d.btc", *blocks, "--method", "mode2",
                  "--rank", 1),
                 ("report", out_c, "--matrix", path)):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, (argv[0], err)
        assert err.startswith("error: malformed Matrix Market file: "), err
        assert "Traceback" not in err
    assert not (tmp_path / "d.btc").exists()


@pytest.mark.parametrize("blob, line", [(b"1.0\n\xff\n", 2), (b"1.0\r2.0\r\n3.0\r\xc3(\n", 4),
                                        (b"\xe2\x82", 1)])
def test_exit_2_vector_that_is_not_utf8(toep, tmp_path, capsys, blob, line):
    path, _ = toep
    out_c = tmp_path / "c.btc"
    run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 4,
            "--block-cols", 4, "--method", "hosvd", "--rank", 2)
    xp = tmp_path / "bad.txt"
    xp.write_bytes(blob)
    code, _, err = run_cli(capsys, "matvec", out_c, xp, "-o", tmp_path / "y.txt")
    assert code == 2
    assert err.startswith(f"error: {xp}:{line}: not UTF-8 text ("), err
    assert not (tmp_path / "y.txt").exists()


def test_exit_2_argparse_level(capsys):
    code, _, _ = run_cli(capsys, "compress", "x.mtx", "-o", "y.btc",
                         "--block-rows", 4, "--block-cols", 4,
                         "--method", "bogus", "--rank", 1)
    assert code == 2


def test_exit_3_dimension_mismatch(toep, tmp_path, capsys):
    path, _ = toep
    code, _, err = run_cli(capsys, "compress", path, "-o", tmp_path / "o.btc",
                           "--block-rows", 5, "--block-cols", 4,
                           "--method", "hosvd", "--rank", 2)
    assert code == 3
    assert "does not tile" in err
    # a band the 6 x 6 grid cannot hold shows only after the read
    for kind, why in (("banded", "needs 0 <= band < 6"), ("toeplitz", "must lie in [0, 5]")):
        code, _, err = run_cli(capsys, "compress", path, "-o", tmp_path / "o.btc",
                               "--block-rows", 4, "--block-cols", 4, "--pattern", kind,
                               "--band", 6, "--method", "hosvd", "--rank", 2)
        assert code == 3 and why in err, err


def test_exit_3_matvec_length_mismatch(toep, tmp_path, capsys):
    path, _ = toep
    out_c = tmp_path / "c.btc"
    run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 4,
            "--block-cols", 4, "--method", "hosvd", "--rank", 2)
    xp = tmp_path / "x.txt"
    write_vector(xp, np.ones(7))
    code, _, _ = run_cli(capsys, "matvec", out_c, xp, "-o", tmp_path / "y.txt")
    assert code == 3
    ml_c, _ = _multilevel_container(tmp_path)
    code, _, err = run_cli(capsys, "matvec", ml_c, xp, "-o", tmp_path / "y.txt")
    assert code == 3 and "vector length (7,) != (12,)" in err


@pytest.mark.parametrize("method", ["mode2", "spsd"])
def test_exit_3_report_matrix_shape_mismatch(tmp_path, capsys, method):
    a = spd_block_toeplitz(np.random.default_rng(108), s=4, m=6)
    path, wrong = tmp_path / "a.mtx", tmp_path / "wrong.mtx"
    write_matrix(path, a)
    write_matrix(wrong, a[:18, :18])
    out_c = tmp_path / "c.btc"
    code, _, _ = run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 6,
                         "--block-cols", 6, "--pattern", "toeplitz", "--method", method,
                         "--rank", 3)
    assert code == 0
    code, out, err = run_cli(capsys, "report", out_c, "--matrix", wrong)
    assert code == 3
    assert "matrix shape (18, 18) != representation shape (24, 24)" in err
    assert "relerr" not in out and "storage_ratio" not in out


def test_exit_2_truncated_container(toep, tmp_path, capsys):
    path, _ = toep
    out_c = tmp_path / "c.btc"
    run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 4,
            "--block-cols", 4, "--method", "hosvd", "--rank", 2)
    trunc = tmp_path / "trunc.btc"
    trunc.write_bytes(out_c.read_bytes()[:-64])
    code, _, err = run_cli(capsys, "reconstruct", trunc, "-o", tmp_path / "z.mtx")
    assert code == 2
    assert "truncat" in err


def test_exit_3_corrupted_extent_field(toep, tmp_path, capsys):
    path, _ = toep
    out_c = tmp_path / "c.btc"
    run_cli(capsys, "compress", path, "-o", out_c, "--block-rows", 4,
            "--block-cols", 4, "--method", "hosvd", "--rank", 2)
    blob = bytearray(out_c.read_bytes())
    off = blob.find(b"\n---\n") + 5 + 8  # first extent of the first array
    ext = struct.unpack_from("<q", blob, off)[0]
    struct.pack_into("<q", blob, off, ext + 1)
    bad = tmp_path / "bad.btc"
    bad.write_bytes(bytes(blob))
    code, _, err = run_cli(capsys, "reconstruct", bad, "-o", tmp_path / "z.mtx")
    assert code == 3
    assert "extents" in err


@pytest.mark.parametrize("cell, code, message", [
    (b"-5,1", 3, "error: class 2: placement outside the 3 x 3 grid"),
    (b"99999999999999999999,1", 3, "error: class 2: placement outside the 3 x 3 grid"),
    (b"999999999999999999,1", 3, "error: class 2: placement outside the 3 x 3 grid"),
    (b"2,2,1", 2, "error: bad cell '2,2,1' in pattern.class.2"),
])
def test_a_bad_cell_in_a_container_exits_with_its_code(tmp_path, capsys, cell, code, message):
    pat = build_pattern("diagonal", 3, 3, 2, 2)
    good = tmp_path / "good.btc"
    container_write(good, KronSumRep(pattern=pat, coeffs=np.ones((3, 1)), terms=np.ones((1, 2, 2))))
    bad = tmp_path / "bad.btc"
    bad.write_bytes(good.read_bytes().replace(b"class.2: 2,2\n", b"class.2: " + cell + b"\n"))
    assert bad.read_bytes() != good.read_bytes()
    got, _, err = run_cli(capsys, "report", bad)
    assert (got, err.strip()) == (code, message)


def _payload_int(blob: bytes, index: int, value: int) -> bytes:
    """``blob`` with the ``index``-th int64 of its payload set to ``value``."""
    at = blob.find(b"\n---\n") + 5 + 8 * index
    return blob[:at] + struct.pack("<q", value) + blob[at + 8:]


def _edit(old: bytes, new: bytes):
    def edit(blob):
        assert old in blob
        return blob.replace(old, new, 1)
    return edit


@pytest.mark.parametrize("kind, edit, code, message", [
    ("kron_sum", _edit(b"kind: kron_sum\n", b""), 2, "missing header key 'kind'"),
    ("kron_sum", lambda blob: _payload_int(blob, 0, 7), 3, "array 'coeffs': implausible rank 7"),
    ("kron_sum", lambda blob: _payload_int(blob, 1, -1), 3,
     "array 'coeffs': negative extent (-1, 1)"),
    ("kron_sum", lambda blob: blob + bytes(8), 2, "8 trailing bytes after the last array"),
    ("kron_sum", _edit(b"blockten 0.1.0", b"blockten \xff"), 2, "header is not UTF-8"),
    ("kron_sum", _edit(b"kind: kron_sum\n", b"kind: kron_sum\nbogus\n"), 2,
     "malformed header line 'bogus'"),
    ("kron_sum", _edit(b"kind: kron_sum\n", b"kind: kron_sum\nkind: kron_sum\n"), 2,
     "duplicate header key 'kind'"),
    ("kron_sum", lambda blob: blob.replace(b"terms", b"terns", 2), 2,
     "array 'terms' missing from payload"),
    ("multilevel", _edit(b"factors: dense dense dense dense", b"factors: dense dense dense"), 2,
     "expected 4 factor markers, got 3"),
    ("multilevel", _edit(b"factors: dense dense dense dense", b"factors: dense dense dense sparse"),
     2, "unknown factor marker 'sparse'"),
])
def test_a_damaged_container_is_refused_with_its_code(tmp_path, capsys, kind, edit, code, message):
    if kind == "multilevel":
        good, _ = _multilevel_container(tmp_path)
    else:
        good = tmp_path / "good.btc"
        container_write(good, KronSumRep(pattern=build_pattern("diagonal", 3, 3, 2, 2),
                                         coeffs=np.ones((3, 1)), terms=np.ones((1, 2, 2))))
    bad = tmp_path / "bad.btc"
    bad.write_bytes(edit(good.read_bytes()))
    got, out, err = run_cli(capsys, "report", bad)
    assert (got, out) == (code, "") and err.startswith(f"error: {message}"), err


def test_unsupported_objects_are_not_written(tmp_path):
    with pytest.raises(ContainerFormatError, match="^unsupported representation object$"):
        container_write(tmp_path / "x.btc", object())
    assert not (tmp_path / "x.btc").exists()


def test_a_named_pattern_that_does_not_tile_the_matrix_exits_3(toep, tmp_path, capsys):
    path, _ = toep
    code, out, err = run_cli(capsys, "compress", path, "-o", tmp_path / "o.btc", "--block-rows",
                             5, "--block-cols", 4, "--pattern", "toeplitz", "--method", "hosvd",
                             "--rank", 2)
    assert (code, out) == (3, "")
    assert err.strip() == "error: matrix (24, 24) is not tiled by 5 x 4 blocks"


def test_exit_4_indefinite_matrix_for_spd(tmp_path, capsys):
    m, s = 3, 4
    t0 = np.diag([1.0, -5.0, 2.0])
    off = 0.1 * np.random.default_rng(108).standard_normal((m, m))
    a = np.zeros((s * m, s * m))
    for i in range(s):
        for j in range(s):
            d = j - i
            if d == 0:
                a[i * m:(i + 1) * m, j * m:(j + 1) * m] = t0
            elif d == 1:
                a[i * m:(i + 1) * m, j * m:(j + 1) * m] = off
            elif d == -1:
                a[i * m:(i + 1) * m, j * m:(j + 1) * m] = off.T
    path = tmp_path / "indef.mtx"
    write_matrix(path, a)
    code, _, err = run_cli(capsys, "compress", path, "-o", tmp_path / "i.btc",
                           "--block-rows", 3, "--block-cols", 3,
                           "--method", "spd", "--rank", 2,
                           "--pattern", "toeplitz", "--band", 1)
    assert code == 4
    assert "positive definite" in err


# ---------------------------------------------------------------------------
# the flag contract of compress
# ---------------------------------------------------------------------------


def _readme_flag_table() -> dict:
    """The compress flags each method takes besides --rank, read from README's table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = text.split("| `--method` | other compress flags it takes |\n")[1].split("\n\n")[0]
    takes = {}
    for row in rows.splitlines()[1:]:  # past the |---|---| line
        methods, flags = row.strip().strip("|").split("|")
        for method in re.findall(r"`([^`]+)`", methods):
            takes[method] = set(re.findall(r"`([^`]+)`", flags))
    return takes


_TAKES = _readme_flag_table()


def test_readme_flag_table_is_the_cli_table():
    assert _TAKES == {method: {f"--{flag}" for flag in flags}
                      for method, flags in cli._METHOD_FLAGS.items()}


_SCALES = (0.0, 1e-310, 1.0, 1e300)


@pytest.fixture(scope="module")
def scaled_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("contract")
    a = spd_block_toeplitz(np.random.default_rng(114), s=4, m=3)
    paths = {}
    for scale in _SCALES:
        paths[scale] = work / f"a_{scale}.mtx"
        write_matrix(paths[scale], scale * a)
    write_vector(work / "x.txt", np.random.default_rng(115).standard_normal(a.shape[1]))
    return work, paths


def _run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _finite_text(text: str) -> bool:
    return not any(word in text.lower() for word in ("nan", "inf"))


@settings(max_examples=80, deadline=None)
@given(method=st.sampled_from(sorted(_TAKES)),
       rank=st.sampled_from([("--rank", "2"), ("--ranks", "2,2,2"), ("--tol", "1e-3"),
                             ("--tol", "0")]),
       output=st.sampled_from([(), ("--output", "kron_sum"), ("--output", "blr")]),
       randomized=st.booleans(), sketch=st.booleans(),
       seed=st.sampled_from([None, "0", "7", "-1"]),
       pattern=st.sampled_from([(), ("--pattern", "toeplitz"), ("--symmetric",),
                                ("--pattern", "banded", "--band", "1")]),
       scale=st.sampled_from(_SCALES))
# one run per row of the table: each with a flag its row does not list, but hosvd, whose row
# lists every drawn flag, with all of them
@example(method="hosvd", rank=("--ranks", "2,2,2"), output=("--output", "blr"),
         randomized=True, sketch=True, seed="7", pattern=(), scale=1.0)
@example(method="mode2", rank=("--ranks", "2,2,2"), output=(), randomized=False,
         sketch=False, seed=None, pattern=(), scale=1.0)
@example(method="cp", rank=("--rank", "2"), output=("--output", "blr"), randomized=True,
         sketch=False, seed="0", pattern=(), scale=1.0)
@example(method="spsd", rank=("--rank", "2"), output=("--output", "kron_sum"),
         randomized=False, sketch=False, seed=None, pattern=(), scale=1.0)
@example(method="spd", rank=("--tol", "0"), output=(), randomized=False, sketch=False,
         seed=None, pattern=(), scale=1.0)
def test_compress_exits_2_exactly_when_a_flag_rule_is_broken(
        scaled_inputs, method, rank, output, randomized, sketch, seed, pattern, scale):
    work, paths = scaled_inputs
    flags = [*rank, *output, *pattern, *(() if seed is None else ("--seed", seed))]
    flags += ["--randomized"] * randomized + ["--sketch", "6"] * sketch
    table_flags = {f for f in flags if f[:2] == "--"} - {
        "--rank", "--seed", "--pattern", "--band", "--symmetric"}
    broken = (pattern == ("--symmetric",)  # --symmetric needs banded or toeplitz
              or not table_flags <= _TAKES[method]
              or ((sketch or seed is not None) and not randomized)
              or (randomized and (rank[0] == "--tol" or seed == "-1")))
    out_c = work / "c.btc"
    out_c.unlink(missing_ok=True)
    code, out, err = _run_quiet("compress", paths[scale], "-o", out_c, "--block-rows", 3,
                                "--block-cols", 3, "--method", method, *flags)
    if broken:
        assert code == 2 and not out_c.exists(), err
    else:
        assert code in (0, 3, 4), err
    assert code == 0 or "error:" in err
    assert _finite_text(out)
    if code != 0:
        return
    for command, written in ((("matvec", out_c, work / "x.txt"), work / "y.txt"),
                             (("reconstruct", out_c), work / "r.mtx"),
                             (("report", out_c, "--matrix", paths[scale]), None)):
        if written is not None:
            written.unlink(missing_ok=True)
            command += ("-o", written)
        code, out, err = _run_quiet(*command)
        assert code in (0, 3, 4) and (code == 0 or "error:" in err), (command[0], err)
        if code == 0 and written is not None:
            out += written.read_text()
        assert _finite_text(out), command[0]
