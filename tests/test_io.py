"""File formats: Matrix Market, vectors, and the container."""

import bz2
import gzip
import hashlib
import math
import re

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockten import (
    BlockLowRankRep,
    KronSumRep,
    MultilevelPattern,
    MultilevelTuckerRep,
    build_pattern,
    container_read,
    container_write,
    detect_pattern,
    fileio,
    hosvd,
    mat_to_tensor,
    struct_assemble,
)
from blockten.blocks import BlockPattern
from blockten.cli import main
from blockten.container import _WRITTEN, MAGIC, _parse_pattern, _pattern_lines
from blockten.errors import ContainerExtentError, ContainerFormatError, ShapeError
from blockten.fileio import read_matrix, read_vector, write_matrix, write_vector
from blockten.multilevel import ml_mat_to_tensor
from blockten.psd import SpdRep, SpsdRep, spd_compress, spsd_compress
from blockten.reconstruct import blr_from_tucker, densify, kron_sum_from_tucker

from helpers import PATTERN_KINDS, random_pattern


# ---------------------------------------------------------------------------
# Matrix Market
# ---------------------------------------------------------------------------


def test_mm_identity_coordinate_file(tmp_path):
    path = tmp_path / "eye.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n"
    )
    got = read_matrix(path)
    assert scipy.sparse.issparse(got)  # coordinate files stay sparse
    np.testing.assert_array_equal(got.toarray(), np.eye(2))


def test_mm_symmetric_lower_triangle_expands(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 3\n1 1 2.0\n2 1 5.0\n2 2 3.0\n"
    )
    np.testing.assert_array_equal(read_matrix(path).toarray(),
                                  np.array([[2.0, 5.0], [5.0, 3.0]]))


def test_mm_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((7, 5)) * np.pi
    path = tmp_path / "dense.mtx"
    write_matrix(path, dense)
    np.testing.assert_array_equal(read_matrix(path), dense)

    sparse = scipy.sparse.random(20, 20, density=0.1, random_state=1)
    path2 = tmp_path / "sparse.mtx"
    write_matrix(path2, sparse)
    np.testing.assert_array_equal(read_matrix(path2).toarray(), sparse.toarray())


def test_mm_rejects_complex_and_malformed(tmp_path):
    bad_field = tmp_path / "cplx.mtx"
    bad_field.write_text(
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 2.0\n"
    )
    with pytest.raises(ContainerFormatError):
        read_matrix(bad_field)
    bad_header = tmp_path / "junk.mtx"
    bad_header.write_text("not a matrix market file\n")
    with pytest.raises(ContainerFormatError):
        read_matrix(bad_header)
    pattern_field = tmp_path / "pat.mtx"
    pattern_field.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n"
    )
    with pytest.raises(ContainerFormatError):
        read_matrix(pattern_field)
    with pytest.raises(ShapeError, match="write_matrix expects a matrix"):
        write_matrix(tmp_path / "cube.mtx", np.zeros((2, 2, 2)))
    assert not (tmp_path / "cube.mtx").exists()


def test_mm_coordinate_file_sums_duplicates_and_converts_to_dense(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 3 3\n1 1 1.5\n2 3 -1.0\n1 1 2.0\n")
    got = read_matrix(path)
    assert got.nnz == 2
    np.testing.assert_array_equal(np.asarray(got), [[3.5, 0.0, 0.0], [0.0, 0.0, -1.0]])


def test_mm_coordinate_file_names_its_first_nonfinite_entry(tmp_path):
    path = tmp_path / "nan.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "3 3 3\n3 1 inf\n2 3 nan\n1 2 2.0\n")
    with pytest.raises(ContainerFormatError, match="nan at row 2, column 3"):
        read_matrix(path)


def test_mm_finite_values_whose_sum_overflows_read(tmp_path):
    path = tmp_path / "big.mtx"
    write_matrix(path, np.full((2, 2), 1e308))
    np.testing.assert_array_equal(read_matrix(path), np.full((2, 2), 1e308))


_MM_INT = "%%MatrixMarket matrix coordinate integer general\n% a comment\r\n2 2 2\n"


@pytest.mark.parametrize("opener", [open, gzip.open, bz2.open], ids=["plain", "gz", "bz2"])
def test_mm_integer_file_reads_whole_values_and_refuses_others(tmp_path, opener):
    suffix = {open: "", gzip.open: ".gz", bz2.open: ".bz2"}[opener]
    good, bad = tmp_path / f"good.mtx{suffix}", tmp_path / f"bad.mtx{suffix}"
    with opener(good, "wb") as fh:  # scipy decompresses by the suffix; so does the check
        fh.write((_MM_INT + "1 1 -3\r\n2 2 40\n").encode())
    np.testing.assert_array_equal(read_matrix(good).toarray(), [[-3.0, 0.0], [0.0, 40.0]])
    with opener(bad, "wb") as fh:
        fh.write((_MM_INT + "1 1 -3\n2 2 4.5\n").encode())
    with pytest.raises(ContainerFormatError, match="not an integer in an integer file"):
        read_matrix(bad)


_SYM_ARRAY = "%%MatrixMarket matrix array real symmetric\n% a\n  % b c\n\n3 3\n"
_SKEW_ARRAY = "%%MatrixMarket matrix array real skew-symmetric\n3 3\n"
_SYM_COORD = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n"


@pytest.mark.parametrize("opener", [open, gzip.open, bz2.open], ids=["plain", "gz", "bz2"])
@pytest.mark.parametrize("text, dense", [
    (_SYM_ARRAY + "1\n2\n3\n4\n5\n6", [[1, 2, 3], [2, 4, 5], [3, 5, 6]]),  # no last line end
    (_SKEW_ARRAY + "1\r\n2\r\n\r\n3\r\n", [[0, -1, -2], [1, 0, -3], [2, 3, 0]]),
    (_SYM_COORD + "1 1 1.0\n\n2 1 3.0  ", [[1, 3], [3, 0]]),  # scipy crashed on these
    (_MM_INT + "1 1 -3\r\n2 2 40\n", [[-3, 0], [0, 40]]),
], ids=["symmetric_array", "skew_array", "symmetric_coordinate", "integer_coordinate"])
def test_mm_body_holds_the_tokens_its_header_implies(tmp_path, opener, text, dense):
    suffix = {open: "", gzip.open: ".gz", bz2.open: ".bz2"}[opener]
    good, bad = tmp_path / f"good.mtx{suffix}", tmp_path / f"bad.mtx{suffix}"
    with opener(good, "wb") as fh:
        fh.write(text.encode())
    np.testing.assert_array_equal(np.asarray(read_matrix(good)), dense)
    lines = text.rstrip().split("\n")
    lines[-1] += " 7"  # scipy reads the line and skips the surplus token
    with opener(bad, "wb") as fh:
        fh.write("\n".join(lines).encode())
    with pytest.raises(ContainerFormatError, match="tokens in the body where the header"):
        read_matrix(bad)


def test_mm_real_file_is_not_scanned_for_integers(tmp_path, monkeypatch):
    path = tmp_path / "real.mtx"
    write_matrix(path, np.eye(3))
    monkeypatch.setattr(fileio, "re", None)  # the integer scan is the reader's only use of re
    np.testing.assert_array_equal(read_matrix(path), np.eye(3))


# ---------------------------------------------------------------------------
# vectors, points, cubes, impulse responses
# ---------------------------------------------------------------------------


def test_vector_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(33) * 1e-7
    path = tmp_path / "x.txt"
    write_vector(path, x)
    np.testing.assert_array_equal(read_vector(path), x)


def test_vector_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\ntwo\n")
    with pytest.raises(ContainerFormatError):
        read_vector(path)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ContainerFormatError):
        read_vector(empty)
    for text in ("1_0", "\u0661\u0662"):  # float() reads these as 10.0 and 12.0
        path.write_text(f"1.0\n{text}\n", encoding="utf-8")
        with pytest.raises(ContainerFormatError, match="not a decimal literal"):
            read_vector(path)
    path.write_bytes(b"1.0\n\xff\n")
    with pytest.raises(ContainerFormatError, match=r"bad\.txt:2: not UTF-8 text"):
        read_vector(path)


def _reference_read_vector(path) -> np.ndarray:
    """The line-by-line reader ``read_vector`` must agree with, file for file."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("%"):
                continue
            try:
                if not text.isascii() or "_" in text:  # float() also reads 1_0 and ١٢
                    raise ValueError(text)
                values.append(float(text))
            except ValueError as exc:
                raise ContainerFormatError(
                    f"{path}:{lineno}: not a decimal literal: {text!r}") from exc
            if not math.isfinite(values[-1]):
                raise ContainerFormatError(f"{path}:{lineno}: non-finite value {text!r}")
    if not values:
        raise ContainerFormatError(f"{path}: no values")
    return np.array(values, dtype=np.float64)


_blanks = st.sampled_from(["", "", " ", "\t", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"])
_literals = st.one_of(
    st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_0", "\u0661\u0662", "0x10", "nan", "-inf", "1e400", "1e-400", ".5",
                     "-0", "+7.", "1e5", "abc", "%", "% a comment", "", "1.0\x00"]))
_vector_lines = st.one_of(
    st.tuples(_blanks, _literals, _blanks).map("".join),
    st.tuples(_literals, _literals).map(" ".join))  # two literals on one line
_vector_texts = st.one_of(
    st.just(""),
    st.lists(st.tuples(_vector_lines, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8)
    .map(lambda parts: "".join(line + end for line, end in parts)),
    st.lists(_vector_lines, max_size=8).map("\n".join))  # no line end after the last line


def _outcome(read, path):
    try:
        return read(path)
    except ContainerFormatError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(text=_vector_texts)
@example(text="1.0\r2.0\r\n\r3.0")
@example(text=" 1.0\xa0\n\u20282.0\x85\n\x0c3.0\x1c")
@example(text="1.0\n% 1_0 \u0661\n2.0\n")
@example(text="1.0 2.0\n")
@example(text="1.0\n1e400\nabc\n")
@example(text="\n\n% only a comment\n")
def test_vector_reads_as_the_line_by_line_reader_reads_it(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("vector") / "x.txt"
    path.write_bytes(text.encode("utf-8"))
    want, got = _outcome(_reference_read_vector, path), _outcome(read_vector, path)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()  # bit for bit
    else:
        assert got == want


@pytest.mark.parametrize("x", [
    [0.0, -0.0, 5e-324, 1e-310, 1e308, -1e308, np.inf, -np.inf, np.nan, 0.1, 1e16], []])
def test_vector_bytes_are_the_repr_of_every_value(tmp_path, x):
    x = np.array(x, dtype=np.float64)
    path = tmp_path / "x.txt"
    write_vector(path, x)
    assert path.read_bytes() == "".join(repr(v) + "\n" for v in x.tolist()).encode("utf-8")


# ---------------------------------------------------------------------------
# container roundtrips, one per kind
# ---------------------------------------------------------------------------


def _toy_tucker_setup(rng):
    pat = build_pattern("toeplitz", 3, 3, 4, 5)
    a = struct_assemble(pat, rng.standard_normal((pat.p, 4, 5)))
    t = mat_to_tensor(a, pat)
    return pat, a, hosvd(t, [3, 4, 3])


def _assert_bit_identical_rewrite(path, rep, tmp_path):
    again = tmp_path / ("again_" + path.name)
    container_write(again, rep)
    assert again.read_bytes() == path.read_bytes()


def test_container_kron_sum_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    pat, a, tk = _toy_tucker_setup(rng)
    rep = kron_sum_from_tucker(tk, pat)
    path = tmp_path / "rep.btc"
    container_write(path, rep, seed=11, ranks=(3, 4, 3))
    header = path.read_bytes().split(b"\n---\n")[0].decode()
    assert "seed: 11" in header and "ranks: 3 4 3" in header
    blank = tmp_path / "blank.btc"  # a blank header line is skipped
    blank.write_bytes(path.read_bytes().replace(b"\nseed: 11\n", b"\n\nseed: 11\n", 1))
    np.testing.assert_array_equal(container_read(blank).terms, rep.terms)
    back = container_read(path)
    assert isinstance(back, KronSumRep)
    np.testing.assert_array_equal(back.coeffs, rep.coeffs)
    np.testing.assert_array_equal(back.terms, rep.terms)
    assert back.pattern == rep.pattern
    np.testing.assert_array_equal(densify(back), densify(rep))
    plain = tmp_path / "plain.btc"
    container_write(plain, rep)
    _assert_bit_identical_rewrite(plain, container_read(plain), tmp_path)


def test_container_blr_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    pat, a, tk = _toy_tucker_setup(rng)
    rep = blr_from_tucker(tk, pat)
    path = tmp_path / "rep.btc"
    container_write(path, rep)
    back = container_read(path)
    assert isinstance(back, BlockLowRankRep)
    np.testing.assert_array_equal(densify(back), densify(rep))
    _assert_bit_identical_rewrite(path, back, tmp_path)


@pytest.mark.parametrize("form", ["kron_sum", "blr"])
def test_container_of_rank_zero_reads_and_multiplies_to_zero(tmp_path, form):
    pat = build_pattern("toeplitz", 3, 3, 2, 2)
    if form == "blr":
        rep = BlockLowRankRep(pat, np.zeros((2, 0)), np.zeros((2, 0)), np.zeros((pat.p, 0, 0)))
    else:
        rep = KronSumRep(pat, np.zeros((pat.p, 0)), np.zeros((0, 2, 2)))
    path = tmp_path / "rep.btc"
    container_write(path, rep)
    back = container_read(path)
    np.testing.assert_array_equal(back.matvec(np.ones(6)), np.zeros(6))
    np.testing.assert_array_equal(densify(back), np.zeros((6, 6)))


def test_container_multilevel_keeps_identity_markers(tmp_path):
    rng = np.random.default_rng(7)
    inner = build_pattern("banded", 4, 4, 3, 3, band=1)
    mlp = MultilevelPattern(levels=(build_pattern("diagonal", 2, 2, 12, 12), inner))
    from blockten.decomp import tucker_partial

    tk = tucker_partial(rng.standard_normal(mlp.dims), [None, None, 4, None])
    rep = MultilevelTuckerRep(pattern=mlp, tucker=tk)
    path = tmp_path / "rep.btc"
    container_write(path, rep)
    assert b"factors: identity identity dense identity" in path.read_bytes()
    back = container_read(path)
    assert isinstance(back, MultilevelTuckerRep)
    assert [f is None for f in back.tucker.factors] == [True, True, False, True]
    np.testing.assert_array_equal(back.tucker.core, tk.core)
    np.testing.assert_array_equal(back.tucker.factors[2], tk.factors[2])
    _assert_bit_identical_rewrite(path, back, tmp_path)


def _spd_toy(rng):
    pat = build_pattern("toeplitz", 3, 3, 4, 4)
    t0 = rng.standard_normal((4, 4))
    t0 = t0 @ t0.T + 4 * np.eye(4)
    subs = [0.2 * rng.standard_normal((4, 4)) for _ in range(2)]
    blocks = [t0] + subs + [s.T for s in subs]
    a = struct_assemble(pat, np.stack(blocks))
    lam = np.linalg.eigvalsh(a).min()
    if lam <= 1.0:
        blocks[0] = blocks[0] + (1.0 - lam) * np.eye(4)
        a = struct_assemble(pat, np.stack(blocks))
    return a, pat


def test_container_spsd_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    a, pat = _spd_toy(rng)
    rep = spsd_compress(a, pat, 3)
    path = tmp_path / "rep.btc"
    container_write(path, rep)
    back = container_read(path)
    np.testing.assert_array_equal(back.basis, rep.basis)
    np.testing.assert_array_equal(back.blocks, rep.blocks)
    np.testing.assert_array_equal(back.densify(), rep.densify())
    _assert_bit_identical_rewrite(path, back, tmp_path)


def test_container_spd_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    a, pat = _spd_toy(rng)
    rep = spd_compress(a, pat, 2)
    path = tmp_path / "rep.btc"
    container_write(path, rep)
    back = container_read(path)
    assert back.ell == rep.ell
    np.testing.assert_array_equal(back.chol, rep.chol)
    np.testing.assert_array_equal(back.densify(), rep.densify())
    _assert_bit_identical_rewrite(path, back, tmp_path)


def test_container_multilevel_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    inner = build_pattern("banded", 3, 3, 2, 2, band=1)
    outer = build_pattern("toeplitz", 2, 2, inner.shape[0], inner.shape[1])
    mlp = MultilevelPattern(levels=(outer, inner))
    t = rng.standard_normal(mlp.dims)
    from blockten.multilevel import ml_tensor_to_mat

    a = ml_tensor_to_mat(t, mlp)
    tk = hosvd(ml_mat_to_tensor(a, mlp), [2, 3, 4, 2])
    rep = MultilevelTuckerRep(pattern=mlp, tucker=tk)
    path = tmp_path / "rep.btc"
    container_write(path, rep)
    back = container_read(path)
    assert back.pattern == mlp
    np.testing.assert_array_equal(back.densify(), rep.densify())
    _assert_bit_identical_rewrite(path, back, tmp_path)


# ---------------------------------------------------------------------------
# container corruption
# ---------------------------------------------------------------------------


def _toy_container(tmp_path, name="toy.btc"):
    rng = np.random.default_rng(11)
    pat, a, tk = _toy_tucker_setup(rng)
    rep = kron_sum_from_tucker(tk, pat)
    path = tmp_path / name
    container_write(path, rep)
    return path


def test_container_rejects_future_version(tmp_path):
    path = _toy_container(tmp_path)
    blob = path.read_bytes().replace(MAGIC.encode(), b"blockten-container/2", 1)
    path.write_bytes(blob)
    with pytest.raises(ContainerFormatError):
        container_read(path)


def test_container_rejects_missing_separator(tmp_path):
    path = tmp_path / "nosep.btc"
    path.write_bytes(MAGIC.encode() + b"\nkind: kron_sum\n")
    with pytest.raises(ContainerFormatError):
        container_read(path)


def test_container_rejects_truncated_payload(tmp_path):
    path = _toy_container(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ContainerFormatError):
        container_read(path)


def test_container_rejects_corrupted_length_field(tmp_path):
    path = _toy_container(tmp_path)
    blob = path.read_bytes()
    sep = blob.find(b"\n---\n") + 5
    ndim = int.from_bytes(blob[sep : sep + 8], "little")
    # overwrite the first extent of the first array with a wrong value
    start = sep + 8
    extent = int.from_bytes(blob[start : start + 8], "little")
    corrupted = (
        blob[:start] + (extent + 1).to_bytes(8, "little") + blob[start + 8 :]
    )
    path.write_bytes(corrupted)
    with pytest.raises(ContainerExtentError):
        container_read(path)
    assert ndim >= 1  # sanity on the layout assumption


def test_container_rejects_unknown_kind(tmp_path):
    path = _toy_container(tmp_path)
    blob = path.read_bytes().replace(b"kind: kron_sum", b"kind: mystery", 1)
    path.write_bytes(blob)
    with pytest.raises(ContainerFormatError):
        container_read(path)


def test_container_rejects_shape_inconsistent_with_pattern(tmp_path):
    # header arrays internally consistent but wrong for the declared pattern
    path = _toy_container(tmp_path)
    blob = path.read_bytes()
    # drop one class so coeffs rows no longer match p
    blob = blob.replace(b"pattern.classes: 5", b"pattern.classes: 4", 1)
    path.write_bytes(blob)
    with pytest.raises(ShapeError):
        container_read(path)


def test_header_integers_are_the_digits_a_writer_emits(tmp_path, capsys):
    # int() reads each of these as the right value; none is what a writer emits
    arabic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
    forms = (lambda v: f"0_{v}", lambda v: v.translate(arabic), lambda v: f" {v} ",
             lambda v: f"+{v}")
    kron = _toy_container(tmp_path, "kron.btc")
    spd = tmp_path / "spd.btc"
    b = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    container_write(spd, spd_compress(np.kron(np.eye(4), b),
                                      build_pattern("diagonal", 4, 4, 3, 3), 2))
    multilevel = tmp_path / "multilevel.btc"
    mlp = MultilevelPattern(levels=(build_pattern("diagonal", 2, 2, 4, 4),
                                    build_pattern("banded", 2, 2, 2, 2, band=1)))
    container_write(multilevel, MultilevelTuckerRep(
        pattern=mlp, tucker=hosvd(np.random.default_rng(3).standard_normal(mlp.dims),
                                  [2, 2, 3, 2])))
    cases = ((kron, "pattern.ell", "3"), (kron, "pattern.classes", "5"),
             (kron, "array.coeffs", "5 4"), (spd, "ell", "4"), (multilevel, "levels", "2"))
    for path, key, value in cases:
        blob = path.read_bytes()
        line = f"\n{key}: {value}\n".encode()
        assert line in blob
        first = value.split(" ")[0]
        for form in forms:  # the first integer of the value rewritten
            text = form(first) + value[len(first):]
            bad = tmp_path / "bad.btc"
            bad.write_bytes(blob.replace(line, f"\n{key}: {text}\n".encode(), 1))
            with pytest.raises(ContainerFormatError):
                container_read(bad)
            assert main(["report", str(bad)]) == 2, (key, text)
            assert capsys.readouterr().out == ""


def test_container_bytes_are_stable(tmp_path):
    # digests pin the header layout, the placements order and the payload
    # encoding across versions, not just two writes of one version
    toep = build_pattern("toeplitz", 4, 4, 2, 2, block_symmetric=True)
    kron = KronSumRep(
        pattern=toep,
        coeffs=np.arange(8, dtype=np.float64).reshape(4, 2) / 8.0 - 0.25,
        terms=np.arange(8, dtype=np.float64).reshape(2, 2, 2) * 0.75 + 1.0,
    )
    general = BlockPattern(2, 3, 2, 2, np.array([[0, 0], [0, 2], [1, 1]]), np.array([0, 0, 1]))
    blr = BlockLowRankRep(
        pattern=general,
        left=np.array([[1.0, 0.5], [-0.5, 2.0]]),
        right=np.array([[0.25], [-1.5]]),
        middles=np.arange(4, dtype=np.float64).reshape(2, 2, 1) - 1.5,
    )
    # multi-digit indices over many classes
    toep12 = build_pattern("toeplitz", 12, 12, 2, 3, block_symmetric=True)
    kron12 = KronSumRep(
        pattern=toep12,
        coeffs=np.arange(2 * toep12.p, dtype=np.float64).reshape(toep12.p, 2) / 8.0 - 0.25,
        terms=np.arange(12, dtype=np.float64).reshape(2, 2, 3) * 0.75 + 1.0,
    )
    # the shared-basis kinds, the SPD one over a nonempty remainder
    spsd = SpsdRep(pattern=toep, basis=np.array([[0.6], [0.8]]),
                   blocks=np.arange(toep.p, dtype=np.float64).reshape(toep.p, 1, 1) - 1.5)
    spd = SpdRep(chol=np.array([[2.0, 0.0], [0.5, 1.5]]), remainder=spsd, ell=4)
    expected = {
        "kron_sum": "2c4ca9b86e1d005c5b807c8aa57f56b5d35aa3ac84fff3d6d4fe31db31fbf21f",
        "blr": "51be502e6adf4b4c8f8a2503b4fb9b425aebb98e28963c07d900cf1ffe8ff26b",
        "kron_sum_12": "91e55421409346b1a73cdf4b3073d97f6548b840747c76fd316cbe59c3331620",
        "spsd": "62746ec090cfdd409c0656c7244e6876062436487e6372b39e8738456ff9dd75",
        "spd": "f4a0f33485aa49d2452be0283bb935d0e2bae6fdd9423a638e767e87f3eadf46",
    }
    for name, rep in (("kron_sum", kron), ("blr", blr), ("kron_sum_12", kron12), ("spsd", spsd),
                      ("spd", spd)):
        path = tmp_path / f"{name}.btc"
        container_write(path, rep, seed=3, ranks=(2,))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected[name], name


def _reference_cell_lines(pat) -> list[str]:
    """The cell lines as a %-format of the cell list writes them."""
    fmt = "\n".join([" ".join(["%d,%d"] * eta) for eta in pat.counts])
    bodies = (fmt % tuple((pat.cells + 1).ravel().tolist())).split("\n")
    return [f"pattern.class.{k}: {body}" for k, body in enumerate(bodies, start=1)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PATTERN_KINDS))
def test_cell_lines_are_written_as_a_format_of_the_cell_list_writes_them(seed, kind):
    pat = random_pattern(np.random.default_rng(seed), kind, max_grid=12)
    lines = _pattern_lines("pattern.", pat)[6:]
    assert lines == _reference_cell_lines(pat)
    # the reader's fast path takes exactly this grammar, so a writer that drifts off it
    # fails here instead of slowing every read
    assert _WRITTEN.fullmatch("\n".join(line.partition(": ")[2] for line in lines))


def test_cell_lines_of_one_to_four_digit_indices_keep_their_bytes():
    wide = build_pattern("banded", 1001, 1001, 1, 1, band=1)
    assert _pattern_lines("pattern.", wide)[6:] == _reference_cell_lines(wide)


def _header_digest(pat) -> str:
    return hashlib.sha256("\n".join(_pattern_lines("pattern.", pat)).encode()).hexdigest()


@pytest.mark.parametrize("kind, kwargs, digest", [
    ("diagonal", {}, "873f6c72a3b8782b70bc7398513bb7bf09a9e6192705269c284c0f270062db6d"),
    ("banded", {"band": 2}, "a75fd28a2c9d4c3b3d85e91fc1ed16dd2e7be9a5faa65f48af391210e8c1af70"),
    ("banded", {"band": 2, "block_symmetric": True},
     "e3ec105e61ebf4d83caa62b2c577d433ddd470e253f76dcf75513f4520bb3cfd"),
    ("toeplitz", {}, "91c378426853d1259dfc9c0d411eea92f0baa559b7739edd44e2513709889417"),
    ("toeplitz", {"block_symmetric": True},
     "ead8c8bd380fc3909ed458a8a78031d3e872d3de95720b41c7cf4c7c68779e49"),
    ("toeplitz", {"band": 2}, "701b674c4b80985a031e6f0f78bc0a1a4594a416cb2b837f13b51956d14ff048"),
    ("toeplitz", {"band": 1, "block_symmetric": True},
     "80f36ca69e054389a7cf151099dec29af37266ad71c4125e67e3c8a9269ed8b0"),
    ("hankel", {}, "4861044e57fea6ba15edf81192c25550be1d7a8641af94bcf42bc1875f7adfec"),
])
def test_named_pattern_headers_are_pinned(kind, kwargs, digest):
    # the digests pin the class order and the cell order inside every class
    assert _header_digest(build_pattern(kind, 5, 5, 2, 3, **kwargs)) == digest


def test_detected_and_spd_remainder_headers_are_pinned():
    sym = build_pattern("banded", 5, 5, 2, 3, band=2, block_symmetric=True)
    a = struct_assemble(sym, [np.arange(6.0).reshape(2, 3) + 10 * k for k in range(sym.p)])
    assert (_header_digest(detect_pattern(a, 2, 3)[0])
            == "6a609018cd7bc8fcea0fa4d067f4137a803dcd6a2c4b1d06e498c2382fe7af5d")

    rng = np.random.default_rng(7)
    pat = build_pattern("toeplitz", 5, 5, 3, 3, band=2)
    t0 = rng.standard_normal((3, 3))
    off = [0.3 * rng.standard_normal((3, 3)) for _ in range(2)]
    blocks = [t0 @ t0.T + 6 * np.eye(3), off[0].T, off[1].T, *off]  # offsets 0, -1, -2, 1, 2
    rem = spd_compress(struct_assemble(pat, blocks), pat, 2).remainder.pattern
    assert rem.structure_class == "toeplitz"
    assert _header_digest(rem) == "b5f3636fceb76947a3f993f3e71acefccd47e97a88a0b454ec1fb2490bbf7522"


# The cell-line reader as a regular expression and a token split: the
# reference the bulk reader must agree with, header for header.
_BAD_CELL = re.compile(r"(?<!\S)(?![+-]?[0-9]+,[+-]?[0-9]+(?!\S))\S+")  # not an "i,j" token


def _reference_parse(kv: dict, prefix: str) -> BlockPattern:
    p = int(kv[f"{prefix}classes"])
    text = "\n".join([kv[f"{prefix}class.{k}"] for k in range(1, p + 1)])
    bad = _BAD_CELL.search(text)
    if bad:
        k = text.count("\n", 0, bad.start()) + 1
        raise ContainerFormatError(f"bad cell {bad.group()!r} in {prefix}class.{k}")
    code = np.frombuffer(text.encode(), dtype=np.uint8)
    klass = np.cumsum(code == ord("\n"))[code == ord(",")]
    # a number beyond int64 lies outside every grid (the token split raised
    # OverflowError on it)
    values = [v if -2**63 <= v < 2**63 else 2**62
              for v in map(int, text.replace(",", " ").split())]
    cells = np.array(values, dtype=np.int64).reshape(-1, 2) - 1
    pattern = BlockPattern(int(kv[f"{prefix}ell"]), int(kv[f"{prefix}q"]), 2, 2, cells, klass)
    if pattern.p < p:
        raise ShapeError(f"class {pattern.p + 1}: placements must be a nonempty (eta, 2) array")
    return pattern


_numbers = st.one_of(st.integers(0, 4).map(str), st.integers(-10**20, 10**20).map(str),
                     st.sampled_from(["+1", "-0", "007", "0" * 22 + "3", "9" * 20, "-" + "9" * 19,
                                      "9223372036854775807", "-9223372036854775808"]))
_cells = st.tuples(_numbers, _numbers).map(",".join)
_pieces = st.one_of(_cells, _cells, _numbers, st.sampled_from(
    list("0123456789+-,  \t\n\r\x0b\x1c_ax\x00\u0661\xa0\x85\u2028\u3000\xe9")))
_index = st.one_of(st.integers(1, 5), st.integers(1, 10**18 - 1)).map(str)  # 1..18 digits
_texts = st.one_of(
    st.lists(_pieces, max_size=12).map("".join),  # mostly malformed
    st.lists(st.tuples(_cells, st.sampled_from([" ", "\n", "\t ", "\xa0", "\n\n"])),
             max_size=8).map(lambda parts: "".join(c + sep for c, sep in parts)),
    # the writer's own grammar: one space between cells, one line end between classes
    st.lists(st.lists(st.tuples(_index, _index).map(",".join), min_size=1, max_size=4)
             .map(" ".join), min_size=1, max_size=4).map("\n".join))


@settings(max_examples=400, deadline=None)
@given(text=_texts, ell=st.integers(1, 4), q=st.integers(1, 4))
@example(text="1,2,3 4", ell=3, q=3)
@example(text="1,1 99999999999999999999,1", ell=3, q=3)
@example(text="1,1\n2,2 \u0661,1", ell=3, q=3)
@example(text="1_0,1", ell=3, q=3)
@example(text=" 1,1\xa02,2\u3000\n+3,-0\n", ell=3, q=3)
@example(text="", ell=1, q=1)
@example(text="999999999999999999,1", ell=3, q=3)  # 18 digits: the numeric read, off the grid
@example(text="1000000000000000000,1", ell=3, q=3)  # 19 digits: the token grammar
@example(text="01,1", ell=3, q=3)
@example(text="+1,1", ell=3, q=3)
@example(text="1,1 2,2 ", ell=3, q=3)
def test_cell_lines_read_as_the_reference_parser_reads_them(text, ell, q):
    lines = text.split("\n")
    kv = {"p.classes": str(len(lines)), "p.ell": str(ell), "p.q": str(q), "p.m": "2",
          "p.n": "2", "p.structure_class": "general"}
    kv.update({f"p.class.{k}": line for k, line in enumerate(lines, start=1)})
    try:
        want = _reference_parse(kv, "p.")
    except (ContainerFormatError, ShapeError) as exc:
        with pytest.raises(type(exc)) as got:
            _parse_pattern(kv, "p.")
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert _parse_pattern(kv, "p.") == want


def test_an_index_beyond_int64_is_outside_the_grid_however_numpy_parses_it(monkeypatch):
    # np.fromstring saturates an overflowing int64 today; were it to wrap, 2**64 + 2
    # would read as 2, inside the grid, so such an index must not reach it
    def wrapping(text, dtype, sep):
        return np.array([(int(v) + 2**63) % 2**64 - 2**63 for v in text.split()], dtype=dtype)

    monkeypatch.setattr(np, "fromstring", wrapping)
    kv = {"p.classes": "1", "p.class.1": f"{2**64 + 2},1", "p.ell": "3", "p.q": "3", "p.m": "2",
          "p.n": "2", "p.structure_class": "general"}
    with pytest.raises(ShapeError, match=r"^class 1: placement outside the 3 x 3 grid$"):
        _parse_pattern(kv, "p.")
    kv["p.class.1"] = "2,1"
    assert _parse_pattern(kv, "p.").cells.tolist() == [[1, 0]]  # the fake parses in-range cells
    kv["p.class.1"] = "9" * 18 + ",1"  # the longest index the numeric read takes
    with pytest.raises(ShapeError, match=r"^class 1: placement outside the 3 x 3 grid$"):
        _parse_pattern(kv, "p.")
