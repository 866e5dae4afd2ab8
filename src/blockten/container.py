"""Single-file container for compressed representations.

Layout: a UTF-8 text header of ``key: value`` lines opened by the version
line ``blockten-container/1``, a ``---`` separator line, then a binary
payload.  The header names every payload array with its extents, and its
integers are ASCII digits after an optional ``-``; the payload stores, per
array, an ``int64`` little-endian rank, the extents, then the elements as
little-endian ``float64`` in first-index-fastest order.  The prefix must
agree with the header (disagreement means a corrupted length field and
raises the extent error); running out of bytes is a truncation and raises
the format error.  Writers emit no timestamps, so identical representations
produce identical bytes.

Representation kinds, one entry each in the kind table ``_KINDS`` keyed by
class: ``kron_sum``, ``blr`` and ``spsd`` are a block pattern plus named
field arrays and share one writer and reader; ``spd`` adds the anchor count
``ell`` and its Cholesky factor, and ``multilevel`` stores one pattern per
level plus Tucker factor markers.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .blocks import BlockPattern
from .decomp import TuckerRep
from .errors import ContainerExtentError, ContainerFormatError, ShapeError
from .fileio import _replace_into
from .multilevel import MultilevelPattern, MultilevelTuckerRep
from .psd import SpdRep, SpsdRep
from .reconstruct import BlockLowRankRep, KronSumRep

__all__ = ["container_write", "container_read", "MAGIC"]

MAGIC = "blockten-container/1"
_MAX_RANK = 6  # no stored array has more than core-order extents
_POWERS = 10 ** np.arange(18, -1, -1)[:, None]


# ---------------------------------------------------------------------------
# header helpers
# ---------------------------------------------------------------------------


def _pattern_lines(prefix: str, pat: BlockPattern) -> list[str]:
    lines = [f"{prefix}{key}: {value}" for key, value in (
        ("ell", pat.ell), ("q", pat.q), ("m", pat.m), ("n", pat.n),
        ("structure_class", pat.structure_class), ("classes", pat.p))]
    if pat.p:  # one line of 1-based "i,j" cells per class, written as one byte table: a
        # column per number holding its digits (a leading zero as a 0 byte) and a separator
        v = pat.cells.ravel() + 1
        q = v // _POWERS[-len(str(v.max())):]  # its last row is v
        table = np.empty((len(q) + 1, len(v)), dtype=np.uint8)
        table[:-1] = np.where(q, q % 10 + ord("0"), 0)
        table[-1] = ord(" ")
        table[-1, ::2] = ord(",")
        table[-1, 1:-1:2][pat.klass[1:] != pat.klass[:-1]] = ord("\n")  # sorted by class
        bodies = table.T.tobytes().replace(b"\0", b"").decode()[:-1].split("\n")
        lines += [f"{prefix}class.{k}: {body}" for k, body in enumerate(bodies, start=1)]
    return lines


def _take(kv: dict, key: str) -> str:
    if key not in kv:
        raise ContainerFormatError(f"missing header key {key!r}")
    return kv[key]


def _as_int(text: str, error: str) -> int:
    """``text`` as a writer emits an integer: ASCII digits after an optional ``-``."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ContainerFormatError(error)
    return int(text)


def _take_int(kv: dict, key: str) -> int:
    return _as_int(_take(kv, key), f"header key {key!r} is not an integer")


# what the writer emits: 1-based indices of at most 18 digits (so int64 holds every one),
# one space between cells and one line end between classes
_WRITTEN = re.compile(r"[1-9][0-9]{0,17},[1-9][0-9]{0,17}(?:[ \n][1-9][0-9]{0,17},[1-9][0-9]{0,17})*")
_BAD_CELL = re.compile(r"(?<!\S)(?![+-]?[0-9]+,[+-]?[0-9]+(?!\S))\S+")  # not an "i,j" token


def _parse_pattern(kv: dict, prefix: str) -> BlockPattern:
    """The pattern of the ``{prefix}*`` header lines.  Cell lines as the writer
    emits them are parsed by one numeric read; any other text is read as
    ``[+-]?[0-9]+,[+-]?[0-9]+`` tokens between blanks."""
    p = _take_int(kv, f"{prefix}classes")
    text = "\n".join([_take(kv, f"{prefix}class.{k}") for k in range(1, p + 1)])
    if _WRITTEN.fullmatch(text):
        values = np.fromstring(text.replace(",", " "), np.int64, sep=" ")
    else:
        bad = _BAD_CELL.search(text)
        if bad:
            k = text.count("\n", 0, bad.start()) + 1
            raise ContainerFormatError(f"bad cell {bad.group()!r} in {prefix}class.{k}")
        values = np.array([v if -2**63 <= v < 2**63 else 2**62  # 2**62 is off every grid
                           for v in map(int, text.replace(",", " ").split())], dtype=np.int64)
    # one class per line and one comma per cell: a cell's class is the
    # number of line ends before its comma
    code = np.frombuffer(text.encode(), dtype=np.uint8)
    klass = np.cumsum(code == ord("\n"))[code == ord(",")]
    pattern = BlockPattern(
        _take_int(kv, f"{prefix}ell"), _take_int(kv, f"{prefix}q"),
        _take_int(kv, f"{prefix}m"), _take_int(kv, f"{prefix}n"),
        values.reshape(-1, 2) - 1, klass, _take(kv, f"{prefix}structure_class"))
    if pattern.p < p:  # the last classes have no cells
        raise ShapeError(f"class {pattern.p + 1}: placements must be a nonempty (eta, 2) array")
    return pattern


# ---------------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------------


def _pack_arrays(arrays: list[tuple[str, np.ndarray]]) -> tuple[list[str], bytes]:
    lines = ["arrays: " + " ".join(name for name, _ in arrays)]
    chunks = []
    for name, arr in arrays:
        arr = np.asarray(arr, dtype=np.float64)
        if not np.isfinite(arr).all():  # refused before any file is written
            raise FloatingPointError(f"array {name!r} holds a NaN or an infinity")
        lines.append(f"array.{name}: " + " ".join(str(s) for s in arr.shape))
        chunks.append(np.array([arr.ndim, *arr.shape], dtype="<i8").tobytes())
        chunks.append(arr.astype("<f8", copy=False).tobytes(order="F"))
    return lines, b"".join(chunks)


def _read_arrays(kv: dict, names: list[str], payload: bytes) -> dict[str, np.ndarray]:
    """The named payload arrays, each checked against its header extents."""
    pos = 0

    def take(count: int, dtype: str, what: str) -> np.ndarray:
        nonlocal pos
        if pos + 8 * count > len(payload):
            raise ContainerFormatError(f"truncated payload {what}")
        out = np.frombuffer(payload, dtype=dtype, count=count, offset=pos)
        pos += 8 * count
        return out

    out = {}
    for name in names:
        spec = _take(kv, f"array.{name}")
        bad = f"bad extents for array {name!r}: {spec!r}"
        declared = tuple(_as_int(tok, bad) for tok in spec.split(" "))
        ndim = int(take(1, "<i8", "(length prefix)")[0])
        if not 1 <= ndim <= _MAX_RANK:
            raise ContainerExtentError(f"array {name!r}: implausible rank {ndim}")
        extents = tuple(int(e) for e in take(ndim, "<i8", "(length prefix)"))
        if any(e < 0 for e in extents):
            raise ContainerExtentError(f"array {name!r}: negative extent {extents}")
        if extents != declared:
            raise ContainerExtentError(f"array {name!r}: payload extents {extents} != "
                                       f"header extents {declared}")
        flat = take(int(np.prod(extents)), "<f8", f"in array {name!r}")
        out[name] = flat.reshape(extents, order="F").copy()
    if pos != len(payload):
        raise ContainerFormatError(f"{len(payload) - pos} trailing bytes after the last array")
    return out


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def container_write(path, rep, seed: int | None = None, ranks=None) -> None:
    """Serialize a representation (see module docstring for the format).

    ``seed``/``ranks`` are optional provenance fields recorded in the
    header; they do not affect deserialization.  An array holding a NaN or
    an infinity raises :class:`FloatingPointError`, and no file is written.
    """
    lines = [MAGIC, "created_by: blockten 0.1.0"]
    if seed is not None:
        lines.append(f"seed: {seed}")
    if ranks is not None:
        lines.append("ranks: " + " ".join(str(r) for r in ranks))

    entry = _KINDS.get(type(rep))
    if entry is None:
        raise ContainerFormatError(f"unsupported representation {type(rep).__name__}")
    kind, write, _ = entry
    lines.append(f"kind: {kind}")
    kind_lines, arrays = write(rep)
    lines += kind_lines
    array_lines, payload = _pack_arrays(arrays)
    lines += array_lines
    blob = ("\n".join(lines) + "\n---\n").encode("utf-8") + payload

    _replace_into(path, lambda tmp: tmp.write_bytes(blob))


def _split(blob: bytes) -> tuple[dict, list[str], bytes]:
    sep = blob.find(b"\n---\n")
    if sep < 0:
        raise ContainerFormatError("missing header/payload separator")
    try:
        text = blob[:sep].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ContainerFormatError(f"header is not UTF-8: {exc}") from exc
    head, *rest = text.split("\n")
    if head != MAGIC:
        version = head.split("/")[-1] if head.startswith("blockten-container/") else head
        raise ContainerFormatError(f"unsupported container version {version!r}")
    kv = {}
    for line in rest:
        if not line:
            continue
        key, colon, value = line.partition(": ")
        if not colon:
            raise ContainerFormatError(f"malformed header line {line!r}")
        if key in kv:
            raise ContainerFormatError(f"duplicate header key {key!r}")
        kv[key] = value
    names = _take(kv, "arrays").split()
    return kv, names, blob[sep + 5 :]


def container_read(path):
    """Deserialize a container back into its representation object.

    Raises:
        ContainerFormatError: Wrong magic/version, malformed header,
            truncated payload, unknown kind.
        ContainerExtentError: Payload length prefixes disagreeing with the
            header extents.
    """
    kv, names, payload = _split(Path(path).read_bytes())
    arrays = _read_arrays(kv, names, payload)
    kind = _take(kv, "kind")

    if kind not in _READERS:
        raise ContainerFormatError(f"unknown representation kind {kind!r}")
    return _READERS[kind](kv, arrays)


# ---------------------------------------------------------------------------
# the kind table
# ---------------------------------------------------------------------------


def _array(arrays: dict, name: str) -> np.ndarray:
    if name not in arrays:
        raise ContainerFormatError(f"array {name!r} missing from payload")
    return arrays[name]


def _pattern_kind(cls, *fields):
    """Writer and reader of a kind stored as ``pattern.*`` header lines plus
    one payload array per named field."""

    def write(rep):
        return _pattern_lines("pattern.", rep.pattern), [(f, getattr(rep, f)) for f in fields]

    def read(kv, arrays):
        return cls(pattern=_parse_pattern(kv, "pattern."), **{f: _array(arrays, f) for f in fields})

    return write, read


_write_spsd, _read_spsd = _pattern_kind(SpsdRep, "basis", "blocks")


def _write_spd(rep: SpdRep):
    lines, arrays = _write_spsd(rep.remainder)
    return [f"ell: {rep.ell}", *lines], [("chol", rep.chol), *arrays]


def _read_spd(kv, arrays) -> SpdRep:
    return SpdRep(chol=_array(arrays, "chol"), remainder=_read_spsd(kv, arrays),
                  ell=_take_int(kv, "ell"))


def _write_multilevel(rep: MultilevelTuckerRep):
    lines = [f"levels: {len(rep.pattern.levels)}"]
    for t, lv in enumerate(rep.pattern.levels, start=1):
        lines += _pattern_lines(f"pattern{t}.", lv)
    # a factor left as None (identity) is marked and stores no array
    factors = rep.tucker.factors
    lines.append("factors: " + " ".join("identity" if f is None else "dense" for f in factors))
    return lines, [("core", rep.tucker.core)] + [
        (f"factor{i}", f) for i, f in enumerate(factors, start=1) if f is not None]


def _read_multilevel(kv, arrays) -> MultilevelTuckerRep:
    depth = _take_int(kv, "levels")
    levels = tuple(_parse_pattern(kv, f"pattern{t}.") for t in range(1, depth + 1))
    markers = _take(kv, "factors").split()
    if len(markers) != depth + 2:
        raise ContainerFormatError(f"expected {depth + 2} factor markers, got {len(markers)}")
    unknown = set(markers) - {"identity", "dense"}
    if unknown:
        raise ContainerFormatError(f"unknown factor marker {min(unknown)!r}")
    factors = tuple(None if mk == "identity" else _array(arrays, f"factor{i}")
                    for i, mk in enumerate(markers, start=1))
    tucker = TuckerRep(core=_array(arrays, "core"), factors=factors)
    return MultilevelTuckerRep(pattern=MultilevelPattern(levels=levels), tucker=tucker)


# class -> (kind name, writer returning header lines and named arrays, reader)
_KINDS = {
    KronSumRep: ("kron_sum", *_pattern_kind(KronSumRep, "coeffs", "terms")),
    BlockLowRankRep: ("blr", *_pattern_kind(BlockLowRankRep, "left", "right", "middles")),
    SpsdRep: ("spsd", _write_spsd, _read_spsd),
    SpdRep: ("spd", _write_spd, _read_spd),
    MultilevelTuckerRep: ("multilevel", _write_multilevel, _read_multilevel),
}
_READERS = {name: read for name, _, read in _KINDS.values()}
