"""Single-file container for compressed representations.

Layout: a UTF-8 text header of ``key: value`` lines opened by the version
line ``blockten-container/1``, a ``---`` separator line, then a binary
payload.  The header names every payload array with its extents; the payload
stores, per array, an ``int64`` little-endian rank, the extents, then the
elements as little-endian ``float64`` in first-index-fastest order.  The
prefix must agree with the header (disagreement means a corrupted length
field and raises the extent error); running out of bytes is a truncation
and raises the format error.  Writers emit no timestamps, so identical
representations produce identical bytes.

Representation kinds: ``kron_sum``, ``blr``, ``tucker_raw``, ``spsd``,
``spd``, ``multilevel``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .blocks import BlockPattern
from .decomp import TuckerRep
from .errors import ContainerExtentError, ContainerFormatError
from .fileio import _replace_into
from .multilevel import MultilevelPattern, MultilevelTuckerRep
from .psd import SpdRep, SpsdRep
from .reconstruct import BlockLowRankRep, KronSumRep, TuckerBlockRep

__all__ = ["container_write", "container_read", "container_kind", "MAGIC"]

MAGIC = "blockten-container/1"
_MAX_RANK = 6  # no stored array has more than core-order extents


# ---------------------------------------------------------------------------
# header helpers
# ---------------------------------------------------------------------------


def _pattern_lines(prefix: str, pat: BlockPattern) -> list[str]:
    lines = [
        f"{prefix}ell: {pat.ell}",
        f"{prefix}q: {pat.q}",
        f"{prefix}m: {pat.m}",
        f"{prefix}n: {pat.n}",
        f"{prefix}structure_class: {pat.structure_class}",
        f"{prefix}classes: {pat.p}",
    ]
    for k, cells in enumerate(pat.placements, start=1):
        body = " ".join(f"{i + 1},{j + 1}" for i, j in cells)
        lines.append(f"{prefix}class.{k}: {body}")
    return lines


def _take(kv: dict, key: str) -> str:
    if key not in kv:
        raise ContainerFormatError(f"missing header key {key!r}")
    return kv[key]


def _take_int(kv: dict, key: str) -> int:
    try:
        return int(_take(kv, key))
    except ValueError as exc:
        raise ContainerFormatError(f"header key {key!r} is not an integer") from exc


def _parse_pattern(kv: dict, prefix: str) -> BlockPattern:
    p = _take_int(kv, f"{prefix}classes")
    placements = []
    for k in range(1, p + 1):
        body = _take(kv, f"{prefix}class.{k}")
        cells = []
        for tok in body.split():
            try:
                i, j = tok.split(",")
                cells.append((int(i) - 1, int(j) - 1))
            except ValueError as exc:
                raise ContainerFormatError(
                    f"bad cell {tok!r} in {prefix}class.{k}"
                ) from exc
        placements.append(np.array(cells, dtype=np.int64).reshape(-1, 2))
    return BlockPattern(
        ell=_take_int(kv, f"{prefix}ell"),
        q=_take_int(kv, f"{prefix}q"),
        m=_take_int(kv, f"{prefix}m"),
        n=_take_int(kv, f"{prefix}n"),
        placements=tuple(placements),
        structure_class=_take(kv, f"{prefix}structure_class"),
    )


def _factor_lines(factors) -> tuple[str, list[tuple[str, np.ndarray]]]:
    markers, arrays = [], []
    for idx, f in enumerate(factors, start=1):
        if f is None:
            markers.append("identity")
        else:
            markers.append("dense")
            arrays.append((f"factor{idx}", f))
    return " ".join(markers), arrays


# ---------------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------------


def _pack_arrays(arrays: list[tuple[str, np.ndarray]]) -> tuple[list[str], bytes]:
    lines = ["arrays: " + " ".join(name for name, _ in arrays)]
    chunks = []
    for name, arr in arrays:
        arr = np.asarray(arr, dtype=np.float64)
        lines.append(f"array.{name}: " + " ".join(str(s) for s in arr.shape))
        chunks.append(np.array([arr.ndim], dtype="<i8").tobytes())
        chunks.append(np.array(arr.shape, dtype="<i8").tobytes())
        chunks.append(arr.astype("<f8", copy=False).tobytes(order="F"))
    return lines, b"".join(chunks)


class _PayloadReader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def _ints(self, count: int) -> np.ndarray:
        end = self.pos + 8 * count
        if end > len(self.buf):
            raise ContainerFormatError("truncated payload (length prefix)")
        out = np.frombuffer(self.buf, dtype="<i8", count=count, offset=self.pos)
        self.pos = end
        return out

    def array(self, name: str, declared: tuple[int, ...]) -> np.ndarray:
        ndim = int(self._ints(1)[0])
        if not 1 <= ndim <= _MAX_RANK:
            raise ContainerExtentError(f"array {name!r}: implausible rank {ndim}")
        extents = tuple(int(e) for e in self._ints(ndim))
        if any(e < 0 for e in extents):
            raise ContainerExtentError(f"array {name!r}: negative extent {extents}")
        if extents != declared:
            raise ContainerExtentError(
                f"array {name!r}: payload extents {extents} != header extents {declared}"
            )
        count = int(np.prod(extents)) if extents else 0
        end = self.pos + 8 * count
        if end > len(self.buf):
            raise ContainerFormatError(f"truncated payload in array {name!r}")
        flat = np.frombuffer(self.buf, dtype="<f8", count=count, offset=self.pos)
        self.pos = end
        return flat.reshape(extents, order="F").copy()

    def finish(self) -> None:
        if self.pos != len(self.buf):
            raise ContainerFormatError(
                f"{len(self.buf) - self.pos} trailing bytes after the last array"
            )


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def container_write(path, rep, seed: int | None = None, ranks=None) -> None:
    """Serialize a representation (see module docstring for the format).

    ``seed``/``ranks`` are optional provenance fields recorded in the
    header; they do not affect deserialization.
    """
    lines = [MAGIC, "created_by: blockten 0.1.0"]
    if seed is not None:
        lines.append(f"seed: {seed}")
    if ranks is not None:
        lines.append("ranks: " + " ".join(str(r) for r in ranks))

    if isinstance(rep, KronSumRep):
        lines.append("kind: kron_sum")
        lines += _pattern_lines("pattern.", rep.pattern)
        arrays = [("coeffs", rep.coeffs), ("terms", rep.terms)]
    elif isinstance(rep, BlockLowRankRep):
        lines.append("kind: blr")
        lines += _pattern_lines("pattern.", rep.pattern)
        arrays = [("left", rep.left), ("right", rep.right), ("middles", rep.middles)]
    elif isinstance(rep, TuckerBlockRep):
        lines.append("kind: tucker_raw")
        lines += _pattern_lines("pattern.", rep.pattern)
        markers, farrays = _factor_lines(rep.tucker.factors)
        lines.append(f"factors: {markers}")
        arrays = [("core", rep.tucker.core)] + farrays
    elif isinstance(rep, SpsdRep):
        lines.append("kind: spsd")
        lines += _pattern_lines("pattern.", rep.pattern)
        arrays = [("basis", rep.basis), ("blocks", rep.blocks)]
    elif isinstance(rep, SpdRep):
        lines.append("kind: spd")
        lines.append(f"ell: {rep.ell}")
        lines += _pattern_lines("pattern.", rep.remainder.pattern)
        arrays = [
            ("chol", rep.chol),
            ("basis", rep.remainder.basis),
            ("blocks", rep.remainder.blocks),
        ]
    elif isinstance(rep, MultilevelTuckerRep):
        lines.append("kind: multilevel")
        lines.append(f"levels: {rep.pattern.depth}")
        for t, lv in enumerate(rep.pattern.levels, start=1):
            lines += _pattern_lines(f"pattern{t}.", lv)
        markers, farrays = _factor_lines(rep.tucker.factors)
        lines.append(f"factors: {markers}")
        arrays = [("core", rep.tucker.core)] + farrays
    else:
        raise ContainerFormatError(f"unsupported representation {type(rep).__name__}")

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
        raise ContainerFormatError(
            f"unsupported container version {head.split('/')[-1] if head.startswith('blockten-container/') else head!r}"
        )
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


def _read_arrays(kv: dict, names: list[str], payload: bytes) -> dict[str, np.ndarray]:
    reader = _PayloadReader(payload)
    out = {}
    for name in names:
        spec = _take(kv, f"array.{name}")
        try:
            declared = tuple(int(tok) for tok in spec.split())
        except ValueError as exc:
            raise ContainerFormatError(f"bad extents for array {name!r}: {spec!r}") from exc
        out[name] = reader.array(name, declared)
    reader.finish()
    return out


def _factors_from(kv: dict, arrays: dict, order: int):
    markers = _take(kv, "factors").split()
    if len(markers) != order:
        raise ContainerFormatError(f"expected {order} factor markers, got {len(markers)}")
    factors = []
    for idx, marker in enumerate(markers, start=1):
        if marker == "identity":
            factors.append(None)
        elif marker == "dense":
            if f"factor{idx}" not in arrays:
                raise ContainerFormatError(f"dense factor {idx} missing from payload")
            factors.append(arrays[f"factor{idx}"])
        else:
            raise ContainerFormatError(f"unknown factor marker {marker!r}")
    return tuple(factors)


def container_kind(path) -> str:
    """Peek at a container's representation kind without loading arrays."""
    kv, _, _ = _split(Path(path).read_bytes())
    return _take(kv, "kind")


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

    if kind == "kron_sum":
        return KronSumRep(
            pattern=_parse_pattern(kv, "pattern."),
            coeffs=arrays["coeffs"],
            terms=arrays["terms"],
        )
    if kind == "blr":
        return BlockLowRankRep(
            pattern=_parse_pattern(kv, "pattern."),
            left=arrays["left"],
            right=arrays["right"],
            middles=arrays["middles"],
        )
    if kind == "tucker_raw":
        return TuckerBlockRep(
            pattern=_parse_pattern(kv, "pattern."),
            tucker=TuckerRep(core=arrays["core"], factors=_factors_from(kv, arrays, 3)),
        )
    if kind == "spsd":
        return SpsdRep(
            pattern=_parse_pattern(kv, "pattern."),
            basis=arrays["basis"],
            blocks=arrays["blocks"],
        )
    if kind == "spd":
        remainder = SpsdRep(
            pattern=_parse_pattern(kv, "pattern."),
            basis=arrays["basis"],
            blocks=arrays["blocks"],
        )
        return SpdRep(chol=arrays["chol"], remainder=remainder, ell=_take_int(kv, "ell"))
    if kind == "multilevel":
        depth = _take_int(kv, "levels")
        levels = tuple(_parse_pattern(kv, f"pattern{t}.") for t in range(1, depth + 1))
        pattern = MultilevelPattern(levels=levels)
        tucker = TuckerRep(
            core=arrays["core"], factors=_factors_from(kv, arrays, depth + 2)
        )
        return MultilevelTuckerRep(pattern=pattern, tucker=tucker)
    raise ContainerFormatError(f"unknown representation kind {kind!r}")
