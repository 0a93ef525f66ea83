"""File formats: sparse CSV signals, periodic documents, kernel reports, PGM images.

All writers are deterministic (same data, same bytes).  All readers
raise a typed error from :mod:`bishift.errors` on malformed input.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    BadValueTokenError,
    DuplicateIndexError,
    FloatFieldUnsupportedError,
    RankMismatchError,
    SchemaError,
    TruncatedPixelDataError,
)
from ._sparse import index_array, payload_array
from .fields import FloatField
from .parsing import document_field, parse_system, positive_int
from .sequences import FiniteSeq, PeriodicSeq, SeqVector
from .systems import KernelBasis, System

_INDEX_RE = re.compile(r"-?[0-9]+\Z")


def read_seq_csv(path, rank: int, field) -> FiniteSeq:
    """Read a sparse signal: one row per nonzero sample, ``i_1,..,i_r,value``."""
    text = Path(path).read_text()
    terms = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != rank + 1:
            raise RankMismatchError(
                f"{path}: line {lineno} has {len(cells)} fields, expected {rank + 1}"
            )
        if not all(_INDEX_RE.fullmatch(c) for c in cells[:rank]):
            raise BadValueTokenError(
                f"{path}: line {lineno}: bad index {cells[:rank]!r}"
            )
        idx = tuple(int(c) for c in cells[:rank])
        if idx in terms:
            raise DuplicateIndexError(f"{path}: line {lineno}: index {idx} repeated")
        terms[idx] = field.parse_token(cells[rank])
    return FiniteSeq(rank, field, terms)


def write_seq_csv(path, seq: FiniteSeq) -> None:
    """Write rows in ascending lexicographic index order."""
    field = seq.field
    lines = []
    for idx in seq.sorted_support():
        cells = [str(x) for x in idx]
        cells.append(field.format_value(seq.terms[idx]))
        lines.append(",".join(cells))
    Path(path).write_text("".join(line + "\n" for line in lines))


def _pgm_tokens(data: bytes):
    """Header tokens of a PGM file, skipping whitespace and # comments."""
    pos = 0
    tokens = []
    while len(tokens) < 4 and pos < len(data):
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
            continue
        if c == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
        if len(tokens) == 4:
            pos += 1  # single whitespace byte separates header from raster
    return tokens, pos


def read_pgm(path, field=FloatField()):
    """Read a binary P5 image.

    Pixel at row y, column x becomes the sample at index (x, y) with
    value gray / maxval in the given float field; samples the field
    treats as zero are not stored.  Returns ``(seq, width, height,
    maxval)`` so a caller can write the image back with identical
    geometry.
    """
    if field.is_exact:
        raise FloatFieldUnsupportedError(f"images need a float field, not {field.spec()}")
    data = Path(path).read_bytes()
    tokens, pos = _pgm_tokens(data)
    if not tokens or tokens[0] != b"P5":
        raise BadMagicError(f"{path}: not a binary P5 image")
    if len(tokens) < 4:
        raise BadMagicError(f"{path}: incomplete P5 header")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise BadMagicError(f"{path}: non-numeric P5 header fields") from None
    if width < 1 or height < 1:
        raise BadMagicError(f"{path}: bad image size {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise BadMagicError(f"{path}: maxval {maxval} outside 1..65535")
    sample_bytes = 1 if maxval < 256 else 2
    expected = width * height * sample_bytes
    raster = data[pos:]
    if len(raster) < expected:
        raise TruncatedPixelDataError(
            f"{path}: raster has {len(raster)} bytes, expected {expected}"
        )
    if len(raster) > expected and raster[expected:].strip():
        raise TruncatedPixelDataError(f"{path}: trailing data after the raster")
    dtype = np.uint8 if sample_bytes == 1 else np.dtype(">u2")
    grays = np.frombuffer(raster[:expected], dtype=dtype).reshape(height, width)
    values = grays / maxval  # float64, correctly rounded like int / int
    ys, xs = np.nonzero(values > field.tolerance)
    terms = dict(zip(zip(xs.tolist(), ys.tolist()), values[ys, xs].tolist()))
    return FiniteSeq._wrap(2, field, terms), width, height, maxval


def write_pgm(path, seq: FiniteSeq, width: int, height: int, maxval: int = 255) -> None:
    """Write the window [0,width) x [0,height) of a rank-2 float signal.

    Samples are clamped to [0, 1] and quantized to round(v * maxval)
    half up; anything outside the window is not written.
    """
    if seq.rank != 2:
        raise RankMismatchError("image output needs a rank-2 signal")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} outside 1..65535")
    xs, ys = index_array(seq._terms, 2).T
    values = payload_array(seq._terms)
    inside = (0 <= xs) & (xs < width) & (0 <= ys) & (ys < height)
    xs, ys, values = xs[inside], ys[inside], values[inside]
    if np.isnan(values).any():
        raise ValueError("cannot quantize a NaN sample")
    grays = np.zeros((height, width), dtype=np.uint32)
    # truncating the non-negative value is the floor of round-half-up
    grays[ys, xs] = (np.clip(values, 0.0, 1.0) * maxval + 0.5).astype(np.uint32)
    dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + grays.astype(dtype).tobytes())


def _stacked_values(vec: SeqVector):
    out = []
    for comp in vec:
        out.extend(comp.values)
    return out


def write_kernel_report(kernel: KernelBasis, path) -> None:
    """Write periods, dimension and the basis in stacked coordinate order."""
    field = kernel.field
    doc = {
        "rank": kernel.rank,
        "field": field.spec(),
        "periods": list(kernel.periods),
        "dimension": kernel.dimension,
        "basis": [
            [field.format_value(v) for v in _stacked_values(vec)]
            for vec in kernel.basis
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _read_lattice_doc(path, what, keys):
    """Load a JSON document on a period lattice; check its field, rank and periods."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid {what}: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: {what} must be a JSON object")
    for key in keys:
        if key not in doc:
            raise SchemaError(f"{path}: {what} is missing {key!r}")
    rank = positive_int(doc["rank"], f"{path}: 'rank'")
    periods = doc["periods"]
    if not isinstance(periods, list) or len(periods) != rank:
        raise SchemaError(f"{path}: 'periods' must be a list of {rank} ints, got {periods!r}")
    periods = tuple(positive_int(n, f"{path}: period") for n in periods)
    return doc, rank, document_field(doc["field"], f"{path}: 'field'"), periods


def read_kernel_report(path) -> KernelBasis:
    doc, rank, field, periods = _read_lattice_doc(
        path, "kernel report", ("rank", "field", "periods", "dimension", "basis")
    )
    rows = doc["basis"]
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) and all(isinstance(t, str) for t in row) for row in rows)
    ):
        raise SchemaError(f"{path}: 'basis' must be a list of lists of value strings")
    size = math.prod(periods)
    basis = []
    for row in rows:
        if not row or len(row) % size:
            raise SchemaError(
                f"{path}: basis row length {len(row)} not a positive multiple of {size}"
            )
        values = [field.parse_token(t) for t in row]
        comps = [
            PeriodicSeq(rank, field, periods, values[j * size : (j + 1) * size])
            for j in range(len(values) // size)
        ]
        basis.append(SeqVector(comps))
    if doc["dimension"] != len(basis):
        raise SchemaError(f"{path}: dimension {doc['dimension']} but {len(basis)} basis rows")
    return KernelBasis(
        rank=rank,
        field=field,
        periods=periods,
        dimension=len(basis),
        basis=tuple(basis),
    )


def write_periodic_json(path, signal) -> None:
    """Write a periodic signal or signal vector as one stacked document."""
    if isinstance(signal, PeriodicSeq):
        signal = SeqVector([signal])
    if not isinstance(signal, SeqVector) or signal.kind != "periodic":
        raise TypeError("expected a periodic signal or signal vector")
    field = signal.field
    doc = {
        "rank": signal.rank,
        "field": field.spec(),
        "periods": list(signal.periods),
        "values": [field.format_value(v) for v in _stacked_values(signal)],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_periodic_json(path, components: int = 1) -> SeqVector:
    """Read a stacked periodic document with the given component count."""
    doc, rank, field, periods = _read_lattice_doc(
        path, "periodic document", ("rank", "field", "periods", "values")
    )
    size = math.prod(periods)
    values = doc["values"]
    if not isinstance(values, list):
        raise SchemaError(f"{path}: 'values' must be a list")
    if len(values) != components * size:
        raise SchemaError(
            f"{path}: {len(values)} values for {components} components of size {size}"
        )
    parsed = [field.parse_token(str(t)) for t in values]
    comps = [
        PeriodicSeq(rank, field, periods, parsed[j * size : (j + 1) * size])
        for j in range(components)
    ]
    return SeqVector(comps)


def read_system(path) -> System:
    return parse_system(Path(path).read_text())
