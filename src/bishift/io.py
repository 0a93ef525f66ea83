"""File formats: sparse CSV signals, periodic documents, kernel reports, PGM images.

All writers are deterministic (same data, same bytes).  All readers
raise a typed error from :mod:`bishift.errors` on malformed input.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import lt
from pathlib import Path

from .errors import (
    BadMagicError,
    BadValueTokenError,
    DuplicateIndexError,
    FloatFieldUnsupportedError,
    RankMismatchError,
    SchemaError,
    TruncatedPixelDataError,
)
from .fields import FloatField, decimal_int, decimal_text
from .laurent import System
from .parsing import document_field, load_document, parse_system, positive_int
from .sequences import FiniteSeq, KernelBasis, PeriodicSeq, SeqVector


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
        try:
            idx = tuple(map(decimal_int, cells[:rank]))
        except ValueError:
            raise BadValueTokenError(
                f"{path}: line {lineno}: bad index {cells[:rank]!r}"
            ) from None
        if idx in terms:
            raise DuplicateIndexError(f"{path}: line {lineno}: index {idx} repeated")
        terms[idx] = field.parse_token(cells[rank])
    return FiniteSeq(rank, field, terms)


def write_seq_csv(path, seq: FiniteSeq) -> None:
    """Write rows in ascending lexicographic index order."""
    fmt, terms = seq.field._format, seq._terms
    rows = [[*map(decimal_text, idx), fmt(terms[idx])] for idx in seq.sorted_support()]
    Path(path).write_text("".join(",".join(cells) + "\n" for cells in rows))


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
        # a non-ASCII byte fails to decode, a ValueError like a bad digit
        width, height, maxval = (decimal_int(t.decode("ascii")) for t in tokens[1:4])
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
    if sample_bytes == 1:
        grays = raster[:expected]
    else:
        grays = array("H", raster[:expected])
        if sys.byteorder == "little":
            grays.byteswap()  # the raster is big-endian
    # a gray above maxval reads as a value above 1
    scale = [g / maxval for g in range(max(grays) + 1)]
    keys = [(x, y) for y in range(height) for x in range(width)]
    values = list(map(scale.__getitem__, grays))
    terms = dict(compress(zip(keys, values), map(lt, repeat(field.tolerance), values)))
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
    grays = bytearray(width * height) if maxval < 256 else array("H", bytes(2 * width * height))
    for (x, y), v in seq._terms.items():
        if 0 <= x < width and 0 <= y < height:
            if v != v:
                raise ValueError("cannot quantize a NaN sample")
            # clamp to [0, 1], then round half up
            grays[y * width + x] = 0 if v <= 0.0 else maxval if v >= 1.0 else int(v * maxval + 0.5)
    if maxval >= 256 and sys.byteorder == "little":
        grays.byteswap()
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + bytes(grays))


def _json_list(items, depth):
    """JSON text of a list of JSON texts, in the json module's ``indent=2`` layout at ``depth``."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    return f"[{pad}{body}{pad[:-2]}]" if body else "[]"


def _write_lattice_doc(path, lattice, members) -> None:
    """Write ``rank``, ``field`` and ``periods`` of ``lattice``, then ``members``.

    ``members`` are (key, JSON text) pairs.  The text is the json module's
    ``indent=2`` layout plus a newline, joined by hand because a kernel
    basis can hold millions of entries.
    """
    members = [
        ("rank", decimal_text(lattice.rank)),
        ("field", encode_basestring_ascii(lattice.field.spec())),
        ("periods", _json_list(map(decimal_text, lattice.periods), 1)),
        *members,
    ]
    body = ",\n".join(f'  "{key}": {text}' for key, text in members)
    Path(path).write_text(f"{{\n{body}\n}}\n")


def write_kernel_report(kernel: KernelBasis, path) -> None:
    """Write periods, dimension and the basis in stacked coordinate order."""
    payloads = (chain.from_iterable(comp._values for comp in vec) for vec in kernel.basis)
    rows = kernel.field._format_rows(payloads, encode_basestring_ascii)
    _write_lattice_doc(path, kernel, [
        ("dimension", decimal_text(kernel.dimension)),
        ("basis", _json_list((_json_list(tokens, 2) for tokens in rows), 1)),
    ])


def _read_lattice_doc(path, what, keys):
    """Load a JSON document on a period lattice; check its field, rank and periods."""
    keys = ("rank", "field", "periods", *keys)
    doc = load_document(Path(path).read_bytes(), f"{path}: {what}", keys)
    rank = positive_int(doc["rank"], f"{path}: 'rank'")
    periods = doc["periods"]
    if not isinstance(periods, list) or len(periods) != rank:
        raise SchemaError(f"{path}: 'periods' must be a list of {rank} ints, got {periods!r}")
    periods = tuple(positive_int(n, f"{path}: period") for n in periods)
    return doc, rank, document_field(doc["field"], f"{path}: 'field'"), periods


def read_kernel_report(path) -> KernelBasis:
    doc, rank, field, periods = _read_lattice_doc(path, "kernel report", ("dimension", "basis"))
    if type(doc["dimension"]) is not int:
        raise SchemaError(f"{path}: 'dimension' must be an int, got {doc['dimension']!r}")
    rows = doc["basis"]
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) and all(isinstance(t, str) for t in row) for row in rows)
    ):
        raise SchemaError(f"{path}: 'basis' must be a list of lists of value strings")
    if len({len(row) for row in rows}) > 1:
        raise SchemaError(f"{path}: basis rows differ in length")
    size = math.prod(periods)
    basis = []
    for row in rows:
        if not row or len(row) % size:
            raise SchemaError(
                f"{path}: basis row length {len(row)} not a positive multiple of {size}"
            )
        values = [field.parse_token(t).payload for t in row]
        basis.append(SeqVector._stacked(rank, field, periods, values))
    if doc["dimension"] != len(basis):
        raise SchemaError(f"{path}: dimension {doc['dimension']} but {len(basis)} basis rows")
    return KernelBasis(rank, field, periods, len(basis), tuple(basis))


def write_periodic_json(path, signal) -> None:
    """Write a periodic signal or signal vector as one stacked document."""
    if isinstance(signal, PeriodicSeq):
        signal = SeqVector([signal])
    if not isinstance(signal, SeqVector) or signal.kind != "periodic":
        raise TypeError("expected a periodic signal or signal vector")
    values = chain.from_iterable(comp._values for comp in signal)
    tokens = next(signal.field._format_rows([values], encode_basestring_ascii))
    _write_lattice_doc(path, signal, [("values", _json_list(tokens, 1))])


def read_periodic_json(path, components: int = 1) -> SeqVector:
    """Read a stacked periodic document with the given component count."""
    doc, rank, field, periods = _read_lattice_doc(path, "periodic document", ("values",))
    size = math.prod(periods)
    values = doc["values"]
    if not isinstance(values, list):
        raise SchemaError(f"{path}: 'values' must be a list")
    if len(values) != components * size:
        raise SchemaError(
            f"{path}: {len(values)} values for {components} components of size {size}"
        )
    parsed = [field.parse_token(str(t)).payload for t in values]
    return SeqVector._stacked(rank, field, periods, parsed)


def read_system(path) -> System:
    return parse_system(Path(path).read_bytes())
