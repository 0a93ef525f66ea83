"""File formats: sparse CSV signals, periodic documents, kernel reports, PGM images.

All writers are deterministic (same data, same bytes).  All readers
raise a typed error from :mod:`bishift.errors` on malformed input.
Signal classes and the JSON encoder are imported where they are used, so
``filter --pgm`` loads neither.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain, compress
from pathlib import Path

from .errors import (
    BadMagicError,
    BadValueTokenError,
    DuplicateIndexError,
    FloatFieldUnsupportedError,
    ImageWriteError,
    RankMismatchError,
    SchemaError,
    TruncatedPixelDataError,
)
from .fields import FloatField, decimal_int, decimal_text
from .laurent import System
from .parsing import document_field, load_document, parse_system, positive_int


def read_seq_csv(path, rank: int, field):
    """Read a sparse signal (a ``FiniteSeq``): one row per nonzero sample, ``i_1,..,i_r,value``."""
    from .sequences import FiniteSeq

    try:
        text = Path(path).read_bytes().decode()
    except UnicodeDecodeError as e:
        raise BadValueTokenError(f"{path}: not UTF-8 text", position=e.start) from None
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


def write_seq_csv(path, seq) -> None:
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


def _read_raster(path, field, kernel):
    """Decode a P5 image into one flat list of floats, padded for the ``kernel`` map.

    Pixel (x, y) holds gray / maxval, 0.0 where ``field`` treats it as zero, at row
    ``y - lo2``, column ``x - lo1``, ``lo``/``hi`` being the kernel's extreme exponents
    widened to hold 0; terms that read no pixel are left out.  Returns ``(raster, terms,
    row, width, height, maxval)``, ``terms`` the (slice start, coefficient) pairs in order.
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
    grays = array("B" if sample_bytes == 1 else "H", raster[:expected])
    if sample_bytes == 2 and sys.byteorder == "little":
        grays.byteswap()  # the raster is big-endian
    # a gray above maxval reads as a value above 1
    tol = field.tolerance
    scale = [v if tol < v else 0.0 for v in (g / maxval for g in range(max(grays) + 1))]
    near = {a: c for a, c in kernel.items() if abs(a[0]) < width and abs(a[1]) < height}
    (lo1, lo2), (hi1, hi2) = ([f([0, *(a[i] for a in near)]) for i in (0, 1)] for f in (min, max))
    row = width + hi1 - lo1
    padded = [0.0] * (row * (height + hi2 - lo2))
    # pixel (0, 0) sits at padded cell -lo2 * row - lo1, each later image row one row on
    for at, i in zip(range(-lo2 * row - lo1, len(padded), row), range(0, width * height, width)):
        padded[at : at + width] = map(scale.__getitem__, grays[i : i + width])
    terms = [((a2 - lo2) * row + a1 - lo1, c) for (a1, a2), c in near.items()]
    return padded, terms, row, width, height, maxval


def read_pgm(path, field=FloatField()):
    """Read a P5 image as ``(seq, width, height, maxval)``, pixel (x, y) at index (x, y)."""
    from .sequences import FiniteSeq

    raster, _, _, width, height, maxval = _read_raster(path, field, {})
    keys = ((x, y) for y in range(height) for x in range(width))
    terms = dict(compress(zip(keys, raster), raster))
    return FiniteSeq._wrap(2, field, terms), width, height, maxval


def _write_raster(path, samples, row, width, height, maxval, tol) -> None:
    """Write the ``width`` x ``height`` window of a flat raster with rows ``row`` apart.

    A sample at or below ``tol`` is gray 0, one at or above 1 is maxval, and the rest
    round ``v * maxval`` half up; a NaN in the window raises :class:`ImageWriteError`.
    """
    if not 1 <= maxval <= 65535:
        raise ImageWriteError(f"maxval {maxval} outside 1..65535")
    window = chain.from_iterable(samples[y * row : y * row + width] for y in range(height))
    try:
        grays = [0 if v <= tol else maxval if v >= 1.0 else int(v * maxval + 0.5) for v in window]
    except ValueError:  # int() of a NaN, which fails both comparisons
        raise ImageWriteError("cannot quantize a NaN sample") from None
    data = array("B" if maxval < 256 else "H", grays)
    if data.itemsize == 2 and sys.byteorder == "little":
        data.byteswap()  # the raster is big-endian
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def write_pgm(path, seq, width: int, height: int, maxval: int = 255) -> None:
    """Write the window [0,width) x [0,height) of a rank-2 signal, see :func:`_write_raster`."""
    if seq.rank != 2:
        raise RankMismatchError("image output needs a rank-2 signal")
    samples = [0.0] * (width * height)
    for (x, y), v in seq._terms.items():
        if 0 <= x < width and 0 <= y < height:
            samples[y * width + x] = v
    _write_raster(path, samples, width, width, height, maxval, getattr(seq.field, "tolerance", 0))


def filter_pgm(src, dst, kernel) -> None:
    """Write the P5 image ``src`` shifted by ``kernel`` to ``dst``, in ``kernel.field``.

    The bytes of ``write_pgm`` of the ``shift`` of ``read_pgm(src)``, from one
    padded raster: each kernel term is one slice of it in ``field._dot_columns``.
    """
    if kernel.rank != 2:
        raise RankMismatchError("image filtering needs a rank-2 kernel")
    field = kernel.field
    raster, terms, row, width, height, maxval = _read_raster(src, field, kernel._terms)
    size = (height - 1) * row + width
    if terms:
        starts, cs = zip(*terms)
        samples = field._dot_columns(cs, raster, [range(at, at + size) for at in starts])
    else:
        samples = [0.0] * size
    _write_raster(dst, samples, row, width, height, maxval, field.tolerance)


def _json_list(items, depth):
    """JSON text of a list of JSON texts, in the json module's ``indent=2`` layout at ``depth``."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    return f"[{pad}{body}{pad[:-2]}]" if body else "[]"


def _write_lattice_doc(path, lattice, members) -> None:
    """Write ``rank``, ``field`` and ``periods`` of ``lattice``, then ``members``.

    ``members`` are (key, JSON text) pairs, all formatted before the file is
    opened, so a value that cannot be written leaves no file.  They are written
    one at a time, in the json module's ``indent=2`` layout plus a newline,
    because a kernel basis can hold millions of entries.
    """
    from json.encoder import encode_basestring_ascii

    members = [
        ("rank", decimal_text(lattice.rank)),
        ("field", encode_basestring_ascii(lattice.field.spec())),
        ("periods", _json_list(map(decimal_text, lattice.periods), 1)),
        *members,
    ]
    with open(path, "w") as out:
        for i, (key, text) in enumerate(members):
            out.writelines((f'{"," if i else "{"}\n  "{key}": ', text))
        out.write("\n}\n")


def write_kernel_report(kernel, path) -> None:
    """Write a ``KernelBasis``: periods, dimension and the basis in stacked coordinate order."""
    from json.encoder import encode_basestring_ascii

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


def read_kernel_report(path):
    from .sequences import KernelBasis, SeqVector

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
    from json.encoder import encode_basestring_ascii

    from .sequences import PeriodicSeq, SeqVector

    if isinstance(signal, PeriodicSeq):
        signal = SeqVector([signal])
    if not isinstance(signal, SeqVector) or signal.kind != "periodic":
        raise TypeError("expected a periodic signal or signal vector")
    values = chain.from_iterable(comp._values for comp in signal)
    tokens = next(signal.field._format_rows([values], encode_basestring_ascii))
    _write_lattice_doc(path, signal, [("values", _json_list(tokens, 1))])


def read_periodic_json(path, components: int = 1):
    """Read a stacked periodic document with the given component count, as a ``SeqVector``."""
    from .sequences import SeqVector

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
