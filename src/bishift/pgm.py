"""Binary P5 (PGM) images: decoder, encoder and the ``filter --pgm`` raster filter.

An image is a rank-2 float signal with pixel (x, y) at index (x, y) and
value gray / maxval.  The writer is deterministic (same data, same bytes)
and the reader raises a typed error from :mod:`bishift.errors` on
malformed input.  ``FiniteSeq`` is imported where a signal is built, so
``filter --pgm`` loads neither :mod:`bishift.sequences` nor the CSV and
JSON formats of :mod:`bishift.io`.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain, compress
from pathlib import Path

from .errors import (
    BadMagicError,
    FloatFieldUnsupportedError,
    ImageWriteError,
    RankMismatchError,
    TruncatedPixelDataError,
)
from .fields import FloatField, decimal_int


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
    round ``v * maxval`` half up; a NaN or an infinity in the window raises
    :class:`ImageWriteError`.
    """
    if not 1 <= maxval <= 65535:
        raise ImageWriteError(f"maxval {maxval} outside 1..65535")
    starts = range(0, height * row, row)
    window = chain.from_iterable(samples[i : i + width] for i in starts)
    # floor equals int() here, where v * maxval + 0.5 exceeds 0.5, and takes a faster call
    floor = math.floor
    try:
        grays = [0 if v <= tol else maxval if v >= 1.0 else floor(v * maxval + 0.5) for v in window]
    except ValueError:  # floor() of a NaN, which fails both comparisons
        raise ImageWriteError("cannot quantize a NaN sample") from None
    # an infinity passed the comparisons above as gray 0 or maxval
    for s in (samples[i : i + width] for i in starts):
        if math.inf in (max(s, default=0.0), -min(s, default=0.0)):
            raise ImageWriteError("cannot quantize an infinite sample")
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
