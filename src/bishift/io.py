"""Text file formats: sparse CSV signals, periodic documents, kernel reports.

All writers are deterministic (same data, same bytes).  All readers
raise a typed error from :mod:`bishift.errors` on malformed input.
Signal classes and the JSON encoder are imported where they are used.
P5 images are read and written by :mod:`bishift.pgm`.
"""

from __future__ import annotations

import math
from itertools import chain
from pathlib import Path

from .errors import (
    BadValueTokenError,
    DuplicateIndexError,
    RankMismatchError,
    SchemaError,
)
from .fields import decimal_int, decimal_text
from .laurent import System
from .parsing import document_field, load_document, parse_system, positive_int


def read_seq_csv(path, rank: int, field):
    """Read a sparse signal (a ``FiniteSeq``): one row per nonzero sample, ``i_1,..,i_r,value``.

    The file is UTF-8 text; one leading byte-order mark is dropped.
    """
    from .sequences import FiniteSeq

    try:
        # the mark is dropped after decoding, so an error's offset counts the file's bytes
        text = Path(path).read_bytes().decode().removeprefix("\ufeff")
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
