"""Text file formats: sparse CSV signals, system and periodic documents, kernel reports.

One loader reads the three JSON documents and checks the ``rank`` and ``field``
they share; one writer joins their members by hand.  All writers are
deterministic (same data, same bytes).  All readers raise a typed error from
:mod:`bishift.errors` on malformed input: the constructors of :mod:`bishift.sequences`
own the rank, the periods and the row shape, and a reader re-raises their errors as
SchemaError naming the path.  The JSON codec is imported where it is used.  P5 images
are read and written by :mod:`bishift.pgm`.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

from ._sparse import check_rank
from .errors import (
    BadValueTokenError, BishiftError, DuplicateIndexError, ParseError, RankMismatchError,
    SchemaError,
)
from .fields import decimal_int, decimal_text, parse_field_spec
from .laurent import PolyMatrix, System
from .parsing import format_poly, parse_poly
from .sequences import FiniteSeq, KernelBasis, PeriodicSeq, SeqVector, check_periods

_SYSTEM_KEYS = ("rank", "field", "k", "l", "entries")


def read_seq_csv(path, rank: int, field):
    """Read a sparse signal (a ``FiniteSeq``): one row per nonzero sample, ``i_1,..,i_r,value``.

    The file is UTF-8 text; one leading byte-order mark is dropped.
    """
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


def _positive_int(value, what):
    """``value`` if it is an int >= 1, else SchemaError; booleans are refused."""
    if type(value) is not int or value < 1:
        raise SchemaError(f"{what} must be an int >= 1, got {value!r}")
    return value


def _checked(where, build, *args):
    """``build(*args)``, its ValueError or package error raised as SchemaError after ``where``."""
    try:
        return build(*args)
    except (ValueError, BishiftError) as e:
        raise SchemaError(f"{where}{e}") from None


def _load_document(data, what, keys, path=None):
    """The JSON object in ``data`` (text or bytes), with its rank and its field.

    The object must hold every key of ``keys``, which include ``rank`` (an
    int from 1 to MAX_RANK) and ``field`` (a field spec string).  Anything
    else raises SchemaError naming ``what``, after ``path`` if given; a
    string that names no field raises FieldSpecError.
    """
    import json

    where = "" if path is None else f"{path}: "
    try:
        doc = json.loads(data)
    except ValueError as e:  # bad JSON, undecodable bytes or an integer past int()'s limit
        raise SchemaError(f"{where}{what} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}{what} must be a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise SchemaError(f"{where}{what} is missing {missing}")
    _checked(where, check_rank, doc["rank"], "'rank'")
    spec = doc["field"]
    if not isinstance(spec, str):
        raise SchemaError(f"{where}'field' must be a field spec string, got {spec!r}")
    return doc, doc["rank"], parse_field_spec(spec)


def _json_list(items, depth):
    """JSON text of a list of JSON texts, in the json module's ``indent=2`` layout at ``depth``."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    return f"[{pad}{body}{pad[:-2]}]" if body else "[]"


def _document(obj, members):
    """Text of the JSON document holding ``rank`` and ``field`` of ``obj``, then ``members``.

    ``members`` are (key, JSON text) pairs.  The text is in the json
    module's ``indent=2`` layout plus a newline, and comes as a list of
    pieces, so a kernel basis of millions of entries is not copied once
    more to be written.
    """
    from json.encoder import encode_basestring_ascii

    members = [
        ("rank", decimal_text(obj.rank)),
        ("field", encode_basestring_ascii(obj.field.spec())),
        *members,
    ]
    pieces = []
    for i, (key, text) in enumerate(members):
        pieces += (f'{"," if i else "{"}\n  "{key}": ', text)
    pieces.append("\n}\n")
    return pieces


def _write_lattice_doc(path, lattice, members) -> None:
    """Write ``lattice``'s document, its periods before ``members``; a bad value leaves no file."""
    periods = _json_list(map(decimal_text, lattice.periods), 1)
    pieces = _document(lattice, [("periods", periods), *members])
    with open(path, "w") as out:
        out.writelines(pieces)


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
    """Load a JSON document on a period lattice; check its rank, field and periods."""
    keys = ("rank", "field", "periods", *keys)
    doc, rank, field = _load_document(Path(path).read_bytes(), what, keys, path)
    if not isinstance(doc["periods"], list):
        raise SchemaError(f"{path}: 'periods' must be a list, got {doc['periods']!r}")
    return doc, rank, field, _checked(f"{path}: ", check_periods, doc["periods"], rank, "periods")


def read_kernel_report(path):
    doc, rank, field, periods = _read_lattice_doc(path, "kernel report", ("dimension", "basis"))
    if type(doc["dimension"]) is not int:
        raise SchemaError(f"{path}: 'dimension' must be an int, got {doc['dimension']!r}")
    rows = doc["basis"]
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) and all(isinstance(t, str) for t in row) for row in rows)
    ):
        raise SchemaError(f"{path}: 'basis' must be a list of lists of value strings")
    basis = []
    for row in rows:
        values = [field.parse_token(t).payload for t in row]
        basis.append(_checked(f"{path}: ", SeqVector._stacked, rank, field, periods, values))
    if doc["dimension"] != len(basis):
        raise SchemaError(f"{path}: dimension {doc['dimension']} but {len(basis)} basis rows")
    return _checked(f"{path}: ", KernelBasis, rank, field, periods, basis)


def write_periodic_json(path, signal) -> None:
    """Write a periodic signal or signal vector as one stacked document."""
    from json.encoder import encode_basestring_ascii

    if isinstance(signal, PeriodicSeq):
        signal = SeqVector([signal])
    if not isinstance(signal, SeqVector) or signal.kind != "periodic":
        raise TypeError("expected a periodic signal or signal vector")
    values = chain.from_iterable(comp._values for comp in signal)
    tokens = next(signal.field._format_rows([values], encode_basestring_ascii))
    _write_lattice_doc(path, signal, [("values", _json_list(tokens, 1))])


def read_periodic_json(path, components: int = 1):
    """Read a stacked periodic document with the given component count, as a ``SeqVector``."""
    doc, rank, field, periods = _read_lattice_doc(path, "periodic document", ("values",))
    values = doc["values"]
    if not isinstance(values, list):
        raise SchemaError(f"{path}: 'values' must be a list")
    parsed = [field.parse_token(str(t)).payload for t in values]
    vec = _checked(f"{path}: ", SeqVector._stacked, rank, field, periods, parsed)
    if len(vec) != components:
        raise SchemaError(f"{path}: {len(vec)} components, expected {components}")
    return vec


def parse_system(text) -> System:
    """Read a system document (text or bytes): rank, field, k, l and a k-by-l entries grid."""
    doc, rank, field = _load_document(text, "system document", _SYSTEM_KEYS)
    extra = doc.keys() - _SYSTEM_KEYS
    if extra:
        raise SchemaError(f"system document has unknown keys {sorted(extra)}")
    k, l = (_positive_int(doc[key], repr(key)) for key in ("k", "l"))
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != k:
        raise SchemaError(f"'entries' must be a list of {k} rows")
    grid = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != l:
            raise SchemaError(f"entries row {i} must be a list of {l} expressions")
        parsed_row = []
        for j, src in enumerate(row):
            if not isinstance(src, str):
                raise SchemaError(f"entry ({i},{j}) must be a string expression")
            try:
                parsed_row.append(parse_poly(src, rank, field))
            except ParseError as e:
                err = type(e)(f"system entry ({i},{j}): {e}")
                err.position = e.position
                err.expected = e.expected
                raise err from None
        grid.append(parsed_row)
    return System(PolyMatrix(grid))


def format_system(system: System) -> str:
    """Inverse-oriented writer for system documents (round-trip safe)."""
    from json.encoder import encode_basestring_ascii

    entry = system.matrix.entry
    rows = ([encode_basestring_ascii(format_poly(entry(i, j))) for j in range(system.l)]
            for i in range(system.k))
    entries = _json_list((_json_list(row, 2) for row in rows), 1)
    members = [("k", decimal_text(system.k)), ("l", decimal_text(system.l)), ("entries", entries)]
    return "".join(_document(system, members))


def read_system(path) -> System:
    return parse_system(Path(path).read_bytes())
