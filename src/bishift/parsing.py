"""Text syntax for Laurent polynomials and system matrices.

The expression grammar (LL(1), no parentheses, '^' binds tighter than
'*' binds tighter than '+'/'-'):

    poly   := ws term (ws ('+'|'-') ws term)* ws
    term   := coeff ('*' mono)? | mono
    mono   := factor ('*' factor)*
    factor := var ('^' sint)?          omitted exponent = 1
    var    := 'X' digits?              bare 'X' only when rank = 1
    coeff  := sint | sint '/' digits | decimal
    sint   := ['-'] digits

Decimal coefficients are only accepted under the float field.  Error
positions are 0-based byte offsets of the UTF-8 encoding of the input.
:func:`format_poly` emits terms in ascending lexicographic exponent
order and always round-trips through :func:`parse_poly`.
"""

from __future__ import annotations

import json

from .errors import (
    BadValueTokenError,
    DecimalInExactFieldError,
    NonFiniteValueError,
    ParseError,
    PolySyntaxError,
    SchemaError,
    VariableIndexOutOfRangeError,
    ZeroDenominatorError,
)
from .fields import FieldValue, parse_field_spec
from .laurent import LaurentPoly, PolyMatrix
from .systems import System

_WS = " \t\r\n"
_DIGITS = "0123456789"


class _Cursor:
    __slots__ = ("text", "pos", "rank", "field")

    def __init__(self, text, rank, field):
        self.text = text
        self.pos = 0
        self.rank = rank
        self.field = field

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def byte_offset(self, pos=None):
        p = self.pos if pos is None else pos
        return len(self.text[:p].encode("utf-8", "surrogatepass"))

    def fail(self, message, expected=None, pos=None, cls=PolySyntaxError):
        raise cls(message, position=self.byte_offset(pos), expected=expected)

    def skip_ws(self):
        while self.peek() in _WS and self.peek():
            self.pos += 1

    def read_digits(self):
        start = self.pos
        while self.peek() in _DIGITS and self.peek():
            self.pos += 1
        return self.text[start : self.pos]


def _parse_sint(cur: _Cursor) -> int:
    start = cur.pos
    if cur.peek() == "-":
        cur.pos += 1
    digits = cur.read_digits()
    if not digits:
        cur.fail("malformed integer", expected=("digit",))
    return int(cur.text[start : cur.pos])


def _parse_coeff(cur: _Cursor):
    start = cur.pos
    num = _parse_sint(cur)
    if cur.peek() == "/":
        cur.pos += 1
        digits = cur.read_digits()
        if not digits:
            cur.fail("malformed fraction", expected=("digit",))
        den = int(digits)
        if den == 0:
            cur.fail(
                "zero denominator",
                pos=start,
                cls=ZeroDenominatorError,
            )
        try:
            return cur.field.value(num, den)
        except ZeroDivisionError:
            cur.fail(
                f"denominator {den} is zero in {cur.field.spec()}",
                pos=start,
                cls=ZeroDenominatorError,
            )
    if cur.peek() == ".":
        cur.pos += 1
        digits = cur.read_digits()
        if not digits:
            cur.fail("malformed decimal", expected=("digit",))
        if cur.field.is_exact:
            cur.fail(
                f"decimal coefficient in exact field {cur.field.spec()}",
                pos=start,
                cls=DecimalInExactFieldError,
            )
        return cur.field.value(float(cur.text[start : cur.pos]))
    return cur.field.value(num)


def _parse_factor(cur: _Cursor, exps):
    start = cur.pos
    if cur.peek() != "X":
        cur.fail("expected a variable", expected=("'X'",))
    cur.pos += 1
    digits = cur.read_digits()
    if digits:
        index = int(digits)
        if not 1 <= index <= cur.rank:
            cur.fail(
                f"variable X{index} outside X1..X{cur.rank}",
                pos=start,
                cls=VariableIndexOutOfRangeError,
            )
    else:
        if cur.rank != 1:
            cur.fail(
                f"bare X is only allowed at rank 1 (rank is {cur.rank})",
                pos=start,
                cls=VariableIndexOutOfRangeError,
            )
        index = 1
    if cur.peek() == "^":
        cur.pos += 1
        e = _parse_sint(cur)
    else:
        e = 1
    exps[index - 1] += e


def _parse_mono(cur: _Cursor):
    exps = [0] * cur.rank
    _parse_factor(cur, exps)
    while cur.peek() == "*":
        cur.pos += 1
        _parse_factor(cur, exps)
    return tuple(exps)


def _parse_term(cur: _Cursor):
    c = cur.peek()
    if c == "X":
        return cur.field.one, _parse_mono(cur)
    if c == "-" or c in _DIGITS:
        start = cur.pos
        try:
            coeff = _parse_coeff(cur)
        except NonFiniteValueError as e:
            cur.fail(f"coefficient out of range: {e}", pos=start, cls=BadValueTokenError)
        if cur.peek() == "*":
            cur.pos += 1
            return coeff, _parse_mono(cur)
        return coeff, (0,) * cur.rank
    cur.fail("expected a term", expected=("coefficient", "'X'"))


def parse_poly(text: str, rank: int = 1, field=None) -> LaurentPoly:
    """Parse an expression into a canonical Laurent polynomial.

    Like terms are combined and zero terms dropped, so ``"X - X"``
    yields the zero polynomial.
    """
    if field is None:
        raise TypeError("parse_poly needs a field")
    if not isinstance(rank, int) or rank < 1:
        raise ValueError(f"rank must be a positive int, got {rank!r}")
    cur = _Cursor(text, rank, field)
    acc = {}

    def take(sign, coeff, exps):
        v = field.neg(coeff) if sign < 0 else coeff
        prev = acc.get(exps)
        acc[exps] = v if prev is None else field.add(prev, v)

    cur.skip_ws()
    take(1, *_parse_term(cur))
    while True:
        cur.skip_ws()
        c = cur.peek()
        if not c:
            break
        if c == "+":
            sign = 1
        elif c == "-":
            sign = -1
        else:
            cur.fail("unexpected input", expected=("'+'", "'-'", "end of input"))
        cur.pos += 1
        cur.skip_ws()
        take(sign, *_parse_term(cur))
    return LaurentPoly(rank, field, acc)


def _mono_text(alpha, rank) -> str:
    factors = []
    for i, e in enumerate(alpha, start=1):
        if e == 0:
            continue
        name = "X" if rank == 1 else f"X{i}"
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def _sign_split(field, v):
    """Sign and boxed magnitude of a raw payload."""
    # canonical GF residues sit in [0, p) and never read as negative
    if v < 0:
        return -1, FieldValue(field, field._neg(v))
    return 1, FieldValue(field, v)


def format_poly(d: LaurentPoly) -> str:
    """Deterministic text form; ``parse_poly(format_poly(d))`` equals ``d``."""
    if d.is_zero():
        return "0"
    field = d.field
    pieces = []
    for alpha in d.sorted_support():
        sign, magnitude = _sign_split(field, d._terms[alpha])
        mono = _mono_text(alpha, d.rank)
        if not mono:
            body = field.format_value(magnitude)
        elif field.eq(magnitude, field.one):
            body = mono
        else:
            body = f"{field.format_value(magnitude)}*{mono}"
        if not pieces:
            if sign < 0:
                # keep the leading term inside the grammar: "-X" is not a term
                if body == mono:
                    body = f"{field.format_value(magnitude)}*{mono}"
                pieces.append(f"-{body}")
            else:
                pieces.append(body)
        else:
            pieces.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(pieces)


_SYSTEM_KEYS = {"rank", "field", "k", "l", "entries"}


def positive_int(value, what):
    """``value`` if it is an int >= 1, else SchemaError; booleans are refused."""
    if type(value) is not int or value < 1:
        raise SchemaError(f"{what} must be an int >= 1, got {value!r}")
    return value


def document_field(spec, what="'field'"):
    """The field a document's field spec string names; SchemaError if not a string.

    A string that names no field raises FieldSpecError.
    """
    if not isinstance(spec, str):
        raise SchemaError(f"{what} must be a field spec string, got {spec!r}")
    return parse_field_spec(spec)


def parse_system(text: str) -> System:
    """Read a system document: rank, field, k, l and a k-by-l entries grid."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid system document: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError("system document must be an object")
    missing = _SYSTEM_KEYS - doc.keys()
    if missing:
        raise SchemaError(f"system document is missing {sorted(missing)}")
    extra = doc.keys() - _SYSTEM_KEYS
    if extra:
        raise SchemaError(f"system document has unknown keys {sorted(extra)}")
    rank, k, l = (positive_int(doc[key], repr(key)) for key in ("rank", "k", "l"))
    field = document_field(doc["field"])
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
    doc = {
        "rank": system.rank,
        "field": system.field.spec(),
        "k": system.k,
        "l": system.l,
        "entries": [
            [format_poly(system.matrix.entry(i, j)) for j in range(system.l)]
            for i in range(system.k)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
