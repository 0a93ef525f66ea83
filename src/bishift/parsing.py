"""Text syntax for Laurent polynomials.

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
order and always round-trips through :func:`parse_poly`.  System documents
are read and written by :mod:`bishift.io`.
"""

from __future__ import annotations

from ._sparse import check_rank
from .errors import ParseError, PolySyntaxError, VariableIndexOutOfRangeError
from .fields import decimal_text, short_text
from .laurent import LaurentPoly

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


def _scan_sint(cur: _Cursor) -> str:
    start = cur.pos
    if cur.peek() == "-":
        cur.pos += 1
    digits = cur.read_digits()
    if not digits:
        cur.fail("malformed integer", expected=("digit",))
    return cur.text[start : cur.pos]


def _read_int(cur: _Cursor, text: str, pos: int) -> int:
    # int() refuses text beyond its digit limit
    try:
        return int(text)
    except ValueError as e:
        cur.fail(f"cannot read {short_text(text)}: {e}", pos=pos)


def _parse_coeff(cur: _Cursor):
    # scan sint, then '/' or '.' with any digits, and read the text by the
    # field's scalar grammar; its typed error is reported at the token's start
    start = cur.pos
    _scan_sint(cur)
    if cur.peek() in "/." and cur.peek():
        cur.pos += 1
        cur.read_digits()
    try:
        return cur.field.parse_token(cur.text[start : cur.pos])
    except ParseError as e:
        cur.fail(str(e), pos=start, cls=type(e))


def _parse_factor(cur: _Cursor, exps):
    start = cur.pos
    if cur.peek() != "X":
        cur.fail("expected a variable", expected=("'X'",))
    cur.pos += 1
    digits = cur.read_digits()
    if digits:
        index = _read_int(cur, digits, start + 1)
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
        at = cur.pos
        e = _read_int(cur, _scan_sint(cur), at)
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
        coeff = _parse_coeff(cur)
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
    check_rank(rank)
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
        factors.append(name if e == 1 else f"{name}^{decimal_text(e)}")
    return "*".join(factors)


def _sign_split(field, v):
    """Sign and magnitude of a raw payload."""
    # canonical GF residues sit in [0, p) and never read as negative
    if v < 0:
        return -1, field._neg(v)
    return 1, v


def format_poly(d: LaurentPoly) -> str:
    """Deterministic text form; ``parse_poly(format_poly(d))`` equals ``d``."""
    if d.is_zero():
        return "0"
    field = d.field
    one = field.one.payload
    pieces = []
    for alpha in d.sorted_support():
        sign, magnitude = _sign_split(field, d._terms[alpha])
        mono = _mono_text(alpha, d.rank)
        if not mono:
            body = field._format(magnitude)
        elif field._eq(magnitude, one):
            body = mono
        else:
            body = f"{field._format(magnitude)}*{mono}"
        if not pieces:
            if sign < 0:
                # keep the leading term inside the grammar: "-X" is not a term
                if body == mono:
                    body = f"{field._format(magnitude)}*{mono}"
                pieces.append(f"-{body}")
            else:
                pieces.append(body)
        else:
            pieces.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(pieces)
