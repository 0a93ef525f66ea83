"""Coefficient fields.

Everything in this package is generic over a commutative field of
coefficients.  Three concrete fields are provided:

* :class:`RationalField`, exact arbitrary-precision rationals;
* :class:`PrimeField`, integers modulo a prime ``p``;
* :class:`FloatField`, 64-bit floats with tolerance-based comparison,
  meant for signal filtering rather than for the exact algebra.

Each field works on raw payloads (a ``Fraction``, an ``int`` in
``[0, p)`` or a ``float``) through its payload hooks, which the containers
call directly after checking once per operation that their operands share
a field.  A field defines ``_normalize``, ``_dot``, ``_convolve``,
``_dot_columns``, ``_format`` and ``spec``; it inherits ``_add``, ``_mul``,
``_neg``, ``_inv``, ``_eq`` and ``_is_zero`` as Python's arithmetic on its
payloads unless its arithmetic reduces (mod p) or has a tolerance.
Sums of products go through three hooks: ``_dot`` (one sum, the
pairing), ``_convolve`` (the sums at each index ``alpha + beta`` of two
sparse maps, the product and the finite shift of every field) and
``_dot_columns`` (one sum per storage position: the periodic shift over
rolled position lists, and the dense product of :mod:`bishift._univariate`
and the raster filter of ``filter --pgm`` over ranges, each step-1 range
read as one slice; outside Q each pass adds two columns).  Each output
takes its sum in the field's native numbers: Python ints reduced mod p
once, floats in the in-order ``+`` chain from ``0.0``, and for rationals
integer (numerator, denominator) pairs over a running lcm of that
output's own denominators, one ``Fraction`` each.
At the public API, scalars are :class:`FieldValue` instances that
remember which field they belong to, so accidentally mixing coefficients
from two different fields raises :class:`~bishift.errors.MixedFieldError`
instead of producing a wrong number.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import add, floordiv, mul

from .errors import (
    BadValueTokenError,
    DecimalInExactFieldError,
    DigitLimitError,
    FieldSpecError,
    InverseOfZeroError,
    MixedFieldError,
    NonFiniteValueError,
    ZeroDenominatorError,
)

_INT_RE = re.compile(r"-?[0-9]+\Z")
_FRACTION_RE = re.compile(r"(-?[0-9]+)/([0-9]+)\Z")
_DECIMAL_RE = re.compile(r"-?[0-9]+\.[0-9]+\Z")


def decimal_int(text: str) -> int:
    """The int an ASCII decimal ``-?[0-9]+`` names; ValueError for any other text."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def decimal_text(n: int, what: str = "an integer") -> str:
    """The text :func:`decimal_int` reads back as ``n``; DigitLimitError past int()'s digit limit."""
    try:
        return str(n)
    except ValueError:
        raise DigitLimitError(
            f"cannot write {what} of {Decimal(n).adjusted() + 1} digits: int() reads at most "
            f"{sys.get_int_max_str_digits()}"
        ) from None


def shown_int(n: int) -> str:
    """``n`` in decimal for a repr, or by its digit count past int()'s digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{Decimal(n).adjusted() + 1} digits>"


def short_text(text: str, limit: int = 40) -> str:
    """``repr(text)``, cut to its first ``limit`` characters and its length if longer."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


class FieldValue:
    """A scalar bound to the field that created it.

    Values are immutable and support the usual arithmetic operators.
    Equality follows the field's notion of equality (exact for rational
    and prime fields, within tolerance for the float field), so values
    are deliberately unhashable.
    """

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        self.field = field
        self.payload = payload

    def __add__(self, other):
        if not isinstance(other, FieldValue):
            return NotImplemented
        return self.field.add(self, other)

    def __sub__(self, other):
        if not isinstance(other, FieldValue):
            return NotImplemented
        return self.field.sub(self, other)

    def __mul__(self, other):
        if not isinstance(other, FieldValue):
            return NotImplemented
        return self.field.mul(self, other)

    def __truediv__(self, other):
        if not isinstance(other, FieldValue):
            return NotImplemented
        return self.field.mul(self, self.field.inv(other))

    def __neg__(self):
        return self.field.neg(self)

    def __eq__(self, other):
        if not isinstance(other, FieldValue):
            return NotImplemented
        return self.field.eq(self, other)

    __hash__ = None

    def inverse(self):
        return self.field.inv(self)

    def is_zero(self):
        return self.field.is_zero(self)

    def __repr__(self):
        return f"FieldValue({self.field._show(self.payload)}, {self.field.spec()})"


class Field:
    """Common behaviour for the concrete coefficient fields.

    Subclasses define ``_normalize``, ``_dot``, ``_convolve``,
    ``_dot_columns``, ``_format`` and ``spec``, and inherit the payload
    arithmetic ``_add``, ``_mul``, ``_neg``, ``_inv``, ``_eq`` and
    ``_is_zero`` unless theirs reduces.  This base class wraps the hooks
    with field-mismatch checking and :class:`FieldValue` packaging.
    Fields compare, hash and print by their type and parameter, so two
    separately parsed specs of one field are equal.
    """

    is_exact = True
    _parameter = None  # name of the attribute that tells fields of one type apart

    @cached_property
    def _key(self):
        return type(self), self._parameter and getattr(self, self._parameter)

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        name = self._parameter
        args = f"{name}={getattr(self, name)!r}" if name else ""
        return f"{type(self).__name__}({args})"

    def _guard(self, v):
        f = v.field
        if f is not self and f != self:
            raise MixedFieldError(
                f"value from {f.spec()} used in {self.spec()} arithmetic"
            )

    def value(self, x, den=None) -> FieldValue:
        """Make a field value from an int, Fraction, float or (num, den) pair."""
        if isinstance(x, FieldValue):
            self._guard(x)
            if den is not None:
                raise TypeError("denominator not allowed with a FieldValue")
            return x
        return FieldValue(self, self._normalize(x, den))

    @cached_property
    def zero(self) -> FieldValue:
        return self.value(0)

    @cached_property
    def one(self) -> FieldValue:
        return self.value(1)

    def add(self, a, b):
        self._guard(a)
        self._guard(b)
        return FieldValue(self, self._add(a.payload, b.payload))

    def sub(self, a, b):
        self._guard(a)
        self._guard(b)
        return FieldValue(self, self._add(a.payload, self._neg(b.payload)))

    def mul(self, a, b):
        self._guard(a)
        self._guard(b)
        return FieldValue(self, self._mul(a.payload, b.payload))

    def neg(self, a):
        self._guard(a)
        return FieldValue(self, self._neg(a.payload))

    def inv(self, a):
        self._guard(a)
        if self._is_zero(a.payload):
            raise InverseOfZeroError(f"inverse of zero in {self.spec()}")
        return FieldValue(self, self._inv(a.payload))

    def eq(self, a, b) -> bool:
        self._guard(a)
        self._guard(b)
        return self._eq(a.payload, b.payload)

    def is_zero(self, a) -> bool:
        self._guard(a)
        return self._is_zero(a.payload)

    def parse_token(self, token: str) -> FieldValue:
        """Parse a scalar token: integer, ``p/q`` fraction, or decimal.

        Decimals are only accepted by the float field.
        """
        try:
            return self._parse_token(token)
        except NonFiniteValueError as e:
            raise BadValueTokenError(f"cannot read {token!r}: {e}") from None
        except ValueError as e:
            # int() refuses text beyond its digit limit
            raise BadValueTokenError(f"cannot read {short_text(token)}: {e}") from None

    def _parse_token(self, token: str) -> FieldValue:
        if _INT_RE.fullmatch(token):
            return self.value(int(token))
        m = _FRACTION_RE.fullmatch(token)
        if m:
            num, den = int(m.group(1)), int(m.group(2))
            if den == 0:
                raise ZeroDenominatorError(f"zero denominator in {token!r}")
            try:
                return self.value(num, den)
            except ZeroDivisionError:
                raise ZeroDenominatorError(
                    f"denominator of {token!r} is zero in {self.spec()}"
                ) from None
        if _DECIMAL_RE.fullmatch(token):
            if self.is_exact:
                raise DecimalInExactFieldError(
                    f"decimal {token!r} not allowed in exact field {self.spec()}"
                )
            return self.value(float(token))
        raise BadValueTokenError(f"cannot read {token!r} as a {self.spec()} scalar")

    # subclass hooks ----------------------------------------------------

    # Python's arithmetic on payloads, named through operator: in this class
    # body add, mul, neg and eq are the boxed methods above
    _add, _mul, _neg = operator.add, operator.mul, operator.neg
    _eq, _is_zero = operator.eq, operator.not_

    def _inv(self, a):
        return 1 / a

    def _dot(self, cs, xs):
        """Payload of the sum of ``c * x`` over paired payloads, taken in order."""
        raise NotImplementedError

    def _convolve(self, a, b):
        """Canonical payload map of the sums of ``a[alpha] * b[beta]`` at ``alpha + beta``.

        ``a`` and ``b`` map index tuples of one rank to payloads.  Each
        output index takes its products in loop order (``a`` outer, ``b``
        inner); indices whose sum is zero are left out.
        """
        raise NotImplementedError

    def _dot_columns(self, cs, values, positions):
        """Payloads ``out[i] = sum over j of cs[j] * values[positions[j][i]]``, in ``j`` order.

        ``positions`` holds one equally long index list per payload of
        ``cs``; there must be at least one.  Zero sums are kept.
        """
        raise NotImplementedError

    def format_value(self, v: FieldValue) -> str:
        """Text form of a value of this field; MixedFieldError for another field's."""
        self._guard(v)
        return self._format(v.payload)

    def _show(self, a):
        """A payload's text in a repr; by default the ``_format`` that writers share."""
        return self._format(a)

    def _format_rows(self, rows, encode):
        """Per row of payloads, lazily, the tokens ``encode(self._format(a))`` of its ``a``.

        A basis is mostly zeros, so an exact field's zero is formatted once
        per call; an inexact zero is formatted each time, so -0.0 keeps its sign.
        """
        fmt, exact, zero = self._format, self.is_exact, encode(self._format(self.zero.payload))
        return ([encode(fmt(a)) if a or not exact else zero for a in row] for row in rows)

    def spec(self) -> str:
        raise NotImplementedError


class RationalField(Field):
    """Exact rationals; payloads are ``fractions.Fraction`` in lowest terms."""

    def _normalize(self, x, den):
        if den is not None:
            if den == 0:
                raise InverseOfZeroError(f"inverse of zero in {self.spec()}")
            return Fraction(x, den)
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot build a rational from {type(x).__name__}")

    def _dot(self, cs, xs):
        # one integer sum over the lcm of this sum's own term denominators,
        # then one reduction to lowest terms
        nums, dens = [], []
        for c, x in zip(cs, xs):
            (cn, cd), (xn, xd) = c.as_integer_ratio(), x.as_integer_ratio()
            nums.append(cn * xn)
            dens.append(cd * xd)
        den = math.lcm(*dens)
        scales = map(floordiv, repeat(den), dens)
        return Fraction(sum(map(mul, nums, scales)), den)

    # The two hooks below lift each operand's payloads to (numerator,
    # denominator) pairs once, by one as_integer_ratio() call each, and add
    # each output's products over the running lcm of that output's own
    # denominators.

    def _convolve(self, a, b):
        lcm = math.lcm
        xs = [(beta, *x.as_integer_ratio()) for beta, x in b.items()]
        acc = {}
        get = acc.get
        for alpha, c in a.items():
            cn, cd = c.as_integer_ratio()
            for beta, xn, xd in xs:
                k = tuple(map(add, alpha, beta))
                n, d = cn * xn, cd * xd
                cur = get(k)
                if cur is None:
                    acc[k] = (n, d)
                elif cur[1] == d:
                    acc[k] = (cur[0] + n, d)
                else:
                    num, den = cur
                    m = lcm(den, d)
                    acc[k] = (num * (m // den) + n * (m // d), m)
        return {k: Fraction(num, den) for k, (num, den) in acc.items() if num}

    def _dot_columns(self, cs, values, positions):
        lcm = math.lcm
        nums, dens = [], []
        for v in values:
            n, d = v.as_integer_ratio()
            nums.append(n)
            dens.append(d)
        out_n = out_d = None
        for c, pos in zip(cs, positions):
            cn, cd = c.as_integer_ratio()
            if out_n is None:
                out_n = [cn * nums[i] for i in pos]
                out_d = [cd * dens[i] for i in pos]
                continue
            for o, i in enumerate(pos):
                n, d, den = cn * nums[i], cd * dens[i], out_d[o]
                if d == den:
                    out_n[o] += n
                else:
                    m = lcm(den, d)
                    out_n[o] = out_n[o] * (m // den) + n * (m // d)
                    out_d[o] = m
        return list(map(Fraction, out_n, out_d))

    def _format(self, a):
        num, den = a.as_integer_ratio()
        num = decimal_text(num, "a rational")
        return num if den == 1 else f"{num}/{decimal_text(den, 'a rational')}"

    def _show(self, a):
        num, den = a.as_integer_ratio()
        return shown_int(num) if den == 1 else f"{shown_int(num)}/{shown_int(den)}"

    def spec(self):
        return "rational"


def _native_convolve(a, b):
    """Sums of ``a[alpha] * b[beta]`` at ``alpha + beta`` in the payloads' own numbers.

    Each output adds ``get(k, 0) + c * x`` in loop order (``a`` outer,
    ``b`` inner).  ``0 + y`` is ``0.0 + y`` for a float ``y``, so over
    floats this is the in-order chain ``s = 0.0; s += c * x``.
    """
    acc = {}
    get = acc.get
    for alpha, c in a.items():
        for beta, x in b.items():
            k = tuple(map(add, alpha, beta))
            acc[k] = get(k, 0) + c * x
    return acc


def _native_dot_columns(cs, values, positions, zero):
    """``_dot_columns`` in the payloads' own numbers: ``((zero + c1 * x1) + c2 * x2) + ...``.

    Each pass adds two columns; an odd term count gives the first term a pass of its own.
    """
    def column(pos):
        # a step-1 range inside values is read as one slice of it
        sliced = type(pos) is range and pos.step == 1 and 0 <= pos.start and pos.stop <= len(values)
        return values[pos.start : pos.stop] if sliced else map(values.__getitem__, pos)

    terms = zip(cs, map(column, positions))
    acc = repeat(zero)
    if len(cs) % 2:
        c, xs = next(terms)
        acc = [zero + c * x for x in xs]
    for (c, xs), (d, ys) in zip(terms, terms):  # zip of one iterator with itself: two terms a pass
        acc = [a + c * x + d * y for a, x, y in zip(acc, xs, ys)]
    return acc


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for ``n`` below ``_MR_LIMIT``."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """Integers modulo a prime; payloads are ints in ``[0, p)``."""

    _parameter = "p"

    def __init__(self, p: int):
        if isinstance(p, int) and p >= _MR_LIMIT:
            raise ValueError(f"modulus {p} is too large to certify as prime")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        self.p = p

    def _normalize(self, x, den):
        if isinstance(x, Fraction):
            x, den2 = x.as_integer_ratio()
            den = den2 if den is None else den * den2
        if not isinstance(x, int):
            raise TypeError(f"cannot build a GF({self.p}) value from {type(x).__name__}")
        v = x % self.p
        if den is not None:
            v = v * self._inv(den) % self.p
        return v

    def _inv(self, a):
        a %= self.p
        if a == 0:
            raise InverseOfZeroError(f"inverse of zero in GF({self.p})")
        return pow(a, -1, self.p)

    def _add(self, a, b):
        return (a + b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _neg(self, a):
        return -a % self.p

    def _dot(self, cs, xs):
        return sum(map(mul, cs, xs)) % self.p

    def _convolve(self, a, b):
        p = self.p
        return {k: r for k, v in _native_convolve(a, b).items() if (r := v % p)}

    def _dot_columns(self, cs, values, positions):
        p = self.p
        return [v % p for v in _native_dot_columns(cs, values, positions, 0)]

    def _format(self, a):
        return str(a)

    def _format_rows(self, rows, encode):
        # few distinct residues, so each is encoded once per report; over Q
        # hashing every Fraction costs more than formatting it
        text = {}
        for row in map(list, rows):
            text.update((a, encode(str(a))) for a in set(row).difference(text))
            yield map(text.__getitem__, row)

    def spec(self):
        return f"gf:{self.p}"


def decimal_token(x: float) -> str:
    """Positional decimal string for a float, round-trip safe via float()."""
    if not math.isfinite(x):
        raise NonFiniteValueError(f"cannot format non-finite value {x!r}")
    s = repr(x)
    if "e" in s or "E" in s:
        s = format(Decimal(s), "f")
    if "." not in s:
        s += ".0"
    return s


class FloatField(Field):
    """64-bit floats; equality and zero tests use an absolute tolerance."""

    is_exact = False
    _parameter = "tolerance"

    def __init__(self, tolerance: float = 1e-9):
        if not (tolerance > 0 and math.isfinite(tolerance)):
            raise ValueError("float field tolerance must be finite and positive")
        self.tolerance = tolerance

    def _normalize(self, x, den):
        if not isinstance(x, (int, float, Fraction)):
            raise TypeError(f"cannot build a float value from {type(x).__name__}")
        try:
            v = float(x)
            if den is not None:
                if den == 0:
                    raise InverseOfZeroError(f"inverse of zero in {self.spec()}")
                v /= den
        except OverflowError:
            raise NonFiniteValueError("value out of float range") from None
        if not math.isfinite(v):
            raise NonFiniteValueError(f"float field values must be finite, got {v!r}")
        return v

    def _dot(self, cs, xs):
        # the plain in-order chain: builtin sum() may compensate rounding
        s = 0.0
        for c, x in zip(cs, xs):
            s += c * x
        return s

    def _convolve(self, a, b):
        tol = self.tolerance
        return {k: v for k, v in _native_convolve(a, b).items() if not abs(v) <= tol}

    def _dot_columns(self, cs, values, positions):
        return _native_dot_columns(cs, values, positions, 0.0)

    def _eq(self, a, b):
        return abs(a - b) <= self.tolerance

    def _is_zero(self, a):
        return abs(a) <= self.tolerance

    def _format(self, a):
        return decimal_token(a)

    def _show(self, a):
        # writers refuse a non-finite float; a repr prints it
        return decimal_token(a) if math.isfinite(a) else repr(a)

    def spec(self):
        return f"float:{self.tolerance!r}"


def parse_field_spec(spec: str) -> Field:
    """Build a field from its selection string.

    Accepted forms: ``rational``, ``gf:<p>``, ``float`` and ``float:<tol>``.
    """
    s = spec.strip()
    if s == "rational":
        return RationalField()
    if s.startswith("gf:"):
        try:
            p = decimal_int(s[3:])
        except ValueError:
            raise FieldSpecError(f"bad prime in field spec {spec!r}") from None
        try:
            return PrimeField(p)
        except ValueError as e:
            raise FieldSpecError(str(e)) from None
    if s == "float":
        return FloatField()
    if s.startswith("float:"):
        try:
            tol = float(s[6:])
        except ValueError:
            raise FieldSpecError(f"bad tolerance in field spec {spec!r}") from None
        try:
            return FloatField(tol)
        except ValueError as e:
            raise FieldSpecError(str(e)) from None
    raise FieldSpecError(
        f"unknown field spec {spec!r}", expected=("rational", "gf:<p>", "float[:<tol>]")
    )
