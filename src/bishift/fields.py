"""Coefficient fields.

Everything in this package is generic over a commutative field of
coefficients.  Three concrete fields are provided:

* :class:`RationalField`, exact arbitrary-precision rationals;
* :class:`PrimeField`, integers modulo a prime ``p``;
* :class:`FloatField`, 64-bit floats with tolerance-based comparison,
  meant for signal filtering rather than for the exact algebra.

Each field works on raw payloads (a ``Fraction``, an ``int`` in
``[0, p)`` or a ``float``) through its payload hooks (``_add``, ``_mul``,
...).  The containers store those payloads and call the hooks directly,
after checking once per operation that their operands share a field.
At the public API, scalars are :class:`FieldValue` instances that
remember which field they belong to, so accidentally mixing coefficients
from two different fields raises :class:`~bishift.errors.MixedFieldError`
instead of producing a wrong number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

from .errors import (
    BadValueTokenError,
    DecimalInExactFieldError,
    FieldSpecError,
    MixedFieldError,
    NonFiniteValueError,
    ZeroDenominatorError,
)

_INT_RE = re.compile(r"-?[0-9]+\Z")
_FRACTION_RE = re.compile(r"(-?[0-9]+)/([0-9]+)\Z")
_DECIMAL_RE = re.compile(r"-?[0-9]+\.[0-9]+\Z")


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
        return f"FieldValue({self.field.format_value(self)}, {self.field.spec()})"


class Field:
    """Common behaviour for the concrete coefficient fields.

    Subclasses implement the payload-level hooks (``_normalize``,
    ``_add``, ...); this base class wraps them with field-mismatch
    checking and :class:`FieldValue` packaging for scalar arithmetic.
    """

    is_exact = True

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
            raise ZeroDivisionError(f"inverse of zero in {self.spec()}")
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

    def _normalize(self, x, den):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _eq(self, a, b):
        return a == b

    def _is_zero(self, a):
        return not a

    def format_value(self, v: FieldValue) -> str:
        raise NotImplementedError

    def spec(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class RationalField(Field):
    """Exact rationals; payloads are ``fractions.Fraction`` in lowest terms."""

    def _normalize(self, x, den):
        if den is not None:
            return Fraction(x, den)
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot build a rational from {type(x).__name__}")

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        return 1 / a

    def format_value(self, v):
        return str(v.payload)

    def spec(self):
        return "rational"


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


@dataclass(frozen=True)
class PrimeField(Field):
    """Integers modulo a prime; payloads are ints in ``[0, p)``."""

    p: int

    def __post_init__(self):
        if isinstance(self.p, int) and self.p >= _MR_LIMIT:
            raise ValueError(f"modulus {self.p} is too large to certify as prime")
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise ValueError(f"modulus {self.p!r} is not prime")

    def _normalize(self, x, den):
        if isinstance(x, Fraction):
            x, den2 = x.numerator, x.denominator
            den = den2 if den is None else den * den2
        if not isinstance(x, int):
            raise TypeError(f"cannot build a GF({self.p}) value from {type(x).__name__}")
        v = x % self.p
        if den is not None:
            v = v * self._inv_int(den) % self.p
        return v

    def _inv_int(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, -1, self.p)

    def _add(self, a, b):
        return (a + b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _neg(self, a):
        return -a % self.p

    def _inv(self, a):
        return self._inv_int(a)

    def format_value(self, v):
        return str(v.payload)

    def spec(self):
        return f"gf:{self.p}"


def decimal_token(x: float) -> str:
    """Positional decimal string for a float, round-trip safe via float()."""
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite value {x!r}")
    s = repr(x)
    if "e" in s or "E" in s:
        s = format(Decimal(s), "f")
    if "." not in s:
        s += ".0"
    return s


@dataclass(frozen=True)
class FloatField(Field):
    """64-bit floats; equality and zero tests use an absolute tolerance."""

    tolerance: float = 1e-9

    is_exact = False

    def __post_init__(self):
        if not (self.tolerance > 0):
            raise ValueError("float field tolerance must be positive")

    def _normalize(self, x, den):
        if not isinstance(x, (int, float, Fraction)):
            raise TypeError(f"cannot build a float value from {type(x).__name__}")
        try:
            v = float(x)
            if den is not None:
                v /= den
        except OverflowError:
            raise NonFiniteValueError("value out of float range") from None
        if not math.isfinite(v):
            raise NonFiniteValueError(f"float field values must be finite, got {v!r}")
        return v

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        return 1.0 / a

    def _eq(self, a, b):
        return abs(a - b) <= self.tolerance

    def _is_zero(self, a):
        return abs(a) <= self.tolerance

    def format_value(self, v):
        return decimal_token(v.payload)

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
            p = int(s[3:])
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
