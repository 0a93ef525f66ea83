"""The sparse exponent-map container shared by operators and signals.

A Laurent polynomial and a finite-support signal are the same data seen
from two sides (X^a <-> delta_a): a finite map from integer index tuples
to nonzero coefficients.  :class:`SparseTerms` holds that map once for
both.  It stores raw payloads, the field's own scalar representation (a
``Fraction``, an ``int`` in ``[0, p)`` or a ``float``), keyed by index
tuples of the container's rank, and keeps the map canonical: no stored
payload is zero (within tolerance, for the float field).

An operation checks rank and field once, for the whole container, and
then runs the field's payload hooks (``_add``, ``_mul``, ...) in its
loop.  :class:`~bishift.fields.FieldValue` objects are made only at the
public boundary: :meth:`SparseTerms.coeff` and the :attr:`terms` view.
"""

from collections.abc import Mapping
from itertools import chain

import numpy as np

from .errors import MixedFieldError, RankMismatchError
from .fields import FieldValue


def exponent_tuple(alpha, rank):
    t = tuple(alpha)
    if len(t) != rank:
        raise RankMismatchError(f"index {t} has length {len(t)}, expected {rank}")
    for x in t:
        if not isinstance(x, int):
            raise TypeError(f"index components must be ints, got {x!r}")
    return t


def to_payload(field, v):
    """Raw payload of ``v`` in ``field``: a FieldValue of that field, or a raw number."""
    if isinstance(v, FieldValue):
        if v.field is not field and v.field != field:
            raise MixedFieldError(
                f"value from {v.field.spec()} used in a {field.spec()} container"
            )
        return v.payload
    return field._normalize(v, None)


def canonical_terms(rank, field, mapping):
    """Validated payload map of ``mapping`` with zero coefficients dropped."""
    is_zero = field._is_zero
    out = {}
    for alpha, v in mapping.items():
        a = exponent_tuple(alpha, rank)
        p = to_payload(field, v)
        if not is_zero(p):
            out[a] = p
    return out


def index_array(terms, rank):
    """Index tuples of a sparse map as an (n, rank) int64 array, in map order."""
    n = len(terms)
    return np.fromiter(chain.from_iterable(terms), np.int64, n * rank).reshape(n, rank)


def payload_array(terms):
    """Float payloads of a sparse map as a float64 array, in map order."""
    return np.fromiter(terms.values(), np.float64, len(terms))


def require_same_context(a, b):
    if a.rank != b.rank:
        raise RankMismatchError(f"rank {a.rank} does not match rank {b.rank}")
    if a.field is not b.field and a.field != b.field:
        raise MixedFieldError(f"cannot combine {a.field.spec()} with {b.field.spec()}")


class TermsView(Mapping):
    """Read-only map from index tuples to FieldValues over a payload map.

    Each value is boxed when it is read; length and lookups cost O(1).
    """

    __slots__ = ("_field", "_terms")

    def __init__(self, field, terms):
        self._field = field
        self._terms = terms

    def __getitem__(self, alpha):
        return FieldValue(self._field, self._terms[alpha])

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)

    def __repr__(self):
        return f"TermsView({dict(self)!r})"


class SparseTerms:
    """Canonical sparse map from Z^rank to nonzero field payloads.

    Operands of ``+``, ``-`` and ``==`` must be of the very same class, so
    a polynomial never combines with, or equals, a signal.
    """

    __slots__ = ("rank", "field", "_terms")

    def __init__(self, rank, field, terms=None):
        if not isinstance(rank, int) or rank < 1:
            raise ValueError(f"rank must be a positive int, got {rank!r}")
        self.rank = rank
        self.field = field
        self._terms = canonical_terms(rank, field, terms or {})

    @classmethod
    def _wrap(cls, rank, field, terms):
        # trusted constructor: terms already a canonical payload map
        obj = object.__new__(cls)
        obj.rank = rank
        obj.field = field
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls, rank, field):
        return cls(rank, field)

    @property
    def terms(self):
        return TermsView(self.field, self._terms)

    def coeff(self, alpha) -> FieldValue:
        v = self._terms.get(exponent_tuple(alpha, self.rank))
        return self.field.zero if v is None else FieldValue(self.field, v)

    def support(self):
        return frozenset(self._terms)

    def sorted_support(self):
        return sorted(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _refuse(self, other):
        """Raise a typed error for an operand this class rejects outright."""

    def _same_kind(self, other):
        """Whether ``other`` is of this class; if so, check rank and field."""
        if type(other) is not type(self):
            self._refuse(other)
            return False
        require_same_context(self, other)
        return True

    def _sum(self, other, negate):
        field = self.field
        add, neg, is_zero = field._add, field._neg, field._is_zero
        out = dict(self._terms)
        for k, v in other._terms.items():
            if negate:
                v = neg(v)
            cur = out.get(k)
            if cur is None:
                out[k] = v
            else:
                s = add(cur, v)
                if is_zero(s):
                    del out[k]
                else:
                    out[k] = s
        return self._wrap(self.rank, field, out)

    def __add__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        return self._sum(other, negate=False)

    def __sub__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        return self._sum(other, negate=True)

    def __neg__(self):
        neg = self.field._neg
        return self._wrap(self.rank, self.field, {k: neg(v) for k, v in self._terms.items()})

    def __mul__(self, other):
        """Scalar multiple by a FieldValue of this field or an int."""
        if not isinstance(other, (FieldValue, int)):
            return NotImplemented
        field = self.field
        mul, is_zero = field._mul, field._is_zero
        c = to_payload(field, other)
        out = {}
        if not is_zero(c):
            for k, v in self._terms.items():
                s = mul(c, v)
                if not is_zero(s):
                    out[k] = s
        return self._wrap(self.rank, field, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.rank != other.rank or self.field != other.field:
            return False
        a, b = self._terms, other._terms
        if a.keys() != b.keys():
            return False
        eq = self.field._eq
        return all(eq(v, b[k]) for k, v in a.items())

    __hash__ = None

    def __repr__(self):
        shown = {k: self.field.format_value(v) for k, v in sorted(self.terms.items())}
        return (
            f"{type(self).__name__}(rank={self.rank}, field={self.field.spec()}, "
            f"terms={shown})"
        )
