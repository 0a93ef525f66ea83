"""Computable two-sided signals.

The space of all doubly-infinite Laurent series over Z^r has no finite
description, so this module offers the two subclasses every operation
in the package can actually evaluate:

* :class:`FiniteSeq`, signals with finite support (sparse map), and
* :class:`PeriodicSeq`, signals invariant under a full-rank period
  lattice, stored densely on the fundamental domain.

Monomials correspond to Kronecker deltas, which makes finite-support
signals and Laurent polynomials the same data seen from two sides;
:func:`poly_to_seq` and :func:`seq_to_poly` realize that identification
exactly.
"""

from __future__ import annotations

import itertools
import math

from ._sparse import SparseTerms, exponent_tuple, require_same_context, to_payload
from .errors import (
    MixedFieldError,
    PeriodMismatchError,
    RankMismatchError,
    RepresentationMismatchError,
)
from .fields import FieldValue
from .laurent import LaurentPoly


class FiniteSeq(SparseTerms):
    """Signal with finitely many nonzero samples, in canonical sparse form."""

    __slots__ = ()

    # bound in the class body so that per-class tracing can wrap it
    # (perfbench/spans.py wraps FiniteSeq.__dict__["__init__"])
    __init__ = SparseTerms.__init__

    @classmethod
    def delta(cls, rank, field, alpha, value=None):
        """The Kronecker delta at ``alpha`` (scaled by ``value`` if given)."""
        return cls(rank, field, {tuple(alpha): field.one if value is None else value})

    def _refuse(self, other):
        if isinstance(other, PeriodicSeq):
            raise RepresentationMismatchError(
                "cannot combine a periodic signal with a finite-support signal"
            )


class PeriodicSeq:
    """Signal invariant under the lattice N_1 Z x ... x N_r Z.

    Samples are stored densely over the fundamental domain
    [0, N_1) x ... x [0, N_r) in row-major order, axis 1 slowest, as a
    tuple of raw payloads; :attr:`values` boxes them.
    """

    __slots__ = ("rank", "field", "periods", "_values", "_strides")

    def __init__(self, rank, field, periods, values):
        if not isinstance(rank, int) or rank < 1:
            raise ValueError(f"rank must be a positive int, got {rank!r}")
        periods = tuple(periods)
        if len(periods) != rank:
            raise RankMismatchError(
                f"{len(periods)} periods given for rank {rank}"
            )
        for n in periods:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"periods must be ints >= 1, got {n!r}")
        size = math.prod(periods)
        vals = tuple(to_payload(field, v) for v in values)
        if len(vals) != size:
            raise ValueError(
                f"{len(vals)} values given for a fundamental domain of size {size}"
            )
        self._fill(rank, field, periods, vals)

    @classmethod
    def _wrap(cls, rank, field, periods, values):
        # trusted constructor: checked periods, a tuple of canonical payloads
        obj = object.__new__(cls)
        obj._fill(rank, field, periods, values)
        return obj

    def _fill(self, rank, field, periods, values):
        self.rank = rank
        self.field = field
        self.periods = periods
        self._values = values
        strides = [1] * rank
        for i in range(rank - 2, -1, -1):
            strides[i] = strides[i + 1] * periods[i + 1]
        self._strides = tuple(strides)

    @classmethod
    def zero(cls, rank, field, periods):
        return cls(rank, field, periods, [field.zero] * math.prod(tuple(periods)))

    @property
    def values(self):
        """Samples over the fundamental domain, in storage order, as FieldValues."""
        return tuple(map(FieldValue, itertools.repeat(self.field), self._values))

    def domain(self):
        """Fundamental-domain index tuples in storage order."""
        return itertools.product(*(range(n) for n in self.periods))

    def _flat(self, alpha) -> int:
        # storage position of an already checked index
        return sum((x % n) * s for x, n, s in zip(alpha, self.periods, self._strides))

    def flat_index(self, alpha) -> int:
        return self._flat(exponent_tuple(alpha, self.rank))

    def coeff(self, alpha) -> FieldValue:
        return FieldValue(self.field, self._values[self.flat_index(alpha)])

    def is_zero(self) -> bool:
        return all(map(self.field._is_zero, self._values))

    def _same_kind(self, other):
        """Whether ``other`` is periodic; if so, check rank, field and periods."""
        if not isinstance(other, PeriodicSeq):
            if isinstance(other, FiniteSeq):
                raise RepresentationMismatchError(
                    "cannot combine a finite-support signal with a periodic signal"
                )
            return False
        require_same_context(self, other)
        if self.periods != other.periods:
            raise PeriodMismatchError(
                f"periods {self.periods} do not match {other.periods}"
            )
        return True

    def _with(self, values):
        return PeriodicSeq._wrap(self.rank, self.field, self.periods, tuple(values))

    def __add__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        return self._with(map(self.field._add, self._values, other._values))

    def __sub__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        add, neg = self.field._add, self.field._neg
        return self._with(add(a, neg(b)) for a, b in zip(self._values, other._values))

    def __neg__(self):
        return self._with(map(self.field._neg, self._values))

    def __mul__(self, other):
        if not isinstance(other, (FieldValue, int)):
            return NotImplemented
        mul = self.field._mul
        c = to_payload(self.field, other)
        return self._with(mul(c, v) for v in self._values)

    __rmul__ = __mul__

    def tile(self, factors) -> PeriodicSeq:
        """The same signal declared on the refined lattice ``periods * factors``."""
        factors = tuple(factors)
        if len(factors) != self.rank:
            raise RankMismatchError(f"{len(factors)} factors given for rank {self.rank}")
        for m in factors:
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"tile factors must be ints >= 1, got {m!r}")
        new_periods = tuple(n * m for n, m in zip(self.periods, factors))
        domain = itertools.product(*(range(n) for n in new_periods))
        values = tuple(self._values[self._flat(idx)] for idx in domain)
        return PeriodicSeq._wrap(self.rank, self.field, new_periods, values)

    def __eq__(self, other):
        if not isinstance(other, PeriodicSeq):
            return NotImplemented
        if (
            self.rank != other.rank
            or self.field != other.field
            or self.periods != other.periods
        ):
            return False
        return all(map(self.field._eq, self._values, other._values))

    __hash__ = None

    def __repr__(self):
        shown = [self.field.format_value(v) for v in self.values]
        return (
            f"PeriodicSeq(rank={self.rank}, field={self.field.spec()}, "
            f"periods={self.periods}, values={shown})"
        )


class SeqVector:
    """Fixed-length vector of signals sharing rank, field and representation."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("signal vector needs at least one component")
        first = comps[0]
        if not isinstance(first, (FiniteSeq, PeriodicSeq)):
            raise TypeError("components must be FiniteSeq or PeriodicSeq")
        for c in comps[1:]:
            if type(c) is not type(first):
                raise RepresentationMismatchError(
                    "all components must share one representation"
                )
            if c.rank != first.rank:
                raise RankMismatchError("components disagree on rank")
            if c.field != first.field:
                raise MixedFieldError("components disagree on field")
            if isinstance(first, PeriodicSeq) and c.periods != first.periods:
                raise PeriodMismatchError("components disagree on periods")
        self.components = comps

    @property
    def rank(self):
        return self.components[0].rank

    @property
    def field(self):
        return self.components[0].field

    @property
    def kind(self):
        return "periodic" if isinstance(self.components[0], PeriodicSeq) else "finite"

    @property
    def periods(self):
        c = self.components[0]
        return c.periods if isinstance(c, PeriodicSeq) else None

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        if not isinstance(other, SeqVector):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self.components, other.components)
        )

    __hash__ = None

    def __repr__(self):
        return f"SeqVector({list(self.components)!r})"


def poly_to_seq(d: LaurentPoly) -> FiniteSeq:
    """Read a Laurent polynomial as the finite-support signal X^a -> delta_a."""
    return FiniteSeq._wrap(d.rank, d.field, d._terms)


def seq_to_poly(w: FiniteSeq) -> LaurentPoly:
    """Inverse of :func:`poly_to_seq`; exact on every finite-support signal."""
    return LaurentPoly._wrap(w.rank, w.field, w._terms)


def periodize(w: FiniteSeq, periods) -> PeriodicSeq:
    """Fold a finite-support signal onto a period lattice.

    Each fundamental-domain sample collects the (finite) sum of all
    samples of ``w`` congruent to it modulo the periods.
    """
    out = PeriodicSeq.zero(w.rank, w.field, tuple(periods))
    add = w.field._add
    acc = list(out._values)
    for alpha, v in w._terms.items():
        i = out._flat(alpha)
        acc[i] = add(acc[i], v)
    return PeriodicSeq._wrap(w.rank, w.field, out.periods, tuple(acc))
