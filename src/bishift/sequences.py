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
from operator import mod, mul

from ._sparse import SparseTerms, check_rank, exponent_tuple, require_same_context
from .errors import (
    DimensionMismatchError, PeriodMismatchError, RankMismatchError, RepresentationMismatchError
)
from .fields import FieldValue
from .laurent import LaurentPoly


def check_periods(periods, rank, what) -> tuple:
    """``periods`` as a tuple of ``rank`` ints >= 1 (no bools), named ``what`` in errors."""
    periods = tuple(periods)
    if len(periods) != rank:
        raise RankMismatchError(f"{len(periods)} {what} given for rank {rank}")
    for n in periods:
        if type(n) is not int or n < 1:
            raise ValueError(f"{what} must be ints >= 1, got {n!r}")
    return periods


def row_major_strides(shape) -> tuple:
    """Storage step of each axis of a box held row-major, the last axis fastest."""
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return tuple(strides)


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
        check_rank(rank)
        periods = check_periods(periods, rank, "periods")
        size = math.prod(periods)
        value = field.value
        vals = tuple(value(v).payload for v in values)
        if len(vals) != size:
            raise ValueError(
                f"{len(vals)} values given for a fundamental domain of size {size}"
            )
        self._fill(rank, field, periods, vals, row_major_strides(periods))

    @classmethod
    def _wrap(cls, rank, field, periods, values):
        # trusted constructor: checked periods, a tuple of canonical payloads
        obj = object.__new__(cls)
        obj._fill(rank, field, periods, values, row_major_strides(periods))
        return obj

    def _fill(self, rank, field, periods, values, strides):
        self.rank = rank
        self.field = field
        self.periods = periods
        self._values = values
        self._strides = strides

    @classmethod
    def zero(cls, rank, field, periods):
        periods = check_periods(periods, rank, "periods")
        return cls(rank, field, periods, [field.zero] * math.prod(periods))

    @property
    def values(self):
        """Samples over the fundamental domain, in storage order, as FieldValues."""
        return tuple(map(FieldValue, itertools.repeat(self.field), self._values))

    def domain(self):
        """Fundamental-domain index tuples in storage order."""
        return itertools.product(*(range(n) for n in self.periods))

    def _flat(self, alpha) -> int:
        # storage position of an already checked index
        return sum(map(mul, map(mod, alpha, self.periods), self._strides))

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
        # the same lattice, its strides included, with other payloads
        obj = object.__new__(PeriodicSeq)
        obj._fill(self.rank, self.field, self.periods, tuple(values), self._strides)
        return obj

    def __add__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        return self._with(map(self.field._add, self._values, other._values))

    def __sub__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        field = self.field
        return self._with(map(field._add, self._values, map(field._neg, other._values)))

    def __neg__(self):
        return self._with(map(self.field._neg, self._values))

    def __mul__(self, other):
        """Scalar multiple by any number :meth:`~bishift.fields.Field.value` accepts."""
        try:
            c = self.field.value(other).payload
        except TypeError:
            return NotImplemented
        return self._with(map(self.field._mul, itertools.repeat(c), self._values))

    __rmul__ = __mul__

    def tile(self, factors) -> PeriodicSeq:
        """The same signal declared on the refined lattice ``periods * factors``."""
        factors = check_periods(factors, self.rank, "tile factors")
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
        shown = [self.field._show(v) for v in self._values]
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
        if not all(isinstance(c, (FiniteSeq, PeriodicSeq)) for c in comps):
            raise TypeError("components must be FiniteSeq or PeriodicSeq")
        first = comps[0]
        for c in comps[1:]:
            if not first._same_kind(c):
                raise RepresentationMismatchError(
                    "all components must share one representation"
                )
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

    @classmethod
    def _stacked(cls, rank, field, periods, payloads):
        # trusted constructor: checked periods and component-major canonical
        # payloads, one fundamental domain per component
        size = math.prod(periods)
        if len(payloads) % size:
            raise ValueError(f"{len(payloads)} values do not split into domains of size {size}")
        return cls(
            PeriodicSeq._wrap(rank, field, periods, tuple(payloads[i : i + size]))
            for i in range(0, len(payloads), size)
        )

    def __repr__(self):
        return f"SeqVector({list(self.components)!r})"


class KernelBasis:
    """Basis of the behaviour restricted to one period lattice.

    Invariants, checked when built: ``rank`` is an int from 1 to MAX_RANK,
    ``periods`` a tuple of ``rank`` ints >= 1, and ``basis`` a tuple, maybe
    empty, of periodic SeqVectors of that rank, field and periods, all of one length.
    """

    __slots__ = ("rank", "field", "periods", "basis")

    def __init__(self, rank, field, periods, basis):
        check_rank(rank)
        periods, basis = check_periods(periods, rank, "periods"), tuple(basis)
        lattice = PeriodicSeq._wrap(rank, field, periods, ())  # only its lattice is read
        for row in basis:
            if not isinstance(row, SeqVector):
                raise TypeError(f"basis rows must be SeqVectors, got {type(row).__name__}")
            lattice._same_kind(row[0])  # the SeqVector checked its other components
            if len(row) != len(basis[0]):
                raise DimensionMismatchError("basis rows differ in their number of components")
        self.rank, self.field, self.periods, self.basis = rank, field, periods, basis

    dimension = property(lambda self: len(self.basis))

    def _key(self):
        return self.rank, self.field, self.periods, self.basis

    def __eq__(self, other):
        if not isinstance(other, KernelBasis):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"KernelBasis({args})"


def rolled_indices(alphas, periods, strides):
    """Per exponent alpha, the storage position of (alpha + beta) mod periods for each beta.

    Along axis i these are ((alpha_i + j) mod N_i) * stride_i for j = 0 .. N_i - 1:
    the list of j * stride_i, built once per call, rotated left by alpha_i mod N_i.
    A position adds one entry of each axis list, the last axis fastest.
    """
    bases = [list(range(0, n * stride, stride)) for n, stride in zip(periods, strides)]
    rolled = []
    for alpha in alphas:
        flat = [0]
        for a, base in zip(alpha, bases):
            r = a % len(base)
            axis = base[r:] + base[:r]
            flat = [i + k for i in flat for k in axis]
        rolled.append(flat)
    return rolled


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
