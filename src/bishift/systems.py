"""Autoregressive behaviours and the exact periodic kernel solver.

A system is the kernel of a Laurent polynomial matrix R under the shift
action: the behaviour consists of every signal vector W with R o W = 0.
Over all signals that kernel is usually infinite-dimensional, but
restricted to a fixed period lattice it becomes the nullspace of a
finite matrix over the coefficient field: each monomial X^a acts on the
fundamental domain as the permutation b -> (a + b) mod periods, so each
matrix entry folds the polynomial's coefficients along that rule.  The
nullspace is then computed by exact Gauss-Jordan elimination, which is
why kernel work is restricted to exact fields.

The matrix is one numpy array of raw payloads from construction to the
kernel report: int64 residues over GF(p) with p < 2**31, and an object
array of ``Fraction``s (over Q) or Python ints (larger primes)
otherwise.  One elimination loop, :func:`rref`, serves every exact
field by running the field's payload hooks on whole rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FloatFieldUnsupportedError, LatticeTooLargeError, RankMismatchError
from .fields import PrimeField
from .laurent import PolyMatrix
from .operators import shift_matrix
from .sequences import FiniteSeq, PeriodicSeq, SeqVector

# GF(p) constraint matrices hold int64 payloads below this modulus
_INT64_MODULUS_LIMIT = 2**31
# largest constraint matrix, in cells, that periodic_system_matrix builds
MAX_MATRIX_CELLS = 2**24


class System:
    """Behaviour defined as ker R for a Laurent polynomial matrix R."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: PolyMatrix):
        if not isinstance(matrix, PolyMatrix):
            raise TypeError("a system is built from a PolyMatrix")
        self.matrix = matrix

    @property
    def k(self):
        return self.matrix.rows

    @property
    def l(self):
        return self.matrix.cols

    @property
    def rank(self):
        return self.matrix.rank

    @property
    def field(self):
        return self.matrix.field

    def contains(self, w) -> bool:
        """Membership test: does R o W vanish identically?

        For periodic W this is complete, because R o W is periodic with
        the same lattice and therefore zero everywhere as soon as it is
        zero on the fundamental domain.
        """
        if isinstance(w, (FiniteSeq, PeriodicSeq)):
            w = SeqVector([w])
        return shift_matrix(self.matrix, w).is_zero()

    def __repr__(self):
        return f"System({self.matrix!r})"


@dataclass(frozen=True)
class KernelBasis:
    """Basis of the behaviour restricted to one period lattice."""

    rank: int
    field: object
    periods: tuple
    dimension: int
    basis: tuple  # of SeqVector, each periodic with the stated periods


def _check_periods(system: System, periods) -> tuple:
    periods = tuple(periods)
    if len(periods) != system.rank:
        raise RankMismatchError(
            f"{len(periods)} periods given for rank {system.rank}"
        )
    for n in periods:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"periods must be ints >= 1, got {n!r}")
    return periods


def periodic_system_matrix(system: System, periods):
    """Constraint matrix M with (R o W) = 0 iff M w = 0 on the lattice.

    Coordinates are stacked component-major: entry (j, gamma) of the
    signal vector sits at index j * D + flat(gamma), with D the size of
    the fundamental domain and flat its row-major enumeration.  Rows are
    stacked the same way over (i, beta).  The entry at ((i, beta),
    (j, gamma)) sums the coefficients R_ij[a] over all a with
    (a + beta) mod periods = gamma.

    M is a 2-D numpy array of payloads: int64 over GF(p) with p < 2**31,
    otherwise an object array of the field's own payloads (``Fraction``
    over Q, ``int`` for larger primes).  Raises LatticeTooLargeError,
    before allocating anything, when M would have more than
    MAX_MATRIX_CELLS cells.
    """
    periods = _check_periods(system, periods)
    size = math.prod(periods)
    height, width = system.k * size, system.l * size
    if height * width > MAX_MATRIX_CELLS:
        raise LatticeTooLargeError(
            f"periods {','.join(map(str, periods))} need a {height} x "
            f"{width} constraint matrix, more than {MAX_MATRIX_CELLS} cells"
        )
    field = system.field
    if isinstance(field, PrimeField) and field.p < _INT64_MODULUS_LIMIT:
        matrix = np.zeros((height, width), np.int64)
    else:
        matrix = np.full((height, width), field.zero.payload, dtype=object)
    lengths = np.array(periods)
    strides = np.array([math.prod(periods[i + 1 :]) for i in range(system.rank)])
    domain = np.indices(periods).reshape(system.rank, size).T  # row b: the beta at flat(beta) = b
    flat = np.arange(size)
    for i in range(system.k):
        rows = i * size + flat
        for j in range(system.l):
            for alpha, c in system.matrix.entry(i, j)._terms.items():
                # X^alpha sends beta to (alpha + beta) mod periods: a permutation
                offset = [a % n for a, n in zip(alpha, periods)]
                cols = j * size + ((domain + offset) % lengths) @ strides
                matrix[rows, cols] = field._add(matrix[rows, cols], c)
    return matrix


def rref(matrix, field):
    """Reduced row echelon form by exact Gauss-Jordan elimination.

    ``matrix`` is a 2-D payload array as :func:`periodic_system_matrix`
    builds it, and is reduced in place.  Returns the nonzero rows of the
    reduced form (a view of ``matrix``) and the pivot column of each, in
    order.  The pivot is the first nonzero entry at or below the current
    row; its row is scaled by the pivot's inverse and every other row is
    cleared.  Rows at or below the current one are zero left of the
    pivot column, so each step starts at that column.

    The field's payload hooks run on whole rows, so the one loop serves
    every exact field: over GF(p) ``_add`` and ``_mul`` reduce mod p,
    and with int64 payloads below 2**31 no product exceeds 2**62.
    """
    m, n = matrix.shape
    pivots = []
    r = 0
    for col in range(n):
        below = np.flatnonzero(matrix[r:, col])
        if not below.size:
            continue
        i = r + int(below[0])
        if i != r:
            matrix[[r, i]] = matrix[[i, r]]
        matrix[r, col:] = field._mul(matrix[r, col:], field._inv(matrix.item(r, col)))
        others = np.flatnonzero(matrix[:, col])
        others = others[others != r]
        if others.size:
            factors = field._neg(matrix[others, col])
            matrix[others, col:] = field._add(
                matrix[others, col:], np.outer(factors, matrix[r, col:])
            )
        pivots.append(col)
        r += 1
        if r == m:
            break
    return matrix[:r], pivots


def nullspace_basis(matrix, field):
    """Basis of {w : matrix . w = 0}, as the rows of a payload array in RREF.

    ``matrix`` is reduced in place.  Each free column f of the reduced
    system gives one vector: 1 at f, minus column f of the reduced rows
    at the pivot columns, 0 elsewhere.  The final renormalization orders
    the basis rows by pivot position and makes the output reproducible
    regardless of how the constraints were assembled.
    """
    width = matrix.shape[1]
    reduced, pivots = rref(matrix, field)
    is_free = np.ones(width, bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    vectors = np.full((free.size, width), field.zero.payload, dtype=matrix.dtype)
    if not free.size:
        return vectors
    vectors[np.arange(free.size), free] = field.one.payload
    vectors[:, pivots] = field._neg(reduced[:, free].T)
    normalized, _ = rref(vectors, field)
    return normalized


def kernel_dimension(system: System, periods) -> int:
    """Dimension of the behaviour on a period lattice, without a basis."""
    periods = _check_periods(system, periods)
    if not system.field.is_exact:
        raise FloatFieldUnsupportedError("kernel computation needs an exact field")
    _, pivots = rref(periodic_system_matrix(system, periods), system.field)
    return system.l * math.prod(periods) - len(pivots)


def periodic_kernel_basis(system: System, periods) -> KernelBasis:
    """Exact basis of the behaviour restricted to a period lattice."""
    periods = _check_periods(system, periods)
    if not system.field.is_exact:
        raise FloatFieldUnsupportedError("kernel computation needs an exact field")
    field = system.field
    size = math.prod(periods)
    vectors = nullspace_basis(periodic_system_matrix(system, periods), field)
    basis = tuple(
        SeqVector(
            PeriodicSeq._wrap(system.rank, field, periods, tuple(row[j * size : (j + 1) * size]))
            for j in range(system.l)
        )
        for row in vectors.tolist()
    )
    return KernelBasis(
        rank=system.rank,
        field=field,
        periods=periods,
        dimension=len(basis),
        basis=basis,
    )


def enumerate_periodic_vectors(system: System, periods):
    """All signal vectors on the lattice, for small brute-force scans."""
    periods = _check_periods(system, periods)
    field = system.field
    if not isinstance(field, PrimeField):
        raise FloatFieldUnsupportedError("enumeration needs a finite field")
    size = math.prod(periods)
    width = system.l * size
    for combo in itertools.product(range(field.p), repeat=width):
        comps = [
            PeriodicSeq(system.rank, field, periods, combo[j * size : (j + 1) * size])
            for j in range(system.l)
        ]
        yield SeqVector(comps)
