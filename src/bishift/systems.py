"""Autoregressive behaviours and the exact periodic kernel solver.

A system is the kernel of a Laurent polynomial matrix R under the shift
action: the behaviour consists of every signal vector W with R o W = 0.
Over all signals that kernel is usually infinite-dimensional, but
restricted to a fixed period lattice it becomes the nullspace of a
finite matrix over the coefficient field: each monomial X^a acts on the
fundamental domain as the permutation b -> (a + b) mod periods, so each
matrix entry folds the polynomial's coefficients along that rule.  The
nullspace is then computed by exact Gaussian elimination, which is why
kernel work is restricted to exact fields.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FloatFieldUnsupportedError, LatticeTooLargeError, RankMismatchError
from .fields import FieldValue, PrimeField
from .laurent import PolyMatrix
from .operators import shift_matrix
from .sequences import FiniteSeq, PeriodicSeq, SeqVector

# GF(p) elimination runs on int64 payloads below this modulus
_ARRAY_MODULUS_LIMIT = 2**31
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

    Raises LatticeTooLargeError, before allocating anything, when M
    would have more than MAX_MATRIX_CELLS cells.
    """
    periods = _check_periods(system, periods)
    size = math.prod(periods)
    if system.k * size * system.l * size > MAX_MATRIX_CELLS:
        raise LatticeTooLargeError(
            f"periods {','.join(map(str, periods))} need a {system.k * size} x "
            f"{system.l * size} constraint matrix, more than {MAX_MATRIX_CELLS} cells"
        )
    field = system.field
    add, zero = field._add, field.zero
    template = PeriodicSeq.zero(system.rank, field, periods)
    domain = list(template.domain())
    width = system.l * size
    rows = []
    for i in range(system.k):
        for beta in domain:
            acc = {}  # column -> payload; untouched cells share the boxed zero
            for j in range(system.l):
                for alpha, c in system.matrix.entry(i, j)._terms.items():
                    col = j * size + template._flat([a + x for a, x in zip(alpha, beta)])
                    acc[col] = add(acc.get(col, zero.payload), c)
            row = [zero] * width
            for col, v in acc.items():
                row[col] = FieldValue(field, v)
            rows.append(row)
    return rows


def rref(rows, field):
    """Reduced row echelon form by exact Gauss-Jordan elimination.

    Returns the reduced rows (zero rows dropped) and the pivot column of
    each remaining row, in order.  The pivot is the first nonzero entry,
    so over exact fields this is elimination with row-swap pivoting.

    Over GF(p) with p < 2**31 the rows are reduced as one int64 array;
    rationals, larger primes and the empty matrix run the boxed loop.
    Both branches follow the same pivot rule, and the reduced row
    echelon form of a matrix is unique, so they return equal results.
    """
    if rows and isinstance(field, PrimeField) and field.p < _ARRAY_MODULUS_LIMIT:
        return _rref_mod_p(rows, field)
    return _rref_boxed(rows, field)


def _rref_boxed(rows, field):
    work = [list(r) for r in rows]
    if not work:
        return [], []
    width = len(work[0])
    pivots = []
    r = 0
    for col in range(width):
        pivot_row = None
        for i in range(r, len(work)):
            if not field.is_zero(work[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = field.inv(work[r][col])
        work[r] = [field.mul(inv, v) for v in work[r]]
        for i in range(len(work)):
            if i == r or field.is_zero(work[i][col]):
                continue
            factor = work[i][col]
            work[i] = [
                field.sub(a, field.mul(factor, b)) for a, b in zip(work[i], work[r])
            ]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def _rref_mod_p(rows, field):
    """The boxed loop on an int64 array of payloads, for p < 2**31.

    Payloads lie in [0, p), so every product is below 2**62 and no step
    overflows.  Rows at or below ``r`` are zero left of ``col``, so the
    pivot row and the updates start at ``col``.
    """
    p = field.p
    m, n = len(rows), len(rows[0])
    a = np.fromiter((v.payload for row in rows for v in row), np.int64, m * n)
    a = a.reshape(m, n)
    pivots = []
    r = 0
    for col in range(n):
        below = np.flatnonzero(a[r:, col])
        if not below.size:
            continue
        i = r + int(below[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, col:] = a[r, col:] * pow(int(a[r, col]), -1, p) % p
        others = np.flatnonzero(a[:, col])
        others = others[others != r]
        if others.size:
            a[others, col:] = (a[others, col:] - np.outer(a[others, col], a[r, col:])) % p
        pivots.append(col)
        r += 1
        if r == m:
            break
    return [list(map(FieldValue, itertools.repeat(field), row)) for row in a[:r].tolist()], pivots


def nullspace_basis(rows, width, field):
    """Basis of {w : rows . w = 0}, normalized to reduced echelon form.

    One vector per free column of the reduced system; the final
    renormalization orders the basis rows by pivot position and makes
    the output reproducible regardless of how the constraints were
    assembled.
    """
    reduced, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [field.zero] * width
        v[f] = field.one
        for i, p in enumerate(pivots):
            v[p] = field.neg(reduced[i][f])
        vectors.append(v)
    if not vectors:
        return []
    normalized, _ = rref(vectors, field)
    return normalized


def kernel_dimension(system: System, periods) -> int:
    """Dimension of the behaviour on a period lattice, without a basis."""
    periods = _check_periods(system, periods)
    if not system.field.is_exact:
        raise FloatFieldUnsupportedError("kernel computation needs an exact field")
    rows = periodic_system_matrix(system, periods)
    _, pivots = rref(rows, system.field)
    return system.l * math.prod(periods) - len(pivots)


def periodic_kernel_basis(system: System, periods) -> KernelBasis:
    """Exact basis of the behaviour restricted to a period lattice."""
    periods = _check_periods(system, periods)
    if not system.field.is_exact:
        raise FloatFieldUnsupportedError("kernel computation needs an exact field")
    field = system.field
    rows = periodic_system_matrix(system, periods)
    size = math.prod(periods)
    width = system.l * size
    vectors = nullspace_basis(rows, width, field)
    basis = []
    for v in vectors:
        comps = [
            PeriodicSeq(system.rank, field, periods, v[j * size : (j + 1) * size])
            for j in range(system.l)
        ]
        basis.append(SeqVector(comps))
    return KernelBasis(
        rank=system.rank,
        field=field,
        periods=periods,
        dimension=len(basis),
        basis=tuple(basis),
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
