"""Autoregressive behaviours and the exact periodic kernel solver.

A system is the kernel of a Laurent polynomial matrix R under the shift
action: the behaviour consists of every signal vector W with R o W = 0.
Over all signals that kernel is usually infinite-dimensional, but
restricted to a fixed period lattice it becomes the nullspace of a
finite matrix over the coefficient field: each monomial X^a acts on the
fundamental domain as the permutation b -> (a + b) mod periods, so each
entry R_ij is folded once onto the lattice (:func:`bishift.sequences.fold`),
and its nonzero residue sums fill every row it meets.  The nullspace is
computed by exact Gauss-Jordan elimination, so kernel work needs an exact field.

Rank-1 systems build no matrix.  A period-N signal is a polynomial in
F[X]/(X^N - 1), where the shift by R is multiplication, so the kernel
follows from the invariant factors of R and a Hermite basis over F[X],
in pure Python, with RREF rows written in time of the order of the
output.  That solver lives in :mod:`bishift._univariate`, which only the
rank-1 branch of :func:`_solve` imports, so a rank-2 job never compiles
it.  :func:`_solve`, the one gate of every kernel job, checks the periods
once and refuses a basis of more than MAX_KERNEL_CELLS cells before
building it.  The rest of this docstring is about rank 2 and above.

The constraint matrix is a list of sparse rows, dicts {column: payload}
of its nonzero entries (:func:`periodic_system_matrix`).  One
pure-Python Gauss-Jordan loop, :func:`rref`, reduces such rows mod p
for every prime p, reading the columns from right to left.  Column c is
a pivot of the kernel's RREF exactly when it lies in the span of the
columns to its right, that is, when it is not a pivot of that
reduction.  Each such column f gives the kernel row e_f minus the sum of
r_q[f] e_q over the reduced pivot rows r_q, which is already its RREF
row, so no second elimination runs.  Two budgets bound the loop by what
it holds and does, not by the cells of a dense matrix: MAX_FILL counts
the entries it holds, and the rows (ROW_FILL entries each) and columns
it allocates for them, and MAX_UPDATES the entries it updates, so a
lattice of many cells but few entries is solved and a dense fill is
refused within seconds.

Over Q no elimination runs on ``Fraction``s.  Each row of the matrix is
cleared of denominators once and reduced modulo 31-bit primes for the
same loop.  A prime whose kernel is larger, or whose pivots sit further
right, than another prime's is unlucky and dropped.  The residues of
the others are combined by CRT and rationally reconstructed after 1, 2,
4, ... primes.  One rule accepts a reconstruction: an exact check of
M w = 0 on the sparse integer rows (see :func:`_rational_kernel`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from .errors import FloatFieldUnsupportedError, LatticeTooLargeError
from .fields import PrimeField, _is_prime
from .laurent import System
from .sequences import (
    KernelBasis,
    SeqVector,
    check_periods,
    fold,
    rolled_indices,
    row_major_strides,
)

# most nonzero entries the rank >= 2 solver holds at once, in the constraint
# rows and the pivot rows together.  A dict entry of a residue takes 40 to 90
# bytes, 5 to 11 times an int64 cell, so over GF(p) this keeps memory below
# the 128 MiB of a dense int64 matrix of 2**24 cells.
MAX_FILL = 2**20
# entries that one constraint row weighs in MAX_FILL with its pivot row.  On
# CPython 3.10-3.13 a one-entry row dict takes about 264 bytes and an empty
# pivot row 72, against 65 to 69 bytes for an entry mod 7 in a long row.
ROW_FILL = 5
# most entries one elimination updates, summed over the pivot rows it subtracts.
# 2**24 of them take about 1.5 s mod 7 and 3 s mod a 31-bit prime (CPython 3.11, one Xeon core)
MAX_UPDATES = 2**24
# largest kernel basis, in cells (dimension x l x |D|), that any solver path builds
MAX_KERNEL_CELLS = 2**22


def periodic_system_matrix(system: System, periods):
    """Constraint matrix M with (R o W) = 0 iff M w = 0 on the lattice, as sparse rows.

    Coordinates are stacked component-major: entry (j, gamma) of the
    signal vector sits at index j * D + flat(gamma), with D the size of
    the fundamental domain and flat its row-major enumeration.  Rows are
    stacked the same way over (i, beta).  The entry at ((i, beta),
    (j, gamma)) sums the coefficients R_ij[a] over all a with
    (a + beta) mod periods = gamma.

    Returns the k * D rows as dicts {column: payload} of the nonzero
    entries.  Raises LatticeTooLargeError, before building any row, when
    the k * D rows, each weighing ROW_FILL entries, the l * D columns (the
    length of the elimination's work list) and the up to D * terms
    starting entries count more than MAX_FILL together.
    """
    return _system_matrix(system, check_periods(periods, system.rank, "periods"))


def _system_matrix(system: System, periods):
    """:func:`periodic_system_matrix` on periods that are already checked."""
    size = math.prod(periods)
    height, width = system.k * size, system.l * size
    entries = [[system.matrix.entry(i, j)._terms for j in range(system.l)] for i in range(system.k)]
    # the row dicts with their pivot rows, the elimination's work list and the
    # starting entries, in entries
    held = ROW_FILL * height + width + size * sum(len(terms) for row in entries for terms in row)
    if held > MAX_FILL:
        raise LatticeTooLargeError(
            f"periods {','.join(map(str, periods))} give a {height} x {width} constraint "
            f"matrix whose rows, columns and entries weigh up to {held} entries, "
            f"more than {MAX_FILL}"
        )
    field = system.field
    strides = row_major_strides(periods)
    matrix = []
    for row in entries:
        columns, coefficients = [], []
        for base, terms in zip(range(0, width, size), row):
            folded = {r: c for r, c in fold(terms, periods, field).items() if not field._is_zero(c)}
            columns += rolled_indices(folded, periods, strides, base)
            coefficients += folded.values()
        # residues are distinct mod periods, so row (i, beta) meets each column once
        rows = zip(*columns) if columns else itertools.repeat((), size)
        matrix += [dict(zip(cols, coefficients)) for cols in rows]
    return matrix


def rref(rows, p):
    """Gauss-Jordan elimination mod p, reading the columns from right to left.

    ``rows`` are dicts {column: int}.  Returns the reduced row echelon
    form of the matrix with its columns reversed, as a dict from each
    pivot column q to its row with the entry 1 at q left out; that row is
    nonzero only at non-pivot columns left of q.  A column is a pivot
    exactly when it is not in the span of the columns to its right.

    Rows are taken in ascending order of their last column.  Each is
    copied into one working list and reduced from its last column down,
    through a heap of the columns it holds, against the pivot rows found
    so far, until it meets a column without one: that becomes its pivot.
    Entries are reduced mod p only when their column is reached.  Once
    every row is in (:func:`_forward`), each pivot row is cleared at the
    pivot columns it holds, in ascending order, so it subtracts rows that
    are already reduced (:func:`_clear`).  Raises LatticeTooLargeError
    once ``rows`` and the pivot rows together hold more than MAX_FILL
    entries, or once the two passes have updated more than MAX_UPDATES
    entries: each subtraction of a pivot row updates as many entries as
    that row holds, and the clearing pass carries the forward pass's count on.
    """
    return _clear(*_forward(rows, p), p)


def _forward(rows, p):
    """The pivot rows of :func:`rref` before clearing, with the fill and update counts so far."""
    pivots = {}
    fill, updates = sum(map(len, rows)), 0
    rows = sorted(filter(None, rows), key=max)
    work = [0] * (max(rows[-1]) + 1 if rows else 0)  # zero between rows
    for row in rows:
        for c, x in row.items():
            work[c] = x
        heap = [-c for c in row]
        heapq.heapify(heap)
        while heap:
            col = -heapq.heappop(heap)
            v = work[col] % p
            work[col] = 0
            if not v:
                continue
            pivot = pivots.get(col)
            if pivot is None:
                break
            updates += len(pivot)
            if updates > MAX_UPDATES:
                raise _budget_error("updates", MAX_UPDATES)
            for c, x in pivot.items():
                w = work[c]
                if not w:
                    heapq.heappush(heap, -c)
                work[c] = w - v * x
        else:
            continue  # the row is a combination of the pivot rows
        inv = pow(v, -1, p)
        pivots[col] = new = {}
        for c in set(heap):
            x = work[-c] * inv % p
            work[-c] = 0
            if x:
                new[-c] = x
        fill += len(new)
        if fill > MAX_FILL:
            raise _budget_error("fills", MAX_FILL)
    return pivots, fill, updates


def _clear(pivots, fill, updates, p):
    """The pivot rows of :func:`_forward`, cleared in place into those of :func:`rref`."""
    for q in sorted(pivots):
        row = pivots[q]
        fill -= len(row)
        for col in [col for col in row if col in pivots]:
            v, subtracted = row.pop(col), pivots[col]
            updates += len(subtracted)
            if updates > MAX_UPDATES:
                raise _budget_error("updates", MAX_UPDATES)
            for c, x in subtracted.items():
                row[c] = row.get(c, 0) - v * x
        pivots[q] = {c: x for c, x in ((c, x % p) for c, x in row.items()) if x}
        fill += len(pivots[q])
        if fill > MAX_FILL:
            raise _budget_error("fills", MAX_FILL)
    return pivots


def _budget_error(verb, budget):
    return LatticeTooLargeError(
        f"the elimination {verb} more than {budget} entries of the constraint matrix"
    )


def _check_basis(dimension, width):
    """Refuse a basis of ``dimension`` rows of ``width`` cells past MAX_KERNEL_CELLS cells."""
    if dimension * width > MAX_KERNEL_CELLS:
        raise LatticeTooLargeError(
            f"dimension {dimension} needs {dimension * width} basis cells, more than {MAX_KERNEL_CELLS}"
        )


def _nullspace(pivots, width, p):
    """The kernel's RREF basis mod p, as rows of ints, from the pivot rows :func:`rref` returns.

    Each non-pivot column f gives the row e_f - sum of r_q[f] e_q over the
    pivot rows r_q.  r_q[f] is nonzero only for q > f, and the row is 0
    at every other non-pivot column, so it is already the RREF row with
    pivot f.
    """
    free = [f for f in range(width) if f not in pivots]
    basis = {f: [0] * width for f in free}
    for f in free:
        basis[f][f] = 1
    for q, row in pivots.items():
        for f, x in row.items():
            basis[f][q] = p - x
    return list(basis.values())


def _primes():
    """Primes below 2**31, downward from 2**31 - 1."""
    p = 2**31 - 1
    while True:
        if _is_prime(p):
            yield p
        p -= 2


def _crt(residues, modulus, image, p):
    """The residues mod modulus * p congruent to residues mod modulus and to image mod p."""
    inv = pow(modulus, -1, p)
    return [r + modulus * ((i - r) * inv % p) for r, i in zip(residues, image)]


def _wang_denominator(u, modulus, bound):
    """Denominator d of the n/d = u mod modulus with |n|, d <= bound (Wang 1981), or None."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return abs(t1)


def _reconstruct(residues, modulus):
    """Rationals y / den congruent to residues, with |y|, den <= sqrt(modulus / 2).

    One denominator serves every entry.  The first entry whose residue
    times ``den`` is not that small is reconstructed on its own, and its
    denominator joins ``den``.  Returns ``(den, y)`` with ``y`` the list
    of ints, or None when an entry has no reconstruction or ``den`` stops
    growing or outgrows the bound: more primes are needed.
    """
    bound, half = math.isqrt(modulus // 2), modulus // 2
    den = 1
    while True:
        y = [v - modulus if v > half else v for v in (u * den % modulus for u in residues)]
        large = next((i for i, v in enumerate(y) if abs(v) > bound), None)
        if large is None:
            return den, y
        d = _wang_denominator(residues[large], modulus, bound)
        if d is None or den % d == 0:
            return None
        den = math.lcm(den, d)
        if den > bound:
            return None


def _certifies(cleared, rows):
    """Exact check that M w = 0 for every integer row w of ``rows``, on the sparse rows of M."""
    return not any(sum(c * w[col] for col, c in row.items()) for row in cleared for w in rows)


def _rational_kernel(matrix, width):
    """RREF kernel basis over Q as rows of ``Fraction``s, by multi-modular elimination.

    ``matrix`` holds the rows of M over Q, and is emptied once each row is
    cleared of denominators; each prime p, downward from 2**31 - 1, then gives
    the kernel's RREF over GF(p) from the one loop.  A prime's signature
    is (dimension, pivot tuple); the true one is the smallest possible,
    so a prime with a larger signature is unlucky and dropped, and a
    smaller one restarts the residues.  The residues of the non-pivot
    columns are combined by CRT and reconstructed after 1, 2, 4, ... kept
    primes, and every reconstruction is checked exactly against M: the
    rows are in RREF by construction and number width - rank_p >= dim_Q,
    so passing the check proves they are the unique RREF basis over Q.

    Entries of that basis are ratios of minors of the cleared matrix, so
    below the Hadamard bound H.  Unlucky primes divide one such minor.
    Once the primes tried exceed 2 H^5, the kept ones exceed 2 H^4 and the
    reconstruction is exact; failing the check then is a bug.
    """
    cleared = []
    for row in filter(None, matrix):  # an empty row constrains nothing
        scale = math.lcm(*(c.denominator for c in row.values()))
        cleared.append({col: c.numerator * (scale // c.denominator) for col, c in row.items()})
    matrix.clear()  # no Fraction row is read again
    # H < 2**height_bits: each row's 2-norm is at most its 1-norm
    height_bits = sum(sum(map(abs, row.values())).bit_length() for row in cleared)
    best = None
    tried = 1
    for p in _primes():
        pivots = rref([{col: c % p for col, c in row.items() if c % p} for row in cleared], p)
        free, bound = [f for f in range(width) if f not in pivots], sorted(pivots)
        if best is None:  # the first prime's kernel is at least as large as the one over Q
            _check_basis(len(free), width)
        signature = (len(free), tuple(free))
        tried *= p
        capped = tried.bit_length() > 5 * height_bits + 1
        # the kernel's RREF mod p at the pivot columns, row by row: -r_q[f] (see _nullspace)
        image = [-pivots[q].get(f, 0) % p for f in free for q in bound]
        if best is None or signature < best:
            # the first prime, or every kept one was unlucky: start over
            best, columns, kept = signature, bound, 1
            residues, modulus = image, p
        elif signature == best:
            residues, modulus, kept = _crt(residues, modulus, image, p), modulus * p, kept + 1
        elif not capped:
            continue
        # Reconstruction costs more than a prime once the entries need many
        # primes, so it runs after 1, 2, 4, ... kept primes, and at the cap.
        if kept & (kept - 1) and not capped:
            continue
        candidate = _reconstruct(residues, modulus)
        if candidate is not None:
            (_, leads), (den, numerators) = best, candidate
            rows = []
            for i, lead in enumerate(leads):
                row = [0] * width
                row[lead] = den
                for q, y in zip(columns, numerators[i * len(columns) : (i + 1) * len(columns)]):
                    row[q] = y
                rows.append(row)
            if _certifies(cleared, rows):
                zero = Fraction(0)
                return [[Fraction(v, den) if v else zero for v in row] for row in rows]
        if capped:
            raise RuntimeError(
                f"no certified kernel over Q after primes down to {p}: the Hadamard bound is wrong"
            )


def _solve(system: System, periods):
    """The checked periods, the behaviour's dimension on them, and a function building its basis.

    Returns ``(periods, dimension, rows)``; ``rows()`` gives the kernel's RREF
    basis as rows of payloads.  Rank 1 takes the polynomial path, whose
    dimension needs no basis.  Otherwise, over GF(p) the forward pass of
    rref gives the dimension and ``rows`` clears its pivot rows into the
    basis; over Q the dimension is the size of the certified basis.
    """
    periods = check_periods(periods, system.rank, "periods")
    field = system.field
    if not field.is_exact:
        raise FloatFieldUnsupportedError("kernel computation needs an exact field")
    width = system.l * math.prod(periods)
    if system.rank == 1:
        from ._univariate import _rank1_solve

        dimension, build = _rank1_solve(system, periods[0])
    elif isinstance(field, PrimeField):
        p = field.p
        forward = _forward(_system_matrix(system, periods), p)  # (pivots, fill, updates)
        dimension, build = width - len(forward[0]), lambda: _nullspace(_clear(*forward, p), width, p)
    else:
        basis = _rational_kernel(_system_matrix(system, periods), width)
        return periods, len(basis), lambda: basis
    # _check_basis returns None, so rows() builds only a basis within the budget
    return periods, dimension, lambda: _check_basis(dimension, width) or build()


def kernel_dimension(system: System, periods) -> int:
    """Dimension of the behaviour on a period lattice.

    For rank 1 it comes from the invariant factors of R, and over GF(p) from
    the forward pass of rref, so no basis is built and MAX_KERNEL_CELLS does
    not apply.  Over Q at rank >= 2 it is the size of the basis, so it does.
    """
    return _solve(system, periods)[1]


def periodic_kernel_basis(system: System, periods) -> KernelBasis:
    """Exact basis of the behaviour restricted to a period lattice."""
    periods, _, rows = _solve(system, periods)
    field = system.field
    basis = tuple(SeqVector._stacked(system.rank, field, periods, row) for row in rows())
    return KernelBasis(system.rank, field, periods, basis)


def enumerate_periodic_vectors(system: System, periods):
    """All signal vectors on the lattice, for small brute-force scans."""
    periods = check_periods(periods, system.rank, "periods")
    field = system.field
    if not isinstance(field, PrimeField):
        raise FloatFieldUnsupportedError("enumeration needs a finite field")
    width = system.l * math.prod(periods)
    for combo in itertools.product(range(field.p), repeat=width):
        yield SeqVector._stacked(system.rank, field, periods, combo)
