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

Rank-1 systems build no matrix.  A period-N signal is a polynomial in
F[X]/(X^N - 1), where the shift by R is multiplication, so the kernel
follows from the invariant factors of R and a Hermite basis over F[X]
(see :func:`_rank1_structure` and :mod:`bishift._univariate`), in pure
Python, with RREF rows written in time of the order of the output.  The
rest of this docstring is about rank 2 and above.

The matrix is one numpy array of raw payloads from construction to the
kernel report: int64 residues over GF(p) with p < 2**31, and an object
array of Python ints for larger primes.  One elimination loop,
:func:`rref`, serves every field by running the field's payload hooks on
whole rows.

Over Q no elimination runs on ``Fraction``s.  Each row of R is cleared
of denominators, and the kernel is solved modulo 31-bit primes on the
int64 loop.  A prime whose kernel is larger, or whose pivots sit
further right, than another prime's is unlucky and dropped.  The
residues of the others are combined by CRT and rational reconstruction,
and the result is certified by an exact check of R o w = 0 (see
:func:`_rational_kernel`).  :func:`periodic_system_matrix` still builds
the ``Fraction`` matrix over Q for callers that want it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ._univariate import PolyRing
from .errors import FloatFieldUnsupportedError, LatticeTooLargeError, RankMismatchError
from .fields import PrimeField, _is_prime
from .laurent import LaurentPoly, PolyMatrix
from .operators import shift_matrix
from .sequences import FiniteSeq, PeriodicSeq, SeqVector

# GF(p) constraint matrices hold int64 payloads below this modulus
_INT64_MODULUS_LIMIT = 2**31
# largest constraint matrix, in cells, that periodic_system_matrix builds
MAX_MATRIX_CELLS = 2**24
# largest basis, in cells (dimension x l x N), that the rank-1 path builds
MAX_KERNEL_CELLS = 2**17
# largest k * l * (D + 1)**2 * bit length of N, for entries of degree D, that
# the rank-1 path takes on: about its coefficient operations before the
# basis.  Every system within MAX_MATRIX_CELLS has N <= 4096 and D < N, so
# it stays admitted.
MAX_POLY_WORK = 2**28


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
        if type(n) is not int or n < 1:
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
    import numpy as np

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
    fold = _folding(periods)
    flat = np.arange(size)
    for i in range(system.k):
        rows = i * size + flat
        for j in range(system.l):
            for alpha, c in system.matrix.entry(i, j)._terms.items():
                cols = j * size + fold(alpha)
                matrix[rows, cols] = field._add(matrix[rows, cols], c)
    return matrix


def _folding(periods):
    """Map from X^alpha to the flat domain index of (alpha + beta) mod periods, per beta.

    X^alpha acts on the fundamental domain as this permutation; entry b
    of the returned array is the image of the b-th point of the
    row-major enumeration.
    """
    import numpy as np

    lengths = np.array(periods)
    strides = np.array([math.prod(periods[i + 1 :]) for i in range(len(periods))])
    domain = np.indices(periods).reshape(len(periods), -1).T  # row b: the beta at flat(beta) = b
    return lambda alpha: ((domain + [a % n for a, n in zip(alpha, periods)]) % lengths) @ strides


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
    import numpy as np

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
    import numpy as np

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


def _cleared_rows(system: System):
    """Integer coefficient maps of R, row i scaled by the lcm of its denominators.

    Scaling a row of R by a nonzero constant leaves its kernel unchanged.
    """
    rows = []
    for i in range(system.k):
        terms = [system.matrix.entry(i, j)._terms for j in range(system.l)]
        scale = math.lcm(*(c.denominator for t in terms for c in t.values()))
        rows.append([{a: c.numerator * (scale // c.denominator) for a, c in t.items()} for t in terms])
    return rows


def _primes():
    """Primes below 2**31, downward from 2**31 - 1."""
    p = _INT64_MODULUS_LIMIT - 1
    while True:
        if _is_prime(p):
            yield p
        p -= 2


def _crt(residues, modulus, image, p):
    """The residues mod modulus * p congruent to residues mod modulus and to image mod p."""
    import numpy as np

    step = (image - (residues % p).astype(np.int64)) % p * pow(modulus, -1, p) % p
    return residues + modulus * step.astype(object)


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
    denominator joins ``den``.  Returns ``(den, y)`` with ``y`` the flat
    list of ints, or None when an entry has no reconstruction or ``den``
    stops growing or outgrows the bound: more primes are needed.
    """
    import numpy as np

    bound = math.isqrt(modulus // 2)
    flat = residues.ravel()
    den = 1
    while True:
        y = flat * den % modulus
        y = np.where(y > modulus // 2, y - modulus, y)
        large = np.flatnonzero(np.abs(y) > bound)
        if not large.size:
            return den, y.tolist()
        d = _wang_denominator(flat[large[0]], modulus, bound)
        if d is None or den % d == 0:
            return None
        den = math.lcm(den, d)
        if den > bound:
            return None


def _certifies(cleared, periods, rows):
    """Exact check that R o w = 0 on the lattice for every integer row w of ``rows``.

    Each polynomial term adds one permuted slice of the rows, in Python
    ints, so the dense constraint matrix is never multiplied out.
    """
    import numpy as np

    size = math.prod(periods)
    fold = _folding(periods)
    for entries in cleared:
        total = np.zeros((len(rows), size), dtype=object)
        for j, terms in enumerate(entries):
            for alpha, c in terms.items():
                total += c * rows[:, j * size + fold(alpha)]
        if (total != 0).any():
            return False
    return True


def _rational_kernel(system: System, periods):
    """RREF kernel basis over Q as rows of ``Fraction``s, by multi-modular elimination.

    Each prime p, downward from 2**31 - 1, gives the kernel's RREF over
    GF(p) from the int64 loop.  A prime's signature is (dimension, pivot
    tuple); the true one is the smallest possible, so a prime with a
    larger signature is unlucky and dropped, and a smaller one restarts
    the residues.  The residues of the non-pivot columns are combined by
    CRT and reconstructed; once two successive reconstructions agree,
    the rows are checked exactly against R.  The rows are in RREF by
    construction and number l|D| - rank_p >= dim_Q, so passing the check
    proves they are the unique RREF basis over Q.

    Entries of that basis are ratios of minors of the cleared matrix, so
    below the Hadamard bound H.  Unlucky primes divide one such minor.
    Once the primes tried exceed 2 H^5, the kept ones exceed 2 H^4 and the
    reconstruction is exact; failing the check then is a bug.
    """
    import numpy as np

    cleared = _cleared_rows(system)
    size = math.prod(periods)
    width = system.l * size
    # H < 2**height_bits: each row of the cleared matrix has 2-norm at most
    # the 1-norm of its row of R, and there are |D| rows per row of R
    height_bits = size * sum(
        sum(abs(c) for terms in entries for c in terms.values()).bit_length()
        for entries in cleared
    )
    best = candidate = None
    tried = 1
    for p in _primes():
        field = PrimeField(p)
        image = System(PolyMatrix(
            [[LaurentPoly(system.rank, field, terms) for terms in entries] for entries in cleared]
        ))
        vectors = nullspace_basis(periodic_system_matrix(image, periods), field)
        pivots = (vectors != 0).argmax(axis=1)
        signature = (len(pivots), tuple(pivots.tolist()))
        tried *= p
        capped = tried.bit_length() > 5 * height_bits + 1
        agreed = False
        if best is None or signature <= best:
            if best is None or signature < best:
                # the first prime, or every kept one was unlucky: start over
                best, candidate = signature, None
                free = np.flatnonzero(~np.isin(np.arange(width), pivots))
                residues, modulus = vectors[:, free].astype(object), p
            else:
                residues, modulus = _crt(residues, modulus, vectors[:, free], p), modulus * p
            previous, candidate = candidate, _reconstruct(residues, modulus)
            agreed = candidate is not None and candidate == previous
        if candidate is not None and (agreed or capped):
            (dimension, leads), (den, numerators) = best, candidate
            rows = np.zeros((dimension, width), dtype=object)
            rows[:, free] = np.array(numerators, dtype=object).reshape(dimension, free.size)
            rows[np.arange(dimension), list(leads)] = den
            if _certifies(cleared, periods, rows):
                zero = Fraction(0)
                return [[Fraction(v, den) if v else zero for v in row] for row in rows.tolist()]
        if capped:
            raise RuntimeError(
                f"no certified kernel over Q after primes down to {p}: the Hadamard bound is wrong"
            )


def _rank1_structure(system: System, n: int):
    """The rank-1 system as a polynomial matrix, with its kernel dimension on period n.

    Reading a period-n signal w as the polynomial w^ = sum of w_b X^-b in
    F[X]/(X^n - 1) turns d o w into d * w^, so the behaviour is the kernel
    of R over that ring.  Row i of R is multiplied by X^-m_i, m_i its
    lowest exponent, and its exponents are folded mod n: X is a unit of
    the ring and X^n = 1 there, so neither changes the kernel.  The
    kernel's dimension is the sum of deg gcd(s_i, X^n - 1) over the
    invariant factors s_1, ..., s_r of the resulting polynomial matrix,
    plus n for each of its l - r free directions.

    Returns ``(ring, matrix, gcds, dimension)``, ``gcds`` holding
    gcd(s_i, X^n - 1) for i = 1..r.  Raises
    LatticeTooLargeError, before building any polynomial, when the work
    estimate exceeds MAX_POLY_WORK.
    """
    add, zero = system.field._add, system.field.zero.payload
    folded = []
    for i in range(system.k):
        row = [system.matrix.entry(i, j)._terms for j in range(system.l)]
        m = min((a for terms in row for (a,) in terms), default=0)
        entries = []
        for terms in row:
            entry = {}
            for (a,), c in terms.items():
                e = (a - m) % n
                entry[e] = add(entry.get(e, zero), c)
            entries.append(entry)
        folded.append(entries)
    degree = max((e for row in folded for entry in row for e in entry), default=0)
    work = system.k * system.l * (degree + 1) ** 2 * n.bit_length()
    if work > MAX_POLY_WORK:
        raise LatticeTooLargeError(
            f"period {n} with entries of degree up to {degree} needs about {work} "
            f"coefficient operations, more than {MAX_POLY_WORK}"
        )
    ring = PolyRing(system.field)
    matrix = [[ring.from_exponents(entry) for entry in entries] for entries in folded]
    gcds = [ring.cyclic_gcd(s, n) for s in ring.smith_invariants(matrix)]
    dimension = sum(len(g) - 1 for g in gcds) + n * (system.l - len(gcds))
    return ring, matrix, gcds, dimension


def _rank1_kernel_rows(system: System, n: int):
    """The kernel's RREF basis on period n of a rank-1 system, as rows of payloads.

    The kernel is K~ / (X^n - 1) F[X]^l for the F[X]-module K~ of
    polynomial vectors v with R v = 0 mod X^n - 1.  When R has full column
    rank r = l, every element of the kernel is c u for c = (X^n - 1) / L
    and L = gcd(s_r, X^n - 1), which every gcd(s_i, X^n - 1) divides, so
    K~ = c {u : R u = 0 mod L} and its Hermite basis comes from one over
    the small modulus L.  Otherwise the kernel has at least n dimensions
    and the Hermite basis is computed mod X^n - 1 itself.

    Raises LatticeTooLargeError, before any row exists, when the basis
    would have more than MAX_KERNEL_CELLS cells.
    """
    ring, matrix, gcds, dimension = _rank1_structure(system, n)
    cells = dimension * system.l * n
    if cells > MAX_KERNEL_CELLS:
        raise LatticeTooLargeError(
            f"period {n} gives a kernel of dimension {dimension} in l = {system.l} "
            f"components: {cells} basis cells, more than {MAX_KERNEL_CELLS}"
        )
    if not dimension:
        return []
    modulus = ring.cyclic(n)
    if len(gcds) == system.l:
        small = gcds[-1]
        c = ring.divmod(modulus, small)[0]
        basis = [[ring.mul(c, e) for e in row] for row in ring.kernel_hermite(matrix, small)]
    else:
        basis = ring.kernel_hermite(matrix, modulus)
    return ring.rref_rows(basis, n)


def _kernel_rows(system: System, periods):
    """The kernel's RREF basis on the lattice, as rows of payloads."""
    if not system.field.is_exact:
        raise FloatFieldUnsupportedError("kernel computation needs an exact field")
    if system.rank == 1:
        return _rank1_kernel_rows(system, periods[0])
    if isinstance(system.field, PrimeField):
        return nullspace_basis(periodic_system_matrix(system, periods), system.field).tolist()
    return _rational_kernel(system, periods)


def kernel_dimension(system: System, periods) -> int:
    """Dimension of the behaviour on a period lattice.

    For rank 1 it comes from the invariant factors of R, without a basis.
    Otherwise, over GF(p) one elimination gives it; over Q it is the size
    of the certified basis.
    """
    periods = _check_periods(system, periods)
    field = system.field
    if system.rank == 1 and field.is_exact:
        return _rank1_structure(system, periods[0])[-1]
    if isinstance(field, PrimeField):
        _, pivots = rref(periodic_system_matrix(system, periods), field)
        return system.l * math.prod(periods) - len(pivots)
    return len(_kernel_rows(system, periods))


def periodic_kernel_basis(system: System, periods) -> KernelBasis:
    """Exact basis of the behaviour restricted to a period lattice."""
    periods = _check_periods(system, periods)
    field = system.field
    size = math.prod(periods)
    basis = tuple(
        SeqVector(
            PeriodicSeq._wrap(system.rank, field, periods, tuple(row[j * size : (j + 1) * size]))
            for j in range(system.l)
        )
        for row in _kernel_rows(system, periods)
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
