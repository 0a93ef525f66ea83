"""Dense univariate polynomials over an exact field, and the rank-1 kernel solver on them.

A rank-1 system's kernel on period N is computed in F[X]/(X^N - 1)
(:func:`_rank1_solve`), under the budget MAX_POLY_WORK.  :mod:`bishift.systems`
checks its basis against MAX_KERNEL_CELLS, as on every path, and imports
this module only in its rank-1 branch, so rank-2 jobs never compile it.  A
polynomial is a list of the field's payloads, lowest degree first, with
no trailing zero, so the zero polynomial is ``[]``.  Every coefficient
comes from the field's payload hooks (``_add``, ``_mul``, ``_neg``,
``_inv``, and ``_dot_columns`` for the product), so it is canonical when
it is made and this module does no arithmetic of its own.  A zero payload
is falsy in every exact field (the inherited ``_is_zero`` is ``not a``), so
``if c`` and ``_trim`` test coefficients for zero by truth value.
"""

from __future__ import annotations

from .errors import LatticeTooLargeError
from .fields import PrimeField, _is_prime

# largest k * l * (D + 1)**2 * bit length of N, for entries of degree D, that
# the rank-1 solver takes on: about its coefficient operations before the
# basis.  The rank >= 2 budgets of systems do not apply to this path; this one
# admits, for example, a 1 x 1 entry of folded degree 4095 at any N below 2**16.
MAX_POLY_WORK = 2**28


def _small_orders(n: int, degree: int) -> list:
    """The divisors d of n with phi(d) <= degree, in increasing order.

    phi(d) is the product of phi(q^a) = q^(a-1) (q - 1) over the prime
    powers q^a exactly dividing d, and each factor is at most phi(d), so
    only primes q <= degree + 1 occur.  The list holds every divisor of
    each of its members.
    """
    found = [(1, 1)]  # (d, phi(d))
    for q in range(2, degree + 2):
        if n % q or not _is_prime(q):
            continue
        more = []
        for d, phi in found:
            power, phi_power = q, q - 1
            while n % (d * power) == 0 and phi * phi_power <= degree:
                more.append((d * power, phi * phi_power))
                power, phi_power = power * q, phi_power * q
        found += more
    return sorted(d for d, _ in found)


class PolyRing:
    """Arithmetic in F[X] for one exact field."""

    __slots__ = ("field", "zero", "one", "cyclic_gcd")

    def __init__(self, field):
        self.field = field
        self.zero = field.zero.payload
        self.one = field.one.payload
        # cyclic_gcd(s, n): the monic gcd(s, X^n - 1) for a nonzero s, not building X^n - 1
        self.cyclic_gcd = self._power_gcd if isinstance(field, PrimeField) else self._cyclotomic_gcd

    # ------------------------------------------------------------ basics

    def _trim(self, values):
        """``values`` without trailing zeros, in place."""
        while values and not values[-1]:
            values.pop()
        return values

    def from_exponents(self, terms):
        """The polynomial with coefficient ``c`` at degree ``e`` for each item of ``terms``."""
        coeffs = [self.zero] * (max(terms, default=-1) + 1)
        for e, c in terms.items():
            coeffs[e] = c
        return self._trim(coeffs)

    def scale(self, a, c):
        return [self.field._mul(v, c) for v in a] if c else []

    def monic(self, a):
        return self.scale(a, self.field._inv(a[-1]))

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        return self._trim(list(map(self.field._add, a, b)) + a[len(b) :])

    def sub(self, a, b):
        return self.add(a, self.scale(b, self.field._neg(self.one)))

    def mul(self, a, b):
        if len(a) > len(b):
            a, b = b, a
        # term i of a reads b, padded by len(a) - 1 zeros each side, from offset len(a) - 1 - i
        top, size = len(a) - 1, len(a) + len(b) - 1
        terms = [(c, range(top - i, top - i + size)) for i, c in enumerate(a) if c]
        if not terms:
            return []
        cs, positions = zip(*terms)
        pad = [self.zero] * top
        return self._trim(self.field._dot_columns(cs, pad + b + pad, positions))

    def divmod(self, a, b):
        """Quotient and remainder of ``a`` by a nonzero ``b``.

        The loop subtracts multiples of b / lead(b), over its nonzero terms
        only, so dividing by X^N - 1 costs O(deg a); a monic b scales no q term.
        """
        d = len(b) - 1
        if len(a) <= d:
            return [], self._trim(list(a))
        add, mul, neg = self.field._add, self.field._mul, self.field._neg
        inv = self.field._inv(b[-1])
        monic = inv == self.one
        terms = [(j, neg(mul(c, inv))) for j, c in enumerate(b[:-1]) if c]
        r = list(a)
        q = [self.zero] * (len(a) - d)
        for i in range(len(a) - 1, d - 1, -1):
            c = r[i]
            if c:
                base = i - d
                q[base] = c if monic else mul(c, inv)
                for j, t in terms:
                    r[base + j] = add(r[base + j], mul(c, t))
        del r[d:]
        return self._trim(q), self._trim(r)

    def rem(self, a, b):
        return self.divmod(a, b)[1]

    def gcd(self, a, b):
        """Monic gcd by Euclid; the gcd of two zero polynomials is zero."""
        while b:
            a, b = b, self.rem(a, b)
        return self.monic(a) if a else []

    def cyclic(self, n):
        """X^n - 1."""
        return [self.field._neg(self.one)] + [self.zero] * (n - 1) + [self.one]

    def xpow_mod(self, n, s):
        """X^n mod s, for s of degree >= 1, by repeated squaring."""
        r = [self.one]
        for bit in bin(n)[2:]:
            r = self.rem(self.mul(r, r), s)
            if bit == "1":
                r = self.rem([self.zero] + r, s)
        return r

    def _power_gcd(self, s, n):
        """``cyclic_gcd`` over GF(p): gcd(s, (X^n mod s) - 1)."""
        return [self.one] if len(s) == 1 else self.gcd(s, self.sub(self.xpow_mod(n, s), [self.one]))

    def _cyclotomic_gcd(self, s, n):
        """``cyclic_gcd`` over Q: the product of the cyclotomic Phi_d, d | n, that divide s.

        X^n - 1 is the product of the distinct irreducible Phi_d over the
        divisors d of n, and Phi_d divides s only if phi(d) <= deg s.
        Each Phi_d is X^d - 1 divided by the Phi_e of its proper divisors,
        so no coefficient grows with n.
        """
        g, cyclotomic = [self.one], {}
        for d in _small_orders(n, len(s) - 1):
            phi = self.cyclic(d)
            for e, factor in cyclotomic.items():
                if d % e == 0:
                    phi = self.divmod(phi, factor)[0]
            cyclotomic[d] = phi
            if not self.rem(s, phi):
                g = self.mul(g, phi)
        return g

    # ----------------------------------------------------------- modules

    def smith_invariants(self, matrix):
        """Monic nonzero invariant factors s_1 | s_2 | ... of a polynomial matrix.

        ``matrix`` is a list of rows of polynomials.  Row and column
        operations bring the entry of least degree to the corner and
        clear its row and column by division.  A nonzero remainder is of
        smaller degree and becomes the next corner; an entry the corner
        does not divide is added to the corner's row first.  The corner
        degree falls at each restart, so the loop ends.
        """
        m = [list(row) for row in matrix]
        out = []
        while m and m[0]:
            candidates = [(len(e), i, j) for i, row in enumerate(m) for j, e in enumerate(row) if e]
            if not candidates:
                break
            while True:
                _, i, j = min(candidates)
                m[0], m[i] = m[i], m[0]
                for row in m:
                    row[0], row[j] = row[j], row[0]
                corner, top = m[0][0], m[0]
                for row in m[1:]:
                    if row[0]:
                        q, row[0] = self.divmod(row[0], corner)
                        for c in range(1, len(row)):
                            row[c] = self.sub(row[c], self.mul(q, top[c]))
                for c in range(1, len(top)):
                    if top[c]:
                        q, top[c] = self.divmod(top[c], corner)
                        for row in m[1:]:
                            row[c] = self.sub(row[c], self.mul(q, row[0]))
                candidates = [(len(row[0]), i, 0) for i, row in enumerate(m) if i and row[0]]
                candidates += [(len(e), 0, c) for c, e in enumerate(top) if c and e]
                if candidates:
                    continue
                bad = next(
                    (row for row in m[1:] if any(e and self.rem(e, corner) for e in row[1:])), None
                )
                if bad is None:
                    break
                m[0] = [self.add(x, y) for x, y in zip(m[0], bad)]
                candidates = [(len(corner), 0, 0)]
            out.append(self.monic(m[0][0]))
            m = [row[1:] for row in m[1:]]
        return out

    def kernel_hermite(self, matrix, modulus):
        """Hermite basis of {v in F[X]^l : matrix . v = 0 mod modulus}.

        ``matrix`` has k rows of l polynomials; ``modulus`` is monic of
        degree >= 1.  Returns l rows h_0, ..., h_(l-1): h_j is zero before
        component j, is a monic divisor d_j of the modulus at component j,
        and has degree below deg d_i at every component i > j.

        The rows (column j of the matrix | e_j) and modulus * e_c for
        every column c generate a module whose elements with zero in the
        first k places are exactly (0, v) for v in the kernel.  Euclid on
        each column in turn, always dividing by the entry of least degree,
        puts the generators in echelon form, and its rows with pivots
        right of the first k places are a basis of the kernel.  Entries
        right of the current column are kept reduced mod the modulus:
        that adds multiples of modulus * e_c, which are in the module.
        """
        k, l = len(matrix), len(matrix[0])
        width = k + l
        rows = [
            [self.rem(matrix[i][j], modulus) for i in range(k)]
            + [[self.one] if jj == j else [] for jj in range(l)]
            for j in range(l)
        ]
        basis = []
        for c in range(width):
            column = [row for row in rows if row[c]]
            rows = [row for row in rows if not row[c]]
            column.append([list(modulus) if cc == c else [] for cc in range(width)])
            while len(column) > 1:
                column.sort(key=lambda row: len(row[c]))
                pivot = column[0]
                rest = [pivot]
                for row in column[1:]:
                    q, row[c] = self.divmod(row[c], pivot[c])
                    for cc in range(c + 1, width):
                        if pivot[cc]:
                            row[cc] = self.rem(self.sub(row[cc], self.mul(q, pivot[cc])), modulus)
                    (rest if row[c] else rows).append(row)
                column = rest
            if c >= k:
                pivot = column[0]
                lead = self.field._inv(pivot[c][-1])
                basis.append([self.scale(e, lead) for e in pivot[k:]])
        for j in range(l):
            for i in range(j + 1, l):
                q = self.divmod(basis[j][i], basis[i][i])[0]
                if q:
                    basis[j] = [self.sub(x, self.mul(q, y)) for x, y in zip(basis[j], basis[i])]
        return basis

    def rref_rows(self, basis, n):
        """The RREF basis of K~ / (X^n - 1), from the Hermite basis of K~ >= (X^n - 1) F[X]^l.

        A row is the payload list of its components, each written as the
        period-n signal whose sample b is the coefficient of X^(n-1-b),
        so the first nonzero column is the top coefficient of the first
        nonzero component.  The pivots of component i are the degrees t
        from deg d_i to n - 1, and the row of pivot t is X^t e_i minus
        its normal form: its component i is X^t - (X^t mod d_i), and
        each later component j has degree below deg d_j.  The row of
        t + 1 is X times the row of t, with at most one multiple of each
        h_j subtracted to restore those degrees, so a row costs O(l n).
        """
        add, mul, neg, zero = self.field._add, self.field._mul, self.field._neg, self.zero
        l = len(basis)
        heads = [len(basis[j][j]) - 1 for j in range(l)]
        out = []
        for i in range(l):
            row = [list(e) for e in basis[i]]
            block = []
            for t in range(heads[i], n):
                if t > heads[i]:
                    row = [[zero] + e if e else e for e in row]
                    for j in range(i, l):
                        top = heads[j]
                        c = row[j][top] if len(row[j]) > top else zero
                        if c:
                            c = neg(c)
                            for e, h in zip(row[j:], basis[j][j:]):
                                if len(e) < len(h):
                                    e.extend([zero] * (len(h) - len(e)))
                                for a, v in enumerate(h):
                                    if v:
                                        e[a] = add(e[a], mul(c, v))
                        if j > i:
                            del row[j][top:]
                flat = []
                for e in row:
                    segment = e + [zero] * (n - len(e))
                    segment.reverse()
                    flat.extend(segment)
                block.append(flat)
            block.reverse()
            out.extend(block)
        return out


def _rank1_solve(system, n: int):
    """Kernel dimension on period n of a rank-1 ``System``, and a function building its basis.

    Reading a period-n signal w as the polynomial w^ = sum of w_b X^-b in
    F[X]/(X^n - 1) turns d o w into d * w^, so the behaviour is the kernel
    of R over that ring.  Row i of R is multiplied by X^-m_i, m_i its
    lowest exponent, and its exponents are folded mod n: X is a unit of
    the ring and X^n = 1 there, so neither changes the kernel.  The
    kernel's dimension is the sum of deg gcd(s_i, X^n - 1) over the
    invariant factors s_1, ..., s_r of the resulting polynomial matrix,
    plus n for each of its l - r free directions.

    The kernel is K~ / (X^n - 1) F[X]^l for the F[X]-module K~ of
    polynomial vectors v with R v = 0 mod X^n - 1.  When R has full column
    rank r = l, every element of the kernel is c u for c = (X^n - 1) / L
    and L = gcd(s_r, X^n - 1), which every gcd(s_i, X^n - 1) divides, so
    K~ = c {u : R u = 0 mod L} and its Hermite basis comes from one over
    the small modulus L.  Otherwise the kernel has at least n dimensions
    and the Hermite basis is computed mod X^n - 1 itself.

    Returns ``(dimension, rows)``; ``rows()`` gives the kernel's RREF basis
    as rows of payloads.  Raises LatticeTooLargeError, before building any
    polynomial, when the work estimate exceeds MAX_POLY_WORK.
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

    def rows():
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

    return dimension, rows
