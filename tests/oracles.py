"""Independent brute-force oracles.

Everything here recomputes results straight from the defining sums,
through code paths disjoint from the library's sparse implementations,
so the tests that use these functions are genuine cross-checks.
"""

import itertools
import math

from bishift.laurent import LaurentPoly
from bishift.sequences import FiniteSeq


def _support_box(support, rank, pad=0):
    los = [min(e[i] for e in support) - pad for i in range(rank)]
    his = [max(e[i] for e in support) + pad for i in range(rank)]
    return los, his


def _box_points(los, his):
    return itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))


def dense_mul(a: LaurentPoly, b: LaurentPoly) -> dict:
    """Product coefficients by scanning a dense exponent box.

    For each target exponent g in the summed box, accumulates
    a[alpha] * b[g - alpha] over a's entire box.  No sparse scatter.
    """
    if a.is_zero() or b.is_zero():
        return {}
    field = a.field
    lo_a, hi_a = _support_box(a.support(), a.rank)
    lo_b, hi_b = _support_box(b.support(), b.rank)
    lo = [x + y for x, y in zip(lo_a, lo_b)]
    hi = [x + y for x, y in zip(hi_a, hi_b)]
    out = {}
    for gamma in _box_points(lo, hi):
        total = field.zero
        for alpha in _box_points(lo_a, hi_a):
            beta = tuple(g - x for g, x in zip(gamma, alpha))
            total = field.add(total, field.mul(a.coeff(alpha), b.coeff(beta)))
        if not field.is_zero(total):
            out[gamma] = total
    return out


def shift_by_definition(d: LaurentPoly, w, box) -> dict:
    """(d o W)_beta = sum over a of d_a * W_(a+beta), evaluated literally.

    ``box`` is a (low, high) pair of per-axis bounds for beta; the
    caller picks it wide enough to cover the possible support.
    """
    field = d.field
    lo, hi = box
    out = {}
    for beta in _box_points(lo, hi):
        total = field.zero
        for alpha in d.support():
            idx = tuple(a + b for a, b in zip(alpha, beta))
            total = field.add(total, field.mul(d.coeff(alpha), w.coeff(idx)))
        if not field.is_zero(total):
            out[beta] = total
    return out


def finite_shift_box(d: LaurentPoly, w: FiniteSeq, pad=1):
    """A box guaranteed to contain supp(d o W) for finite-support W."""
    if d.is_zero() or w.is_zero():
        return ([0] * d.rank, [0] * d.rank)
    lo_d, hi_d = _support_box(d.support(), d.rank)
    lo_w, hi_w = _support_box(w.support(), w.rank)
    lo = [a - b - pad for a, b in zip(lo_w, hi_d)]
    hi = [a - b + pad for a, b in zip(hi_w, lo_d)]
    return lo, hi


def dot_columns_by_column(cs, values, positions, zero):
    """``out[i] = sum over j of cs[j] * values[positions[j][i]]`` in native numbers.

    One column is added per pass, from ``zero``, so each output is the chain
    ``((zero + c1 * x1) + c2 * x2) + ...``; every index is read one by one.
    """
    out = [zero] * len(positions[0])
    for c, pos in zip(cs, positions):
        out = [a + c * values[i] for a, i in zip(out, pos)]
    return out


def constraint_matrix(system, periods):
    """Dense constraint matrix of a system on a period lattice, as rows of FieldValues.

    Entry ((i, beta), (j, gamma)) sums R_ij[a] over the a with
    (a + beta) mod periods = gamma, accumulated one (beta, term) pair at a
    time.  Rows and columns are stacked component-major over the
    row-major enumeration of the fundamental domain.  Shares no code with
    the solver's sparse builder.
    """
    field = system.field
    periods = tuple(periods)
    domain = list(itertools.product(*(range(n) for n in periods)))
    flat = {beta: b for b, beta in enumerate(domain)}
    width = system.l * len(domain)
    rows = []
    for i in range(system.k):
        for beta in domain:
            row = [field.zero] * width
            for j in range(system.l):
                for alpha, c in system.matrix.entry(i, j).terms.items():
                    gamma = tuple((a + b) % n for a, b, n in zip(alpha, beta, periods))
                    col = j * len(domain) + flat[gamma]
                    row[col] = field.add(row[col], c)
            rows.append(row)
    return rows


def count_periodic_members(system, periods) -> int:
    """Count lattice-periodic behaviour members by exhaustive evaluation.

    Works on raw integers mod p and never touches the solver, the shift
    implementation, or the library's constraint-matrix builder.  A
    stacked vector w is a member when every row of the constraint matrix
    pairs with it to zero.
    """
    p = system.field.p
    rows = [
        [(col, v.payload) for col, v in enumerate(row) if v.payload]
        for row in constraint_matrix(system, periods)
    ]
    count = 0
    for w in itertools.product(range(p), repeat=system.l * math.prod(periods)):
        for row in rows:
            total = 0
            for col, v in row:
                total += v * w[col]
            if total % p:
                break
        else:
            count += 1
    return count


def _trim_mod_p(coeffs, p):
    """Coefficients reduced mod p, lowest degree first, without trailing zeros."""
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_rem_mod_p(a, b, p):
    """Remainder of a divided by b over GF(p); both trimmed, b nonzero."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - q * c) % p
        a = _trim_mod_p(a, p)
    return a


def poly_gcd_mod_p(a, b, p):
    """Monic gcd of two polynomials over GF(p) by Euclid's algorithm.

    Polynomials are coefficient lists, lowest degree first.  The gcd of
    two zero polynomials is the empty list.
    """
    a, b = _trim_mod_p(a, p), _trim_mod_p(b, p)
    while b:
        a, b = b, _poly_rem_mod_p(a, b, p)
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def rank1_kernel_dimension(coeffs, p, n):
    """Kernel dimension of a 1x1 rank-1 system on period n over GF(p).

    ``coeffs`` lists the coefficients of X^m * R, lowest degree first.
    Indexing a period-n signal W by X^-b turns W -> R o W into
    multiplication by R in GF(p)[X]/(X^n - 1), and X is a unit there,
    so the kernel has dimension deg gcd(X^m * R, X^n - 1).
    """
    modulus = [-1] + [0] * (n - 1) + [1]
    return len(poly_gcd_mod_p(coeffs, modulus, p)) - 1


def rref_boxed(rows, field):
    """Reduced row echelon form of FieldValue rows by boxed Gauss-Jordan.

    The row-list elimination the library used before it reduced payload
    arrays: the pivot is the first nonzero entry at or below row r, and
    every scalar step goes through the field's checked FieldValue
    arithmetic.  Returns the reduced rows (zero rows dropped) and the
    pivot column of each.
    """
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


def nullspace_boxed(rows, field, width):
    """RREF basis of {w : rows . w = 0} from FieldValue rows, by the boxed loop.

    Each free column f of the reduced rows gives one vector: 1 at f,
    minus column f of the reduced rows at the pivot columns, 0
    elsewhere; a second boxed reduction puts those vectors in RREF.
    """
    reduced, pivots = rref_boxed(rows, field)
    vectors = []
    for f in range(width):
        if f in pivots:
            continue
        v = [field.zero] * width
        v[f] = field.one
        for row, col in zip(reduced, pivots):
            v[col] = field.neg(row[f])
        vectors.append(v)
    return rref_boxed(vectors, field)[0]
