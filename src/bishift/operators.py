"""The pairing between operator kernels and signals, and the shift action.

The pairing of a Laurent polynomial d with a signal W is the finite sum
of d_a * W_a over the support of d.  The shift action of d on W is

    (d o W)_b = sum over a of d_a * W_(a+b)

which reads future as well as past samples (the index is a + b, not
a - b; the action is correlation-flavoured, and the sign convention is
load-bearing: it is exactly what makes the shift the adjoint of
multiplication under the pairing).

Both shifts are sums the field owns.  A finite signal is multiplied by
the kernel reflected through the origin (``Field._convolve``), one path
for every field; a periodic one takes one sum per storage position over
rolled index lists (``Field._dot_columns``).
"""

from __future__ import annotations

from operator import neg

from ._sparse import require_same_context
from .errors import DimensionMismatchError
from .fields import FieldValue
from .laurent import LaurentPoly, PolyMatrix
from .sequences import FiniteSeq, PeriodicSeq, SeqVector, rolled_indices


def scalar_product(d: LaurentPoly, w) -> FieldValue:
    """Pairing <d, W> = sum of d_a * W_a; finite because d has finite support."""
    if not isinstance(d, LaurentPoly):
        raise TypeError("first pairing argument must be a LaurentPoly")
    if not isinstance(w, (FiniteSeq, PeriodicSeq)):
        raise TypeError("second pairing argument must be a signal")
    require_same_context(d, w)
    field = d.field
    if isinstance(w, FiniteSeq):
        # only the common support contributes
        samples = w._terms
        cs, xs = [], []
        for alpha, c in d._terms.items():
            x = samples.get(alpha)
            if x is not None:
                cs.append(c)
                xs.append(x)
    else:
        values, flat = w._values, w._flat
        cs = d._terms.values()
        xs = [values[flat(alpha)] for alpha in d._terms]
    return FieldValue(field, field._dot(cs, xs))


def _shift_finite(d: LaurentPoly, w: FiniteSeq) -> FiniteSeq:
    # (d o W)_beta collects d_alpha * W_idx at beta = idx - alpha: the
    # product of W with d reflected through the origin, in d's term order
    reflected = {tuple(map(neg, alpha)): c for alpha, c in d._terms.items()}
    return FiniteSeq._wrap(w.rank, d.field, d.field._convolve(reflected, w._terms))


def _shift_periodic(d: LaurentPoly, w: PeriodicSeq) -> PeriodicSeq:
    field, values = d.field, w._values
    if not d._terms:
        return w._with((field.zero.payload,) * len(values))
    # the rolled index list of term alpha holds the storage position of
    # W_(alpha + beta) for every beta in storage order
    positions = rolled_indices(d._terms, w.periods, w._strides)
    return w._with(field._dot_columns(d._terms.values(), values, positions))


def shift(d: LaurentPoly, w):
    """Apply the shift operator of ``d`` to a signal.

    Finite-support signals stay finite-support (the result lives inside
    the Minkowski difference supp(W) - supp(d)); periodic signals keep
    their period lattice.
    """
    if not isinstance(d, LaurentPoly):
        raise TypeError("shift kernel must be a LaurentPoly")
    require_same_context(d, w)
    if isinstance(w, FiniteSeq):
        return _shift_finite(d, w)
    if isinstance(w, PeriodicSeq):
        return _shift_periodic(d, w)
    raise TypeError(f"cannot shift a {type(w).__name__}")


def shift_matrix(r: PolyMatrix, w: SeqVector) -> SeqVector:
    """Componentwise matrix action: row i yields sum_j of R_ij applied to W_j."""
    if not isinstance(r, PolyMatrix):
        raise TypeError("expected a PolyMatrix")
    if not isinstance(w, SeqVector):
        raise TypeError("expected a SeqVector")
    if r.cols != len(w):
        raise DimensionMismatchError(
            f"matrix has {r.cols} columns but the signal vector has {len(w)}"
        )
    out = []
    for row in r.entries:
        row_sum = shift(row[0], w[0])
        for j in range(1, r.cols):
            row_sum = row_sum + shift(row[j], w[j])
        out.append(row_sum)
    return SeqVector(out)


def check_adjoint(c: LaurentPoly, d: LaurentPoly, w) -> bool:
    """Whether <c * d, W> equals <c, d o W>.

    The two sides go through disjoint code paths (polynomial product
    versus shift), so this is a meaningful consistency check rather than
    a tautology.
    """
    lhs = scalar_product(c * d, w)
    rhs = scalar_product(c, shift(d, w))
    return c.field.eq(lhs, rhs)
