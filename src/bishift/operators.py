"""The pairing between operator kernels and signals, and the shift action.

The pairing of a Laurent polynomial d with a signal W is the finite sum
of d_a * W_a over the support of d.  The shift action of d on W is

    (d o W)_b = sum over a of d_a * W_(a+b)

which reads future as well as past samples (the index is a + b, not
a - b; the action is correlation-flavoured, and the sign convention is
load-bearing: it is exactly what makes the shift the adjoint of
multiplication under the pairing).
"""

from __future__ import annotations

import math

from ._sparse import convolve, index_array, payload_array, require_same_context
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


def _shift_finite_sparse(d: LaurentPoly, w: FiniteSeq) -> FiniteSeq:
    # (d o W)_beta collects d_alpha * W_idx at beta = idx - alpha: the
    # product of W with d reflected through the origin, in d's term order
    reflected = {tuple(-x for x in alpha): c for alpha, c in d._terms.items()}
    return FiniteSeq._wrap(w.rank, d.field, convolve(d.field, reflected, w._terms))


def _index_bounds(terms, rank):
    """Per-axis lowest and highest index, as lists of ints.

    Raises OverflowError for an index of magnitude 2**62 or more, so
    that the difference of two accepted indices fits in int64.
    """
    idx = index_array(terms, rank)
    lo, hi = idx.min(axis=0).tolist(), idx.max(axis=0).tolist()
    if min(lo) <= -(2**62) or max(hi) >= 2**62:
        raise OverflowError("index too large for the dense float branch")
    return lo, hi


def _shift_finite_dense(d: LaurentPoly, w: FiniteSeq) -> FiniteSeq:
    """Float shift on the output's bounding box, one slice-add per kernel term.

    The box is ``bbox(supp W) - bbox(supp d)``.  Each output sample is
    summed in ``d.terms`` order, as in the sparse loop; box cells the
    sparse loop never touches only add exact zeros, and the zero test is
    the same, so the kept payloads are bit-identical to it.  Needs a
    nonzero ``d`` and ``W``.
    """
    import numpy as np

    field, rank = d.field, w.rank
    d_lo, d_hi = _index_bounds(d._terms, rank)
    idx = index_array(w._terms, rank)
    w_lo = idx.min(axis=0)
    idx -= w_lo
    w_box = np.zeros(tuple(idx.max(axis=0) + 1))
    w_box[tuple(idx.T)] = payload_array(w._terms)
    del idx  # arrays go as soon as they are done: building the output map is the peak
    out = np.zeros(tuple(m + h - lo for m, lo, h in zip(w_box.shape, d_lo, d_hi)))
    product = np.empty_like(w_box)
    for alpha, c in d._terms.items():
        # output index beta reads W at beta + alpha: W's box sits at d_hi - alpha
        at = tuple(slice(h - a, h - a + m) for h, a, m in zip(d_hi, alpha, w_box.shape))
        np.multiply(w_box, c, out=product)
        out[at] += product
    del w_box, product
    keep = ~(np.abs(out) <= field.tolerance)
    values = out[keep].tolist()
    # box cell i holds output index w_lo - d_hi + i
    axes = [(a + (lo - h)).tolist() for a, lo, h in zip(np.nonzero(keep), w_lo.tolist(), d_hi)]
    del out, keep
    return FiniteSeq._wrap(rank, field, dict(zip(zip(*axes), values)))


def _shift_finite(d: LaurentPoly, w: FiniteSeq) -> FiniteSeq:
    """Run the dense float branch when its box is no larger than the sparse work.

    ``len(d.terms) * len(w.terms)`` is the number of products the sparse
    loop computes, so the dense branch never allocates more cells than the
    sparse loop would work through.  Exact fields always run sparse.
    """
    if d.field.is_exact or not d._terms or not w._terms:
        return _shift_finite_sparse(d, w)
    try:
        d_lo, d_hi = _index_bounds(d._terms, d.rank)
        w_lo, w_hi = _index_bounds(w._terms, w.rank)
    except OverflowError:  # indices beyond the dense branch's int64 range
        return _shift_finite_sparse(d, w)
    cells = math.prod(
        wh - wl + dh - dl + 1 for wl, wh, dl, dh in zip(w_lo, w_hi, d_lo, d_hi)
    )
    if cells > len(d._terms) * len(w._terms):
        return _shift_finite_sparse(d, w)
    return _shift_finite_dense(d, w)


def _shift_periodic(d: LaurentPoly, w: PeriodicSeq) -> PeriodicSeq:
    field, values = d.field, w._values
    if not d._terms:
        return PeriodicSeq._wrap(w.rank, field, w.periods, (field.zero.payload,) * len(values))
    # column alpha holds W_(alpha + beta) for every beta in storage order,
    # gathered through one rolled index list per kernel term
    columns = [
        list(map(values.__getitem__, flat))
        for flat in rolled_indices(d._terms, w.periods, w._strides)
    ]
    dot, cs = field._dot, list(d._terms.values())
    out = tuple(dot(cs, xs) for xs in zip(*columns))
    return PeriodicSeq._wrap(w.rank, field, w.periods, out)


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
    for i in range(r.rows):
        if w.kind == "periodic":
            row_sum = PeriodicSeq.zero(w.rank, w.field, w.periods)
        else:
            row_sum = FiniteSeq.zero(w.rank, w.field)
        for j in range(r.cols):
            row_sum = row_sum + shift(r.entry(i, j), w[j])
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
