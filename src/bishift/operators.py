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
from collections import deque
from itertools import chain, product, repeat
from operator import add, itemgetter, mul, sub

from ._sparse import require_same_context
from .errors import DimensionMismatchError
from .fields import FieldValue
from .laurent import LaurentPoly, PolyMatrix
from .sequences import FiniteSeq, PeriodicSeq, SeqVector, rolled_indices, row_major_strides


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
    return FiniteSeq._wrap(w.rank, d.field, d.field._convolve(reflected, w._terms))


def _index_bounds(terms, rank):
    """Per-axis lowest and highest index of a nonempty sparse map, as lists of ints."""
    axes = [list(map(itemgetter(i), terms)) for i in range(rank)]
    return list(map(min, axes)), list(map(max, axes))


def _slice_add(padded, terms, size):
    """Per cell, from 0.0 and in order, the sum over (off, c) ``terms`` of c times cell + off."""
    acc = [0.0] * size
    for off, c in terms:
        acc = list(map(add, acc, map(mul, repeat(c), padded[off : off + size])))
    return acc


def _shift_finite_dense(d: LaurentPoly, w: FiniteSeq, d_bounds, w_bounds) -> FiniteSeq:
    """Float shift on the output's bounding box, one slice-add per kernel term.

    The box is ``bbox(supp W) - bbox(supp d)``, held row-major in one flat
    list.  ``W`` is padded by the kernel's span on every axis, so each term
    reads one contiguous slice that never wraps into the next row.  Each
    output sample is summed in ``d.terms`` order, as in the sparse loop; box
    cells the sparse loop never touches only add exact zeros, and the zero
    test is the same, so the kept payloads are bit-identical to it.  Needs a
    nonzero ``d`` and ``W``, and their :func:`_index_bounds`.
    """
    field = d.field
    (d_lo, d_hi), (w_lo, w_hi) = d_bounds, w_bounds
    spans = list(map(sub, d_hi, d_lo))
    shape = [h - lo + 1 + s for lo, h, s in zip(w_lo, w_hi, spans)]  # output box
    padded_shape = list(map(add, shape, spans))
    strides = row_major_strides(padded_shape)
    padded = [0.0] * math.prod(padded_shape)
    # padded cell 0 holds W at w_lo - span
    flat = repeat(-sum(map(mul, map(sub, w_lo, spans), strides)))
    for i, stride in enumerate(strides):
        flat = map(add, flat, map(mul, map(itemgetter(i), w._terms), repeat(stride)))
    deque(map(padded.__setitem__, flat, w._terms.values()), 0)
    # output cell o reads W at padded cell o + alpha - d_lo
    size = sum((n - 1) * s for n, s in zip(shape, strides)) + 1
    offsets = (sum(map(mul, map(sub, alpha, d_lo), strides)) for alpha in d._terms)
    acc = _slice_add(padded, zip(offsets, d._terms.values()), size)
    del padded
    row = shape[-1]
    starts = (sum(map(mul, o, strides)) for o in product(*map(range, shape[:-1])))
    ranges = [range(lo - h, lo - h + n) for lo, h, n in zip(w_lo, d_hi, shape)]
    out = dict(zip(product(*ranges), chain.from_iterable(acc[i : i + row] for i in starts)))
    del acc
    tol = field.tolerance
    for k in [k for k, v in out.items() if abs(v) <= tol]:
        del out[k]
    return FiniteSeq._wrap(w.rank, field, out)


def _shift_finite(d: LaurentPoly, w: FiniteSeq) -> FiniteSeq:
    """Run the dense float branch when its box is no larger than the sparse work.

    ``len(d.terms) * len(w.terms)`` is the number of products the sparse
    loop computes, so the dense branch never allocates more cells than the
    sparse loop would work through.  Exact fields always run sparse.
    """
    if d.field.is_exact or not d._terms or not w._terms:
        return _shift_finite_sparse(d, w)
    d_bounds = d_lo, d_hi = _index_bounds(d._terms, d.rank)
    w_bounds = w_lo, w_hi = _index_bounds(w._terms, w.rank)
    cells = math.prod(
        wh - wl + dh - dl + 1 for wl, wh, dl, dh in zip(w_lo, w_hi, d_lo, d_hi)
    )
    if cells > len(d._terms) * len(w._terms):
        return _shift_finite_sparse(d, w)
    return _shift_finite_dense(d, w, d_bounds, w_bounds)


def _shift_periodic(d: LaurentPoly, w: PeriodicSeq) -> PeriodicSeq:
    field, values = d.field, w._values
    if not d._terms:
        return PeriodicSeq._wrap(w.rank, field, w.periods, (field.zero.payload,) * len(values))
    # the rolled index list of term alpha holds the storage position of
    # W_(alpha + beta) for every beta in storage order
    positions = rolled_indices(d._terms, w.periods, w._strides)
    out = tuple(field._dot_columns(d._terms.values(), values, positions))
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
