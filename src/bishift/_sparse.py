"""Internal helpers for the sparse exponent-map containers.

Both Laurent polynomials and finite-support signals store a finite map
from integer index tuples to nonzero field values.  The helpers here
keep that map canonical: every key has the right length and no stored
value is zero (within tolerance, for the float field).
"""

from itertools import chain, repeat

import numpy as np

from .errors import MixedFieldError, RankMismatchError
from .fields import FieldValue


def exponent_tuple(alpha, rank):
    t = tuple(alpha)
    if len(t) != rank:
        raise RankMismatchError(f"index {t} has length {len(t)}, expected {rank}")
    for x in t:
        if not isinstance(x, int):
            raise TypeError(f"index components must be ints, got {x!r}")
    return t


def coerce_value(field, v):
    if isinstance(v, FieldValue):
        if v.field is not field and v.field != field:
            raise MixedFieldError(
                f"value from {v.field.spec()} stored in a {field.spec()} container"
            )
        return v
    return field.value(v)


def canonical_terms(rank, field, mapping):
    """Validated copy of ``mapping`` with zero coefficients dropped."""
    out = {}
    for alpha, v in mapping.items():
        a = exponent_tuple(alpha, rank)
        fv = coerce_value(field, v)
        if not field.is_zero(fv):
            out[a] = fv
    return out


def index_array(terms, rank):
    """Index tuples of a sparse map as an (n, rank) int64 array, in map order."""
    n = len(terms)
    return np.fromiter(chain.from_iterable(terms), np.int64, n * rank).reshape(n, rank)


def payload_array(terms):
    """Float payloads of a sparse map as a float64 array, in map order."""
    return np.fromiter((v.payload for v in terms.values()), np.float64, len(terms))


def boxed_terms(field, keys, payloads):
    """Sparse map from index tuples to already canonical payloads of ``field``."""
    return dict(zip(keys, map(FieldValue, repeat(field), payloads)))


def require_same_context(a, b):
    if a.rank != b.rank:
        raise RankMismatchError(f"rank {a.rank} does not match rank {b.rank}")
    if a.field is not b.field and a.field != b.field:
        raise MixedFieldError(f"cannot combine {a.field.spec()} with {b.field.spec()}")


def add_terms(field, a_terms, b_terms, negate_b=False):
    out = dict(a_terms)
    for k, v in b_terms.items():
        if negate_b:
            v = field.neg(v)
        cur = out.get(k)
        if cur is None:
            out[k] = v
        else:
            s = field.add(cur, v)
            if field.is_zero(s):
                del out[k]
            else:
                out[k] = s
    return out


def scale_terms(field, terms, c):
    if field.is_zero(c):
        return {}
    out = {}
    for k, v in terms.items():
        s = field.mul(c, v)
        if not field.is_zero(s):
            out[k] = s
    return out


def neg_terms(field, terms):
    return {k: field.neg(v) for k, v in terms.items()}


def terms_equal(field, a_terms, b_terms):
    if a_terms.keys() != b_terms.keys():
        return False
    return all(field.eq(v, b_terms[k]) for k, v in a_terms.items())
