"""Hypothesis strategies and seeded wide draws for the algebraic property tests."""

import math
from fractions import Fraction

import hypothesis.strategies as st

from bishift.fields import PrimeField, RationalField
from bishift.laurent import LaurentPoly
from bishift.sequences import FiniteSeq, PeriodicSeq

EXACT_FIELDS = [RationalField(), PrimeField(2), PrimeField(7)]

# Equal to RationalField() but a distinct object: a test parametrized over
# fields reads it as "draw wide rationals" (see widen).
WIDE_Q = RationalField()

_PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, p))]


def wide_rationals(rng, count):
    """``count`` rationals with numerators above 2**62 over distinct prime denominators."""
    out = []
    for den in rng.sample(_PRIMES, count):
        num = rng.randrange(2**62, 2**63) * den + rng.randrange(1, den)
        out.append(Fraction(rng.choice((-1, 1)) * num, den))
    return out


def widen(rng, x):
    """``x`` with wide rationals in place of its stored coefficients.

    A LaurentPoly or FiniteSeq keeps its support; a PeriodicSeq keeps its
    periods, and every sample becomes nonzero.
    """
    if isinstance(x, PeriodicSeq):
        return PeriodicSeq(x.rank, x.field, x.periods, wide_rationals(rng, math.prod(x.periods)))
    return type(x)(x.rank, x.field, dict(zip(x.sorted_support(), wide_rationals(rng, len(x.terms)))))


exact_fields = st.sampled_from(EXACT_FIELDS)


def exponents(rank, span=4):
    return st.tuples(*([st.integers(-span, span)] * rank))


def payloads(field):
    if isinstance(field, PrimeField):
        return st.integers(0, field.p - 1)
    return st.fractions(min_value=-5, max_value=5, max_denominator=9)


def term_maps(rank, field, max_size=6, span=4):
    return st.dictionaries(exponents(rank, span), payloads(field), max_size=max_size)


@st.composite
def poly_triples(draw, max_rank=3):
    rank = draw(st.integers(1, max_rank))
    field = draw(exact_fields)
    terms = term_maps(rank, field)
    return (
        LaurentPoly(rank, field, draw(terms)),
        LaurentPoly(rank, field, draw(terms)),
        LaurentPoly(rank, field, draw(terms)),
    )


@st.composite
def poly_with_seq(draw, max_rank=3):
    rank = draw(st.integers(1, max_rank))
    field = draw(exact_fields)
    d = LaurentPoly(rank, field, draw(term_maps(rank, field)))
    w = FiniteSeq(rank, field, draw(term_maps(rank, field)))
    return d, w


@st.composite
def single_polys(draw, max_rank=3):
    rank = draw(st.integers(1, max_rank))
    field = draw(exact_fields)
    return LaurentPoly(rank, field, draw(term_maps(rank, field)))
