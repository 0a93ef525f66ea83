"""Each operand rule has one owner, and every operation reports it in the owner's words.

Two operands combine only over the same rank and field
(``_sparse.require_same_context``); two signals must also share their
representation and, if periodic, their periods (``_same_kind``).  A
scalar joins a container only through ``Field.value``.
"""

import math
from fractions import Fraction

import pytest

from bishift._sparse import require_same_context
from bishift.errors import (
    MixedFieldError,
    PeriodMismatchError,
    RankMismatchError,
    RepresentationMismatchError,
)
from bishift.fields import FloatField, PrimeField, RationalField
from bishift.laurent import LaurentPoly, PolyMatrix
from bishift.operators import scalar_product, shift
from bishift.sequences import FiniteSeq, PeriodicSeq, SeqVector

Q = RationalField()
GF7 = PrimeField(7)


def poly(rank, field):
    return LaurentPoly(rank, field, {(0,) * rank: 2, (1,) + (0,) * (rank - 1): 3})


def finite(rank, field):
    return FiniteSeq(rank, field, {(0,) * rank: 1, (-1,) * rank: 4})


def periodic(rank, field, periods=None):
    periods = periods or (2,) * rank
    return PeriodicSeq(rank, field, periods, range(math.prod(periods)))


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


# (mismatch, left signal, right signal, class): the right one differs
SIGNAL_PAIRS = [
    ("rank", finite(1, Q), finite(2, Q), RankMismatchError),
    ("rank", periodic(1, Q), periodic(2, Q), RankMismatchError),
    ("field", finite(1, Q), finite(1, GF7), MixedFieldError),
    ("field", periodic(2, GF7), periodic(2, Q), MixedFieldError),
    ("representation", finite(1, Q), periodic(1, Q), RepresentationMismatchError),
    ("representation", periodic(1, Q), finite(1, Q), RepresentationMismatchError),
    ("periods", periodic(2, Q, (2, 3)), periodic(2, Q, (3, 2)), PeriodMismatchError),
]


@pytest.mark.parametrize(
    "a, b, cls", [p[1:] for p in SIGNAL_PAIRS], ids=[p[0] for p in SIGNAL_PAIRS]
)
def test_signal_pairs_raise_what_same_kind_raises(a, b, cls):
    want = raised(lambda: a._same_kind(b))
    assert want[0] is cls
    assert raised(lambda: SeqVector([a, b])) == want
    assert raised(lambda: SeqVector([a, a, b])) == want
    assert raised(lambda: a + b) == want
    assert raised(lambda: a - b) == want


# (mismatch, polynomial, a second one that differs, a signal that differs alike, class)
CONTEXT_PAIRS = [
    ("rank", poly(1, Q), poly(2, Q), finite(2, Q), RankMismatchError),
    ("rank-periodic", poly(2, GF7), poly(3, GF7), periodic(3, GF7), RankMismatchError),
    ("field", poly(1, Q), poly(1, GF7), finite(1, GF7), MixedFieldError),
    ("field-periodic", poly(2, GF7), poly(2, Q), periodic(2, Q), MixedFieldError),
]


@pytest.mark.parametrize(
    "d, e, w, cls", [p[1:] for p in CONTEXT_PAIRS], ids=[p[0] for p in CONTEXT_PAIRS]
)
def test_context_pairs_raise_what_require_same_context_raises(d, e, w, cls):
    want = raised(lambda: require_same_context(d, e))
    assert want[0] is cls
    assert raised(lambda: PolyMatrix([[d, e]])) == want
    assert raised(lambda: PolyMatrix([[d], [e]])) == want
    assert raised(lambda: d + e) == want
    assert raised(lambda: d * e) == want
    # the pair (d, w) breaks the same rule as (d, e)
    want = raised(lambda: require_same_context(d, w))
    assert want[0] is cls
    assert raised(lambda: shift(d, w)) == want
    assert raised(lambda: scalar_product(d, w)) == want


def test_value_of_another_field_raises_one_text():
    alien = Q.value(1, 2)
    want = raised(lambda: GF7.value(alien))
    assert want[0] is MixedFieldError
    p, per = poly(1, GF7), periodic(1, GF7)
    for call in (
        lambda: FiniteSeq(1, GF7, {(0,): alien}),
        lambda: LaurentPoly(1, GF7, {(0,): alien}),
        lambda: PeriodicSeq(1, GF7, (2,), [GF7.one, alien]),
        lambda: p * alien,
        lambda: alien * p,
        lambda: finite(1, GF7) * alien,
        lambda: per * alien,
        lambda: alien * per,
    ):
        assert raised(call) == want


# (name, container, a plain number its field's value() takes, the product's samples)
PLAIN_SCALARS = [
    ("finite-float", FiniteSeq(1, FloatField(), {(0,): 1.0, (2,): -3.0}), 0.5,
     {(0,): 0.5, (2,): -1.5}),
    ("poly-rational", poly(2, Q), Fraction(1, 2),
     {(0, 0): Fraction(1), (1, 0): Fraction(3, 2)}),
    ("periodic-rational", periodic(1, Q), Fraction(1, 2), (Fraction(0), Fraction(1, 2))),
    ("periodic-gf7-fraction", periodic(1, GF7), Fraction(1, 2), (0, 4)),
    ("finite-gf7-int", finite(1, GF7), 10, {(0,): 3, (-1,): 5}),
]


@pytest.mark.parametrize(
    "x, a, samples", [p[1:] for p in PLAIN_SCALARS], ids=[p[0] for p in PLAIN_SCALARS]
)
def test_plain_numbers_scale_from_either_side(x, a, samples):
    want = x * x.field.value(a)
    for got in (x * a, a * x):
        assert type(got) is type(x)
        assert got == want
        stored = got._values if isinstance(got, PeriodicSeq) else got._terms
        assert stored == samples


@pytest.mark.parametrize("x", [poly(1, Q), finite(1, Q), periodic(1, Q), finite(1, GF7)])
def test_what_value_refuses_is_no_scalar(x):
    # a str, a float over an exact field, a polynomial times a signal
    if isinstance(x, LaurentPoly):
        others = ["2", 0.5, finite(1, x.field), periodic(1, x.field)]
    else:
        others = ["2", 0.5, poly(1, x.field), x]
    for other in others:
        with pytest.raises(TypeError):
            x * other
        with pytest.raises(TypeError):
            other * x


@pytest.mark.parametrize("other", [poly(1, Q), 3], ids=["poly", "int"])
def test_signal_vector_refuses_a_non_signal_in_every_position(other):
    want = (TypeError, "components must be FiniteSeq or PeriodicSeq")
    for signal in (finite(1, Q), periodic(1, Q)):
        assert raised(lambda: SeqVector([other, signal])) == want
        assert raised(lambda: SeqVector([signal, other])) == want
        assert raised(lambda: SeqVector([signal, signal, other])) == want
