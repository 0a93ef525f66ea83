"""Seeded checks of the fields' sum-of-products hooks.

The product and the finite shift go through ``Field._convolve``, the
periodic shift through ``Field._dot_columns`` and the pairing through
``Field._dot``; each output takes its sum in the field's native numbers.
Exact fields are compared with the brute-force sums of ``oracles.py``.
Float payloads are compared bit for bit with the in-order
``s += c * x`` chain, written out here.
"""

import math
import random
from fractions import Fraction

import pytest

from oracles import dense_mul, dot_columns_by_column, finite_shift_box, shift_by_definition
from strategies import WIDE_Q, widen

from bishift.fields import FloatField, PrimeField, RationalField
from bishift.laurent import LaurentPoly
from bishift.operators import scalar_product, shift
from bishift.selftest import random_finite_seq, random_periodic_seq, random_poly
from bishift.sequences import FiniteSeq, PeriodicSeq

Q = RationalField()

EXACT_FIELDS = [
    pytest.param(PrimeField(2), id="gf2"),
    pytest.param(PrimeField(7), id="gf7"),
    pytest.param(PrimeField(2**61 - 1), id="gf2305843009213693951"),
    pytest.param(WIDE_Q, id="rational-wide"),
]


def pairing_by_definition(d, w):
    field = d.field
    total = field.zero
    for alpha, c in d.terms.items():
        total = field.add(total, field.mul(c, w.coeff(alpha)))
    return total


def periodic_by_definition(d, w):
    box = ([0] * w.rank, [n - 1 for n in w.periods])
    out = shift_by_definition(d, w, box)
    return [out.get(beta, d.field.zero) for beta in w.domain()]


def product_count(a, b):
    """Number of products over number of distinct output indices of ``a * b``."""
    sums = {tuple(map(sum, zip(x, y))) for x in a.support() for y in b.support()}
    return len(a.terms) * len(b.terms), len(sums)


@pytest.mark.parametrize("field", EXACT_FIELDS)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_exact_sums_match_the_oracles(field, rank):
    rng = random.Random(1300 + rank)
    empty = colliding = 0
    for _ in range(40):
        # a span of 1 makes many products land on one output index
        c = random_poly(rng, rank, field, max_terms=5, span=1)
        d = random_poly(rng, rank, field, max_terms=5, span=1)
        w = random_finite_seq(rng, rank, field, max_terms=8, span=2)
        pw = random_periodic_seq(rng, rank, field)
        if field is WIDE_Q:
            c, d, w, pw = (widen(rng, x) for x in (c, d, w, pw))
        empty += c.is_zero() or d.is_zero() or w.is_zero()
        products, outputs = product_count(c, d)
        colliding += products > outputs

        assert dict((c * d).terms) == dense_mul(c, d)
        assert dict(shift(d, w).terms) == shift_by_definition(d, w, finite_shift_box(d, w))
        out = shift(d, pw)
        assert out.periods == pw.periods
        assert [out.coeff(beta) for beta in pw.domain()] == periodic_by_definition(d, pw)
        assert scalar_product(d, w) == pairing_by_definition(d, w)
        assert scalar_product(d, pw) == pairing_by_definition(d, pw)
    assert empty and colliding


@pytest.mark.parametrize("field", EXACT_FIELDS)
def test_empty_operands(field):
    rank = 2
    zero = LaurentPoly.zero(rank, field)
    d = LaurentPoly(rank, field, {(0, 1): 1, (1, 0): 1})
    w = FiniteSeq(rank, field, {(0, 0): 1})
    pw = PeriodicSeq(rank, field, (2, 3), [1] * 6)
    assert (zero * d).is_zero() and (d * zero).is_zero()
    assert shift(zero, w).is_zero() and shift(d, FiniteSeq.zero(rank, field)).is_zero()
    assert shift(zero, pw) == PeriodicSeq.zero(rank, field, (2, 3))
    assert scalar_product(zero, w) == field.zero == scalar_product(zero, pw)


@pytest.mark.parametrize("field", EXACT_FIELDS)
def test_cancelling_collisions_are_dropped(field):
    # (X - 1)(X + 1) = X^2 - 1: the two products at X^1 cancel
    a = LaurentPoly(1, field, {(1,): 1, (0,): -1})
    b = LaurentPoly(1, field, {(1,): 1, (0,): 1})
    assert dict((a * b).terms) == {(2,): field.one, (0,): field.value(-1)}
    w = FiniteSeq(1, field, {(0,): 1, (1,): 1})
    assert dict(shift(a, w).terms) == shift_by_definition(a, w, finite_shift_box(a, w))


def test_wide_denominators_against_the_oracle():
    # many distinct large denominators, so nearly every output has its own
    rng = random.Random(1311)
    dens = rng.sample(range(2, 10**6), 2000)
    samples = {(i,): Fraction(rng.randrange(-10**6, 10**6) or 1, den) for i, den in enumerate(dens)}
    d = LaurentPoly(1, Q, {(-2,): Fraction(1, 3), (-1,): Fraction(-1, 2), (0,): Fraction(5, 7),
                           (1,): Fraction(2, 9), (2,): Fraction(-3, 4)})
    w = FiniteSeq(1, Q, samples)
    assert dict(shift(d, w).terms) == shift_by_definition(d, w, finite_shift_box(d, w))
    wp = LaurentPoly(1, Q, samples)
    assert dict((d * wp).terms) == dense_mul(d, wp)
    pw = PeriodicSeq(1, Q, (2000,), [samples[(i,)] for i in range(2000)])
    out = shift(d, pw)
    assert [out.coeff(beta) for beta in pw.domain()] == periodic_by_definition(d, pw)


# ---------------------------------------------------------------- float


def _float_case(rng, rank, field):
    """Kernels and signals whose sums cancel, land within tolerance or round."""
    tol = field.tolerance
    values = (1.0, -1.0, 0.1, -0.0, 1.0 + 0.4 * tol, 3.0e-17)

    def draw():
        return rng.choice(values) if rng.random() < 0.5 else rng.uniform(-2, 2)

    def terms(count, span):
        return {tuple(rng.randint(-span, span) for _ in range(rank)): draw() for _ in range(count)}

    c = LaurentPoly(rank, field, terms(rng.randint(0, 6), 1))
    d = LaurentPoly(rank, field, terms(rng.randint(0, 6), 1))
    w = FiniteSeq(rank, field, terms(rng.randint(0, 30), 2))
    periods = tuple(rng.randint(1, 4) for _ in range(rank))
    pw = PeriodicSeq(rank, field, periods, [draw() for _ in range(math.prod(periods))])
    return c, d, w, pw


def _kept(sums, tol):
    return {k: s.hex() for k, s in sums.items() if not abs(s) <= tol}


def _hexes(x):
    return {k: v.hex() for k, v in x._terms.items()}


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_float_sums_are_the_in_order_chain(tol, rank):
    field = FloatField(tol)
    rng = random.Random(1320 + rank)
    for _ in range(60):
        c, d, w, pw = _float_case(rng, rank, field)

        sums = {}  # product: c outer, d inner
        for alpha, x in c._terms.items():
            for beta, y in d._terms.items():
                k = tuple(a + b for a, b in zip(alpha, beta))
                s = sums.get(k, 0.0)
                s += x * y
                sums[k] = s
        assert _hexes(c * d) == _kept(sums, tol)

        sums = {}  # finite shift: at beta = idx - alpha, in d's term order
        for alpha, x in d._terms.items():
            for idx, y in w._terms.items():
                k = tuple(i - a for i, a in zip(idx, alpha))
                s = sums.get(k, 0.0)
                s += x * y
                sums[k] = s
        assert _hexes(shift(d, w)) == _kept(sums, tol)

        if d._terms:  # a zero kernel's periodic shift is all zeros, with no chain
            want = []
            for beta in pw.domain():
                s = 0.0
                for alpha, x in d._terms.items():
                    s += x * pw.coeff(tuple(map(sum, zip(alpha, beta)))).payload
                want.append(s.hex())
            assert [v.hex() for v in shift(d, pw)._values] == want

        for signal in (w, pw):
            s = 0.0
            for alpha, x in d._terms.items():
                y = signal.coeff(alpha).payload
                if isinstance(signal, PeriodicSeq) or alpha in signal._terms:
                    s += x * y
            assert scalar_product(d, signal).payload.hex() == s.hex()


# ------------------------------------------------------- range positions


def _payload_text(xs):
    """Payloads as text that tells floats apart bit for bit (``-0.0`` from ``0.0``)."""
    return [x.hex() if isinstance(x, float) else repr(x) for x in xs]


@pytest.mark.parametrize(
    "field",
    [
        pytest.param(PrimeField(2), id="gf2"),
        pytest.param(PrimeField(7), id="gf7"),
        pytest.param(PrimeField(2**31 - 1), id="gf2147483647"),
        pytest.param(Q, id="rational"),
        pytest.param(FloatField(), id="float"),
    ],
)
def test_range_positions_read_as_lists(field):
    # a step-1 range may be read as one slice of the values; each call must
    # return what the same positions give as lists, payload for payload
    rng = random.Random(1830)

    def payload():
        if isinstance(field, FloatField):
            return rng.choice((0.0, -0.0, 1.0, rng.uniform(-2, 2)))
        if field is Q:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randrange(field.p)

    sizes = ends = 0
    for trial in range(200):
        n = rng.randint(1, 24)
        values = [payload() for _ in range(n)]
        if trial % 2:
            values = tuple(values)  # the periodic shift passes a tuple
        length = rng.randint(1, n)
        starts = [rng.randint(0, n - length) for _ in range(rng.randint(1, 5))]
        if trial % 3 == 0:
            starts[0] = 0
        if trial % 3 == 1:
            starts[-1] = n - length
        ranges = [range(at, at + length) for at in starts]
        cs = [payload() for _ in ranges]
        got = field._dot_columns(cs, values, ranges)
        want = field._dot_columns(cs, values, [list(r) for r in ranges])
        assert _payload_text(got) == _payload_text(want)
        sizes += len(ranges) == 1
        ends += ranges[-1].stop == n
    assert sizes and ends
    # ranges reaching outside the values keep the meaning of their indices
    values = [payload() for _ in range(6)]
    for ranges in ([range(-2, 3)], [range(1, 6), range(-1, 4)], [range(2, 6, 2)]):
        cs = [payload() for _ in ranges]
        want = field._dot_columns(cs, values, [list(r) for r in ranges])
        assert _payload_text(field._dot_columns(cs, values, ranges)) == _payload_text(want)
    with pytest.raises(IndexError):
        field._dot_columns([payload()], values, [range(4, 8)])


@pytest.mark.parametrize(
    "field",
    [
        pytest.param(PrimeField(2), id="gf2"),
        pytest.param(PrimeField(7), id="gf7"),
        pytest.param(PrimeField(2**31 - 1), id="gf2147483647"),
        pytest.param(FloatField(), id="float"),
    ],
)
def test_two_columns_per_pass_match_one_per_pass(field):
    # the native hook adds two columns per pass and the first term alone on an
    # odd count; the oracle adds one column per pass, in the same term order
    rng = random.Random(2201)
    is_float = isinstance(field, FloatField)
    zero = 0.0 if is_float else 0

    def payload():
        if is_float:
            return rng.choice((0.0, -0.0, 1.0, -1.0, rng.uniform(-2, 2)))
        return rng.randrange(field.p)

    def reference(cs, values, positions):
        out = dot_columns_by_column(cs, values, [list(pos) for pos in positions], zero)
        return out if is_float else [v % field.p for v in out]

    negative_zeros = 0
    for terms in range(1, 11):
        for trial in range(12):
            n = rng.randint(1, 24)
            values = [payload() for _ in range(n)]
            if trial % 2:
                values = tuple(values)  # the periodic shift passes a tuple
            length = rng.randint(0, n)
            starts = [rng.randint(0, n - length) for _ in range(terms)]
            cs = [payload() for _ in range(terms)]
            lists = [[rng.randrange(n) for _ in range(length)] for _ in range(terms)]
            ranges = [range(at, at + length) for at in starts]
            # ranges starting below 0 read negative indices from the end, one by one
            outside = [range(at, at + length) for at in (rng.randint(-n, -1) for _ in cs)]
            for positions in (lists, ranges, outside):
                want = reference(cs, values, positions)
                got = field._dot_columns(cs, values, positions)
                assert _payload_text(got) == _payload_text(want), (terms, cs, values, positions)
                negative_zeros += any(x == 0 and math.copysign(1, x) < 0 for x in values)
    # the float draws hold -0.0 samples, so a sum that started from its first
    # product instead of the field's zero would differ from the oracle
    assert not is_float or negative_zeros
    # sums of -0.0 products only are the field's zero, +0.0 over floats
    cs = [payload() for _ in range(3)]
    for positions in ([range(0, 1), range(0, 1), range(0, 1)], [[0], [0], [0]]):
        got = field._dot_columns(cs, [-0.0 if is_float else 0], positions)
        assert _payload_text(got) == _payload_text([zero])
