import random

import pytest
from hypothesis import given

from oracles import dense_mul, finite_shift_box, shift_by_definition
from strategies import WIDE_Q, poly_with_seq, widen

from bishift.errors import DimensionMismatchError, MixedFieldError, RankMismatchError
from bishift.fields import FloatField, PrimeField, RationalField
from bishift.laurent import LaurentPoly, PolyMatrix
from bishift.operators import check_adjoint, scalar_product, shift, shift_matrix
from bishift.parsing import parse_poly
from bishift.selftest import (
    random_finite_seq,
    random_periodic_seq,
    random_poly,
    random_value,
)
from bishift.sequences import FiniteSeq, PeriodicSeq, SeqVector, poly_to_seq

Q = RationalField()
GF7 = PrimeField(7)

# Q and GF7 keep pytest's default ids, field0 and field1, so their test ids stay stable
ORACLE_FIELDS = [
    Q,
    GF7,
    pytest.param(PrimeField(2147483659), id="gf2147483659"),
    pytest.param(PrimeField(2**61 - 1), id="gf2305843009213693951"),
    pytest.param(WIDE_Q, id="rational-wide"),
]


def P(text, rank=1, field=Q):
    return parse_poly(text, rank, field)


def widened(rng, field, *xs):
    """``xs`` as drawn, or widened when ``field`` asks for wide rationals."""
    return [widen(rng, x) for x in xs] if field is WIDE_Q else list(xs)


def periodic_by_definition(d, w):
    """``shift_by_definition`` over the fundamental domain, in storage order."""
    box = ([0] * w.rank, [n - 1 for n in w.periods])
    out = shift_by_definition(d, w, box)
    return [out.get(beta, d.field.zero) for beta in w.domain()]


class TestScalarProduct:
    def test_weighted_pairing(self):
        d = P("X^-1 + 2*X^2")
        w = FiniteSeq(1, Q, {(-1,): 3, (2,): 4})
        assert scalar_product(d, w) == Q.value(11)

    def test_symmetric_pairing(self):
        d = P("X^-1 + X")
        w = FiniteSeq(1, Q, {(-1,): 1, (1,): 2})
        assert scalar_product(d, w) == Q.value(3)

    def test_zero_sides(self):
        w = FiniteSeq(1, Q, {(0,): 9})
        assert scalar_product(LaurentPoly.zero(1, Q), w) == Q.value(0)
        assert scalar_product(P("X"), FiniteSeq.zero(1, Q)) == Q.value(0)

    def test_periodic_pairing(self):
        d = P("X^-2 + X^5")
        w = PeriodicSeq(1, Q, (2,), [4, 7])
        assert scalar_product(d, w) == Q.value(4 + 7)

    def test_context_checked(self):
        with pytest.raises(RankMismatchError):
            scalar_product(P("X1", rank=2), FiniteSeq.zero(1, Q))
        with pytest.raises(MixedFieldError):
            scalar_product(P("X"), FiniteSeq.zero(1, GF7))


class TestShiftFinite:
    def test_monomial_shift_reads_ahead(self):
        w = FiniteSeq(1, Q, {(-2,): 5, (0,): 7, (3,): -1})
        out = shift(P("X"), w)
        for k in range(-6, 6):
            assert out.coeff((k,)) == w.coeff((k + 1,))

    def test_smoothing_window_interior_and_edges(self):
        # golden case: the published table reads 0 at k = -2 and 2, where
        # the stencil leaves its window -2..2; the defining sum produces
        # 1/2 and 3/2 there, and the dense oracle pins the full output
        w = FiniteSeq(1, Q, {(-1,): 1, (0,): 2, (1,): 3})
        kernel = P("1/2*X^-1 + 1/2*X")
        out = shift(kernel, w)
        expected = {
            (-2,): Q.value(1, 2),
            (-1,): Q.value(1),
            (0,): Q.value(2),
            (1,): Q.value(1),
            (2,): Q.value(3, 2),
        }
        assert dict(out.terms) == expected
        assert shift_by_definition(kernel, w, finite_shift_box(kernel, w)) == expected

    def test_smoothing_float_matches_rational(self):
        F = FloatField()
        w = FiniteSeq(1, F, {(-1,): 1.0, (0,): 2.0, (1,): 3.0})
        out = shift(parse_poly("0.5*X^-1 + 0.5*X", 1, F), w)
        expect = {(-2,): 0.5, (-1,): 1.0, (0,): 2.0, (1,): 1.0, (2,): 1.5}
        assert out.support() == set(expect)
        for idx, v in expect.items():
            assert abs(out.coeff(idx).payload - v) <= 1e-9

    def test_constant_one_is_identity(self):
        w = FiniteSeq(1, Q, {(-3,): 2, (4,): 5})
        assert shift(LaurentPoly.one(1, Q), w) == w

    def test_against_defining_sum_randomized(self):
        rng = random.Random(551)
        for _ in range(100):
            rank = rng.choice((1, 2))
            field = rng.choice((Q, GF7))
            d = random_poly(rng, rank, field, max_terms=4, span=3)
            w = random_finite_seq(rng, rank, field, max_terms=4, span=3)
            out = shift(d, w)
            assert dict(out.terms) == shift_by_definition(d, w, finite_shift_box(d, w))


def _random_float_case(rng, field):
    """A kernel and a signal over ``field`` with cancelling and near-zero sums.

    Coefficients of +-1 against samples of +-1 and 1 + a fraction of the
    tolerance make sums that cancel exactly or land within the
    tolerance; a far outlier sample spreads the signal wide.
    """
    rank = rng.randint(1, 3)
    tol = field.tolerance

    def index(span):
        return tuple(rng.randint(-span, span) for _ in range(rank))

    coeffs = (1.0, -1.0, 0.5, rng.uniform(-1, 1))
    samples = (1.0, -1.0, 1.0 + 0.4 * tol, -1.0 - 0.7 * tol, 0.5, rng.uniform(-2, 2))
    d = LaurentPoly(
        rank, field, {index(2): rng.choice(coeffs) for _ in range(rng.randint(1, 5))}
    )
    span = rng.choice((1, 2, 4))
    terms = {index(span): rng.choice(samples) for _ in range(rng.randint(1, 40))}
    if rng.random() < 0.3:
        terms[index(30 // rank)] = rng.choice(samples)
    return d, FiniteSeq(rank, field, terms)


class TestFloatShift:
    @pytest.mark.parametrize("tol, seed", [(1e-9, 561), (1e-3, 562)])
    def test_matches_oracle(self, tol, seed):
        field = FloatField(tol)
        rng = random.Random(seed)
        # a sample dropped for being within the tolerance may be kept by
        # the oracle, whose sums run in another order, as a value a few
        # ulps above it
        bound = tol + 1e-12
        for _ in range(200):
            d, w = _random_float_case(rng, field)
            out = shift(d, w)
            assert all(abs(v.payload) > tol for v in out.terms.values())
            oracle = shift_by_definition(d, w, finite_shift_box(d, w))
            for k in oracle.keys() | out.terms.keys():
                got = out.terms[k].payload if k in out.terms else 0.0
                want = oracle[k].payload if k in oracle else 0.0
                assert abs(got - want) <= bound

    def test_indices_beyond_int64(self):
        field = FloatField()
        kernel = parse_poly("X + 0.5", 1, field)
        # Python ints do not overflow, so the shift takes any index
        for big in (2**62 - 1, 2**70, -(2**62)):
            w = FiniteSeq(1, field, {(big,): 1.5, (big + 1,): 2.0})
            expected = FiniteSeq(1, field, {(big - 1,): 1.5, (big,): 2.75, (big + 1,): 1.0})
            assert shift(kernel, w) == expected


class TestShiftPeriodic:
    def test_difference_kernel_annihilates_alternating(self):
        w = PeriodicSeq(1, Q, (2,), [1, 0])
        assert shift(P("X - X^-1"), w).is_zero()

    def test_period_two_lattice_annihilated_by_square_shift(self):
        rng = random.Random(552)
        kernel = P("X^2 - 1")
        for _ in range(20):
            w = PeriodicSeq(1, Q, (2,), [rng.randint(-9, 9), rng.randint(-9, 9)])
            assert shift(kernel, w).is_zero()

    def test_cyclic_rotation(self):
        w = PeriodicSeq(1, Q, (3,), [10, 20, 30])
        assert shift(P("X"), w) == PeriodicSeq(1, Q, (3,), [20, 30, 10])

    def test_matches_windowed_finite_shift(self):
        # truncate the periodic signal to a wide finite window; interior
        # samples of the two shifts must agree
        rng = random.Random(553)
        for _ in range(50):
            d = random_poly(rng, 1, GF7, max_terms=4, span=3)
            w = random_periodic_seq(rng, 1, GF7)
            n = w.periods[0]
            window = FiniteSeq(
                1, GF7, {(i,): w.coeff((i,)) for i in range(-4 * n - 8, 4 * n + 9)}
            )
            periodic_out = shift(d, w)
            finite_out = shift(d, window)
            for beta in range(-n, n + 1):
                assert periodic_out.coeff((beta,)) == finite_out.coeff((beta,))


class TestShiftMatrix:
    def test_difference_matrix_spreads_delta(self):
        r = PolyMatrix([[P("X - X^-1")]])
        out = shift_matrix(r, SeqVector([FiniteSeq.delta(1, Q, (0,))]))
        assert dict(out[0].terms) == {(-1,): Q.value(1), (1,): Q.value(-1)}
        # brute-force the defining sum over a small window
        brute = shift_by_definition(
            r.entry(0, 0), FiniteSeq.delta(1, Q, (0,)), ([-3], [3])
        )
        assert dict(out[0].terms) == brute

    def test_identity_matrix(self):
        w = FiniteSeq(1, Q, {(2,): 3, (-2,): 1})
        out = shift_matrix(PolyMatrix([[P("1")]]), SeqVector([w]))
        assert out[0] == w

    def test_zero_input(self):
        r = PolyMatrix([[P("X + X^-1"), P("1")], [P("0"), P("X^-1 - 1")]])
        zero = SeqVector([FiniteSeq.zero(1, Q), FiniteSeq.zero(1, Q)])
        assert shift_matrix(r, zero).is_zero()

    def test_row_mixing(self):
        r = PolyMatrix([[P("X"), P("2")]])
        w = SeqVector([FiniteSeq.delta(1, Q, (0,)), FiniteSeq.delta(1, Q, (0,))])
        out = shift_matrix(r, w)
        assert dict(out[0].terms) == {(-1,): Q.value(1), (0,): Q.value(2)}

    def test_dimension_checked(self):
        r = PolyMatrix([[P("X"), P("1")]])
        with pytest.raises(DimensionMismatchError):
            shift_matrix(r, SeqVector([FiniteSeq.zero(1, Q)]))


class TestAdjoint:
    def test_monomials_reduce_to_sample_reads(self):
        rng = random.Random(554)
        for _ in range(100):
            a = rng.randint(-4, 4)
            b = rng.randint(-4, 4)
            w = random_finite_seq(rng, 1, Q)
            c = LaurentPoly.monomial(1, Q, (a,))
            d = LaurentPoly.monomial(1, Q, (b,))
            assert scalar_product(c * d, w) == w.coeff((a + b,))
            assert check_adjoint(c, d, w)

    def test_constant_one_side(self):
        rng = random.Random(555)
        for _ in range(50):
            d = random_poly(rng, 1, Q)
            w = random_finite_seq(rng, 1, Q)
            one = LaurentPoly.one(1, Q)
            assert scalar_product(d, w) == shift(d, w).coeff((0,))
            assert check_adjoint(one, d, w)

    @pytest.mark.parametrize("field", ORACLE_FIELDS)
    def test_random_triples(self, field):
        rng = random.Random(556)
        for _ in range(200):
            rank = rng.choice((1, 2, 3))
            c = random_poly(rng, rank, field)
            d = random_poly(rng, rank, field)
            w = random_finite_seq(rng, rank, field)
            c, d, w = widened(rng, field, c, d, w)
            assert check_adjoint(c, d, w)
            wp = random_periodic_seq(rng, rank, field)
            (wp,) = widened(rng, field, wp)
            assert check_adjoint(c, d, wp)
            if rank == 1:
                assert dict((c * d).terms) == dense_mul(c, d)


class TestDuality:
    def test_monomial_pairing_extracts_samples(self):
        rng = random.Random(557)
        for _ in range(100):
            gamma = (rng.randint(-6, 6),)
            w = random_finite_seq(rng, 1, GF7)
            mono = LaurentPoly.monomial(1, GF7, gamma)
            assert scalar_product(mono, w) == w.coeff(gamma)

    def test_delta_pairing_extracts_coefficients(self):
        rng = random.Random(558)
        for _ in range(100):
            gamma = (rng.randint(-6, 6),)
            d = random_poly(rng, 1, Q)
            delta = FiniteSeq.delta(1, Q, gamma)
            assert scalar_product(d, delta) == d.coeff(gamma)

    def test_injectivity_witness_constructed(self):
        # distinct operators are separated by a delta signal at some
        # exponent where their coefficients differ
        rng = random.Random(559)
        found = 0
        while found < 100:
            rank = rng.choice((1, 2))
            d1 = random_poly(rng, rank, Q)
            d2 = random_poly(rng, rank, Q)
            if d1 == d2:
                continue
            found += 1
            gamma = min((d1 - d2).support())
            delta = FiniteSeq.delta(rank, Q, gamma)
            assert scalar_product(d1, delta) != scalar_product(d2, delta)


class TestModuleAction:
    @pytest.mark.parametrize("field", ORACLE_FIELDS)
    def test_composition(self, field):
        rng = random.Random(560)
        for _ in range(100):
            rank = rng.choice((1, 2))
            c = random_poly(rng, rank, field)
            d = random_poly(rng, rank, field)
            w = random_finite_seq(rng, rank, field)
            c, d, w = widened(rng, field, c, d, w)
            assert shift(c, shift(d, w)) == shift(c * d, w)
            assert dict(shift(d, w).terms) == shift_by_definition(d, w, finite_shift_box(d, w))
            wp = random_periodic_seq(rng, rank, field)
            (wp,) = widened(rng, field, wp)
            assert shift(c, shift(d, wp)) == shift(c * d, wp)
            assert list(shift(d, wp).values) == periodic_by_definition(d, wp)
        # rank 3 with a period of 1, read by a kernel with negative exponents
        d = LaurentPoly(3, field, {(-1, 0, -2): 1, (2, -3, 1): -2, (0, -1, 0): 3})
        wp = PeriodicSeq(3, field, (1, 3, 2), [random_value(rng, field) for _ in range(6)])
        d, wp = widened(rng, field, d, wp)
        assert list(shift(d, wp).values) == periodic_by_definition(d, wp)
        # the empty kernel gives the field's zero payload at every output
        empty = LaurentPoly.zero(3, field)
        assert shift(empty, wp) == PeriodicSeq.zero(3, field, wp.periods)
        assert shift(empty, poly_to_seq(d)).is_zero()
        assert scalar_product(empty, wp) == field.zero
        assert (empty * d).is_zero() and (d * empty).is_zero()

    def test_identity(self):
        rng = random.Random(561)
        one = LaurentPoly.one(2, Q)
        for _ in range(20):
            w = random_finite_seq(rng, 2, Q)
            assert shift(one, w) == w


@given(poly_with_seq())
def test_adjoint_hypothesis(pair):
    d, w = pair
    one = LaurentPoly.one(d.rank, d.field)
    assert check_adjoint(one, d, w)
    assert check_adjoint(d, one, w)
    assert check_adjoint(d, d, w)


def test_support_bound():
    rng = random.Random(562)
    for _ in range(200):
        d = random_poly(rng, 2, GF7)
        w = random_finite_seq(rng, 2, GF7)
        allowed = {
            tuple(i - a for i, a in zip(idx, alpha))
            for idx in w.support()
            for alpha in d.support()
        }
        assert shift(d, w).support() <= allowed
