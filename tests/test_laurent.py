import random

import pytest
from hypothesis import given

from oracles import dense_mul
from strategies import WIDE_Q, poly_triples, wide_rationals

from bishift.errors import MixedFieldError, RaggedMatrixError, RankMismatchError
from bishift.fields import PrimeField, RationalField
from bishift.laurent import LaurentPoly, PolyMatrix
from bishift.parsing import parse_poly

Q = RationalField()
GF2 = PrimeField(2)
GF7 = PrimeField(7)
GF_P31 = PrimeField(2147483659)
GF_M61 = PrimeField(2**61 - 1)


def P(text, rank=1, field=Q):
    return parse_poly(text, rank, field)


def test_add_cancels_terms():
    assert P("X + 1") + P("-1*X") == P("1")


def test_add_characteristic_two():
    a = P("X^-1", field=GF2)
    total = a + a
    assert total.is_zero()
    assert dict(total.terms) == {}


def test_add_builds_two_variable_poly():
    a = P("X1^-1*X2", rank=2)
    b = P("3*X1^2*X2^-2", rank=2)
    assert a + b == P("X1^-1*X2 + 3*X1^2*X2^-2", rank=2)


def test_mul_binomial():
    sq = P("X^-1 + X") * P("X^-1 + X")
    assert sq == P("X^-2 + 2 + X^2")


def test_mul_identity():
    d = P("5*X^-1 - 3*X^2")
    assert d * LaurentPoly.one(1, Q) == d


def test_mul_difference_of_squares_vs_dense_oracle():
    a = P("X - X^-1")
    b = P("X + X^-1")
    product = a * b
    assert product == P("X^2 - X^-2")
    assert dict(product.terms) == dense_mul(a, b)


def test_scale_and_neg():
    d = P("5*X^-1 - 3*X^2")
    assert (d * 0).is_zero()
    assert -d == P("-5*X^-1 + 3*X^2")
    assert (d - d).is_zero()


def test_coeff_reads():
    d = P("5*X^-1 - 3*X^2")
    assert d.coeff((-1,)) == Q.value(5)
    assert d.coeff((2,)) == Q.value(-3)
    assert d.coeff((0,)) == Q.value(0)
    assert LaurentPoly.zero(1, Q).coeff((17,)) == Q.value(0)


def test_coeff_rank_checked():
    d = P("X")
    with pytest.raises(RankMismatchError):
        d.coeff((1, 2))


def test_context_mismatches_rejected():
    with pytest.raises(RankMismatchError):
        P("X") + P("X1", rank=2)
    with pytest.raises(MixedFieldError):
        P("X") + P("X", field=GF7)
    with pytest.raises(MixedFieldError):
        P("X") * P("X", field=GF7)


def test_no_zero_coefficients_stored():
    rng = random.Random(901)
    for _ in range(200):
        terms = {(rng.randint(-4, 4),): rng.randint(-2, 2) for _ in range(5)}
        d = LaurentPoly(1, Q, terms)
        assert all(not v.is_zero() for v in d.terms.values())


@pytest.mark.parametrize(
    "field",
    [
        Q,
        GF7,
        pytest.param(GF_P31, id="gf2147483659"),
        pytest.param(GF_M61, id="gf2305843009213693951"),
        pytest.param(WIDE_Q, id="rational-wide"),
    ],
)
def test_ring_axioms_randomized(field):
    rng = random.Random(902)

    def rand_poly(rank):
        count = rng.randint(0, 6)
        wide = wide_rationals(rng, count) if field is WIDE_Q else None
        terms = {}
        for i in range(count):
            alpha = tuple(rng.randint(-4, 4) for _ in range(rank))
            if wide:
                terms[alpha] = wide[i]
            elif isinstance(field, PrimeField):
                terms[alpha] = rng.randint(0, field.p - 1)
            else:
                terms[alpha] = field.value(rng.randint(-9, 9), rng.randint(1, 9))
        return LaurentPoly(rank, field, terms)

    zero = LaurentPoly.zero(1, field)
    for _ in range(1000):
        rank = rng.choice((1, 2, 3))
        a, b, c = rand_poly(rank), rand_poly(rank), rand_poly(rank)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if rank == 1:
            assert dict((a * b).terms) == dense_mul(a, b)
            assert (a * zero).is_zero() and (zero * a).is_zero()


def test_mul_against_dense_oracle_randomized():
    rng = random.Random(903)
    for _ in range(50):
        rank = rng.choice((1, 2))
        field = rng.choice((Q, GF7))

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                alpha = tuple(rng.randint(-2, 2) for _ in range(rank))
                if isinstance(field, PrimeField):
                    terms[alpha] = rng.randint(0, field.p - 1)
                else:
                    terms[alpha] = field.value(rng.randint(-5, 5))
            return LaurentPoly(rank, field, terms)

        a, b = rand_poly(), rand_poly()
        sparse = dict((a * b).terms)
        dense = dense_mul(a, b)
        assert sparse.keys() == dense.keys()
        assert all(field.eq(sparse[k], dense[k]) for k in sparse)


def test_coeff_is_additive():
    rng = random.Random(904)
    for _ in range(100):
        terms_a = {(rng.randint(-4, 4),): rng.randint(-5, 5) for _ in range(4)}
        terms_b = {(rng.randint(-4, 4),): rng.randint(-5, 5) for _ in range(4)}
        a = LaurentPoly(1, Q, terms_a)
        b = LaurentPoly(1, Q, terms_b)
        total = a + b
        probes = set(a.support()) | set(b.support())
        probes |= {(rng.randint(-9, 9),) for _ in range(5)}
        for alpha in probes:
            assert total.coeff(alpha) == a.coeff(alpha) + b.coeff(alpha)


@given(poly_triples())
def test_ring_axioms_hypothesis(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_matrix_build_two_variable_example():
    m = PolyMatrix([[P("X + X^-1"), P("1")], [P("0"), P("X^-1 - 1")]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.entry(1, 1) == P("X^-1 - 1")


def test_matrix_build_difference_example():
    m = PolyMatrix([[P("X - X^-1")]])
    assert (m.rows, m.cols) == (1, 1)


def test_matrix_zero_entry_is_valid():
    m = PolyMatrix([[LaurentPoly.zero(1, Q)]])
    assert m.entry(0, 0).is_zero()


def test_matrix_rejects_bad_shapes():
    with pytest.raises(RaggedMatrixError):
        PolyMatrix([[P("X"), P("1")], [P("0")]])
    with pytest.raises(RaggedMatrixError):
        PolyMatrix([])
    with pytest.raises(RankMismatchError):
        PolyMatrix([[P("X"), P("X1", rank=2)]])
    with pytest.raises(MixedFieldError):
        PolyMatrix([[P("X"), P("X", field=GF7)]])
