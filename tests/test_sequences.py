import itertools
import random
from fractions import Fraction

import pytest

from bishift._sparse import MAX_RANK
from bishift.errors import (
    DigitLimitError,
    DimensionMismatchError,
    MixedFieldError,
    NonFiniteValueError,
    PeriodMismatchError,
    RankMismatchError,
    RepresentationMismatchError,
)
from bishift.fields import FloatField, PrimeField, RationalField
from bishift.laurent import LaurentPoly
from bishift.selftest import random_finite_seq, random_poly
from bishift.sequences import (
    FiniteSeq,
    KernelBasis,
    PeriodicSeq,
    SeqVector,
    check_periods,
    periodize,
    poly_to_seq,
    rolled_indices,
    row_major_strides,
    seq_to_poly,
)

Q = RationalField()
GF3 = PrimeField(3)


def test_finite_coeff_reads():
    w = FiniteSeq(1, Q, {(-1,): 1, (0,): 2, (1,): 3})
    assert w.coeff((0,)) == Q.value(2)
    assert w.coeff((5,)) == Q.value(0)


def test_periodic_coeff_negative_index():
    w = PeriodicSeq(1, Q, (2,), [1, 0])
    assert w.coeff((-4,)) == Q.value(1)
    assert w.coeff((-1,)) == Q.value(0)
    assert w.coeff((1001,)) == Q.value(0)


def test_monomial_becomes_delta():
    alpha = (3, -2)
    mono = LaurentPoly.monomial(2, Q, alpha)
    assert poly_to_seq(mono) == FiniteSeq.delta(2, Q, alpha)


def test_zero_poly_becomes_empty_seq():
    assert poly_to_seq(LaurentPoly.zero(1, Q)).is_zero()
    assert seq_to_poly(FiniteSeq.zero(1, Q)).is_zero()


def test_round_trips_random():
    rng = random.Random(311)
    for _ in range(200):
        rank = rng.choice((1, 2, 3))
        d = random_poly(rng, rank, Q)
        assert seq_to_poly(poly_to_seq(d)) == d
        w = random_finite_seq(rng, rank, Q)
        assert poly_to_seq(seq_to_poly(w)) == w


def test_finite_addition():
    d0 = FiniteSeq.delta(1, Q, (0,))
    assert d0 + d0 == FiniteSeq(1, Q, {(0,): 2})
    w = FiniteSeq(1, Q, {(1,): 4, (2,): -1})
    assert (w + w * (-1)).is_zero()


def test_periodic_addition():
    a = PeriodicSeq(1, Q, (2,), [1, 5])
    b = PeriodicSeq(1, Q, (2,), [2, -5])
    assert a + b == PeriodicSeq(1, Q, (2,), [3, 0])


def test_periodize_examples():
    assert periodize(FiniteSeq.delta(1, Q, (3,)), (2,)) == PeriodicSeq(1, Q, (2,), [0, 1])
    assert periodize(FiniteSeq.delta(1, Q, (-1,)), (2,)) == PeriodicSeq(1, Q, (2,), [0, 1])
    acc = periodize(FiniteSeq(1, Q, {(0,): 1, (2,): 1}), (2,))
    assert acc == PeriodicSeq(1, Q, (2,), [2, 0])


def test_periodicity_law():
    rng = random.Random(312)
    for _ in range(500):
        rank = rng.choice((1, 2))
        periods = tuple(rng.randint(1, 4) for _ in range(rank))
        size = 1
        for n in periods:
            size *= n
        w = PeriodicSeq(rank, GF3, periods, [rng.randint(0, 2) for _ in range(size)])
        alpha = tuple(rng.randint(-9, 9) for _ in range(rank))
        for axis in range(rank):
            stepped = tuple(
                a + (periods[axis] if i == axis else 0) for i, a in enumerate(alpha)
            )
            assert w.coeff(alpha) == w.coeff(stepped)


def test_folded_index_in_fundamental_domain():
    rng = random.Random(313)
    w = PeriodicSeq(2, Q, (3, 4), list(range(12)))
    for _ in range(300):
        alpha = (rng.randint(-50, 50), rng.randint(-50, 50))
        flat = w.flat_index(alpha)
        assert 0 <= flat < 12


def test_tile_preserves_samples():
    rng = random.Random(314)
    w = PeriodicSeq(1, Q, (3,), [4, 5, 6])
    tiled = w.tile((2,))
    assert tiled.periods == (6,)
    for _ in range(50):
        alpha = (rng.randint(-20, 20),)
        assert tiled.coeff(alpha) == w.coeff(alpha)


def test_bool_periods_rejected():
    with pytest.raises(ValueError):
        PeriodicSeq(1, GF3, (True,), [1])
    with pytest.raises(ValueError):
        PeriodicSeq(2, GF3, (2, False), [])
    with pytest.raises(ValueError):
        PeriodicSeq(1, GF3, (2,), [1, 0]).tile((True,))
    for bad in (("a",), (2.5,)):
        with pytest.raises(ValueError, match=f"periods must be ints >= 1, got {bad[0]!r}"):
            PeriodicSeq.zero(1, PrimeField(7), bad)


def test_bool_rank_rejected():
    # True == 1, but a bool rank would be written as "rank": true
    for build in (
        lambda: PeriodicSeq(True, GF3, (1,), [1]),
        lambda: FiniteSeq(True, GF3, {(0,): 1}),
        lambda: LaurentPoly(True, GF3, {(0,): 1}),
    ):
        with pytest.raises(ValueError, match="rank must be a positive int"):
            build()


def test_rank_above_the_bound_rejected():
    # every reader refuses a document above MAX_RANK, so no container holds one
    periods = (1,) * (MAX_RANK + 1)
    for build in (
        lambda: PeriodicSeq(MAX_RANK + 1, GF3, periods, [1]),
        lambda: FiniteSeq(MAX_RANK + 1, GF3, {(0,) * (MAX_RANK + 1): 1}),
        lambda: LaurentPoly(MAX_RANK + 1, GF3, {}),
        lambda: KernelBasis(MAX_RANK + 1, GF3, periods, ()),
    ):
        with pytest.raises(ValueError, match=f"rank {MAX_RANK + 1} is above the largest supported"):
            build()


def test_kernel_basis_refuses_rows_off_its_lattice():
    # a basis its writer could write but its reader would refuse is refused when built
    gf7 = PrimeField(7)
    on_2 = SeqVector([PeriodicSeq(1, gf7, (2,), [1, 6])])
    for basis, error in (
        ((SeqVector([PeriodicSeq(1, gf7, (3,), [1, 2, 3])]),), PeriodMismatchError),
        ((SeqVector([PeriodicSeq(1, Q, (2,), [1, 6])]),), MixedFieldError),
        ((SeqVector([PeriodicSeq(2, gf7, (2, 1), [1, 6])]),), RankMismatchError),
        ((on_2, SeqVector([*on_2, *on_2])), DimensionMismatchError),
        ((SeqVector([FiniteSeq.delta(1, gf7, (0,))]),), RepresentationMismatchError),
        ((on_2[0],), TypeError),
    ):
        with pytest.raises(error):
            KernelBasis(1, gf7, (2,), basis)
    with pytest.raises(RankMismatchError, match="2 periods given for rank 1"):
        KernelBasis(1, gf7, (1, 1), ())
    assert KernelBasis(1, gf7, [2], [on_2]) == KernelBasis(1, gf7, (2,), (on_2,))


def test_mixed_representation_rejected():
    fin = FiniteSeq.delta(1, Q, (0,))
    per = PeriodicSeq(1, Q, (2,), [1, 0])
    with pytest.raises(RepresentationMismatchError):
        fin + per
    with pytest.raises(RepresentationMismatchError):
        per + fin


def test_period_mismatch_rejected():
    a = PeriodicSeq(1, Q, (2,), [1, 0])
    b = PeriodicSeq(1, Q, (3,), [1, 0, 0])
    with pytest.raises(PeriodMismatchError):
        a + b


def test_rank_and_field_mismatch_rejected():
    with pytest.raises(RankMismatchError):
        FiniteSeq(1, Q, {(0, 0): 1})
    with pytest.raises(MixedFieldError):
        FiniteSeq.delta(1, Q, (0,)) + FiniteSeq.delta(1, GF3, (0,))
    with pytest.raises(RankMismatchError):
        PeriodicSeq(2, Q, (2,), [1, 0])


def test_periodic_signals_of_another_rank_field_or_periods_are_unequal():
    w = PeriodicSeq(1, Q, (2,), [1, 0])
    for other in (
        PeriodicSeq(2, Q, (2, 1), [1, 0]),
        PeriodicSeq(1, GF3, (2,), [1, 0]),
        PeriodicSeq(1, Q, (4,), [1, 0, 1, 0]),
    ):
        assert w != other and other != w
        assert not w == other
    assert w == PeriodicSeq(1, RationalField(), (2,), [1, 0])


def test_periodic_value_count_checked():
    with pytest.raises(ValueError):
        PeriodicSeq(1, Q, (3,), [1, 0])
    with pytest.raises(ValueError):
        PeriodicSeq(1, Q, (0,), [])


def test_seq_vector_validation():
    fin = FiniteSeq.delta(1, Q, (0,))
    per = PeriodicSeq(1, Q, (2,), [1, 0])
    vec = SeqVector([fin, fin])
    assert len(vec) == 2 and vec.kind == "finite"
    assert SeqVector([per]).periods == (2,)
    with pytest.raises(RepresentationMismatchError):
        SeqVector([fin, per])
    with pytest.raises(PeriodMismatchError):
        SeqVector([per, PeriodicSeq(1, Q, (3,), [0, 0, 0])])
    with pytest.raises(MixedFieldError):
        SeqVector([fin, FiniteSeq.delta(1, GF3, (0,))])
    with pytest.raises(ValueError):
        SeqVector([])


def test_row_major_strides():
    assert row_major_strides((3, 4, 5)) == (20, 5, 1)
    assert row_major_strides((7,)) == (1,)
    w = PeriodicSeq(3, Q, (2, 3, 4), list(range(24)))
    strides = row_major_strides(w.periods)
    for flat, alpha in enumerate(w.domain()):
        assert sum(a * s for a, s in zip(alpha, strides)) == flat
        assert w.coeff(alpha) == Q.value(flat)


@pytest.mark.parametrize("seed", [401, 402, 403, 404, 405, 406])
def test_rolled_indices_and_flat_match_the_definition(seed):
    # the storage position of gamma in the fundamental domain is its place in
    # itertools.product order; rolled_indices must give, per alpha, the
    # position of (alpha + beta) mod periods for every beta in that order
    rng = random.Random(seed)
    for rank, n in itertools.product((1, 2, 3), range(1, 7)):
        # every rank with every period on one axis, the other axes drawn
        periods = [rng.randint(1, 6) for _ in range(rank)]
        periods[rng.randrange(rank)] = n
        periods = tuple(periods)
        domain = list(itertools.product(*map(range, periods)))
        position = {gamma: i for i, gamma in enumerate(domain)}

        def flat(alpha):
            return position[tuple(a % n for a, n in zip(alpha, periods))]

        def exponent():
            return tuple(rng.randint(-10**6, 10**6) for _ in range(rank))

        # several exponents share one residue, the others are drawn freely
        shared = exponent()
        alphas = {shared: 1}
        for _ in range(3):
            alphas[tuple(a + rng.randint(-9, 9) * n for a, n in zip(shared, periods))] = 1
        for _ in range(3):
            alphas[exponent()] = 1
        w = PeriodicSeq.zero(rank, GF3, periods)
        want = [[flat(tuple(map(sum, zip(a, b)))) for b in domain] for a in alphas]
        assert rolled_indices(alphas, periods, w._strides) == want
        assert [w._flat(a) for a in alphas] == [flat(a) for a in alphas]
        assert rolled_indices({}, periods, w._strides) == []


def test_check_periods_names_what_it_checks():
    assert check_periods([2, 3], 2, "periods") == (2, 3)
    with pytest.raises(RankMismatchError, match="1 tile factors given for rank 2"):
        check_periods((2,), 2, "tile factors")
    for bad in (0, -1, True, 2.0, "2"):
        with pytest.raises(ValueError, match=f"periods must be ints >= 1, got {bad!r}"):
            check_periods((2, bad), 2, "periods")


def test_stacked_vector_matches_checked_components():
    payloads = (0, 1, 2, 1, 1, 0, 2, 2, 0, 0, 1, 2)
    got = SeqVector._stacked(2, GF3, (2, 3), payloads)
    assert got == SeqVector([
        PeriodicSeq(2, GF3, (2, 3), payloads[:6]),
        PeriodicSeq(2, GF3, (2, 3), payloads[6:]),
    ])
    assert [type(c._values) for c in got] == [tuple, tuple]
    with pytest.raises(ValueError):
        SeqVector._stacked(1, GF3, (2,), ())


def test_reprs_print_non_finite_floats():
    # float arithmetic on signals is unchecked; a repr shows what it made,
    # while format_value, which the writers share, keeps refusing it
    field = FloatField()
    w = FiniteSeq(1, field, {(0,): 1e308, (1,): 1e308}) * 2
    nan = w - w * 1.0
    assert repr(w) == "FiniteSeq(rank=1, field=float:1e-09, terms={(0,): 'inf', (1,): 'inf'})"
    assert repr(nan).endswith("terms={(0,): 'nan', (1,): 'nan'})")
    assert repr(w.coeff((0,))) == "FieldValue(inf, float:1e-09)"
    assert repr(-w.coeff((0,))) == "FieldValue(-inf, float:1e-09)"
    assert repr(w.terms) == (
        "TermsView({(0,): FieldValue(inf, float:1e-09), (1,): FieldValue(inf, float:1e-09)})"
    )
    p = PeriodicSeq(1, field, (2,), [1e308, 0.5]) * 2
    assert repr(p) == "PeriodicSeq(rank=1, field=float:1e-09, periods=(2,), values=['inf', '1.0'])"
    with pytest.raises(NonFiniteValueError):
        field.format_value(w.coeff((0,)))
    # finite values print as before
    assert repr(FiniteSeq(1, field, {(0,): 0.5})).endswith("terms={(0,): '0.5'})")


def test_reprs_print_numbers_past_the_digit_limit():
    # int() writes at most 4300 digits by default; a repr shows a longer number
    # by its digit count, while format_value and the writers keep refusing it
    big = Q.value(Fraction(10**5000, 3))
    assert repr(big) == "FieldValue(<5001 digits>/3, rational)"
    assert repr(-big.inverse()) == "FieldValue(-3/<5001 digits>, rational)"
    w = FiniteSeq(1, Q, {(10**5000,): 1, (-(10**5000),): big})
    assert repr(w) == (
        "FiniteSeq(rank=1, field=rational, "
        "terms={(-<5001 digits>,): '<5001 digits>/3', (<5001 digits>,): '1'})"
    )
    assert repr(w.terms).startswith("TermsView({(<5001 digits>,): FieldValue(1, rational), ")
    assert repr(PeriodicSeq(2, Q, (1, 2), [big, 1])) == (
        "PeriodicSeq(rank=2, field=rational, periods=(1, 2), values=['<5001 digits>/3', '1'])"
    )
    with pytest.raises(DigitLimitError, match="5001 digits"):
        Q.format_value(big)
    # numbers within the limit print as before
    assert repr(FiniteSeq(2, Q, {(1, -2): Fraction(-7, 3)})).endswith("terms={(1, -2): '-7/3'})")
