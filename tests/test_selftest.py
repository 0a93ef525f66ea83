import random
from fractions import Fraction

import pytest

import bishift.operators
from bishift.errors import FloatFieldUnsupportedError
from bishift.fields import FloatField, PrimeField, RationalField
from bishift.laurent import LaurentPoly
from bishift.selftest import (
    adjoint_suite,
    bilinearity_suite,
    extraction_suite,
    module_action_suite,
    random_finite_seq,
    random_periodic_seq,
    random_poly,
    random_value,
    run_all,
    support_bound_suite,
)
from bishift.sequences import FiniteSeq, PeriodicSeq

GF7 = PrimeField(7)
Q = RationalField()


@pytest.mark.parametrize("field", [GF7, Q])
@pytest.mark.parametrize("kind", ["finite", "periodic"])
def test_adjoint_suite_passes(field, kind):
    result = adjoint_suite(field, 2, kind, 100, seed=11)
    assert result.passed
    assert result.trials == 100
    assert result.example is None


class PublicDraws:
    """The selftest draws made with randint, FieldValue boxing and public constructors."""

    def __init__(self, rng, field):
        self.rng, self.field = rng, field

    def value(self, nonzero=False):
        rng, field = self.rng, self.field
        if isinstance(field, PrimeField):
            return field.value(rng.randint(1 if nonzero else 0, field.p - 1))
        while True:
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if v or not nonzero:
                return field.value(v)

    def terms(self, rank):
        terms = {}
        for _ in range(self.rng.randint(0, 6)):
            terms[tuple(self.rng.randint(-4, 4) for _ in range(rank))] = self.value()
        return terms

    def periodic(self, rank):
        while True:
            periods = tuple(self.rng.randint(1, 4) for _ in range(rank))
            size = 1
            for n in periods:
                size *= n
            if size <= 24:
                break
        return PeriodicSeq(rank, self.field, periods, [self.value() for _ in range(size)])


@pytest.mark.parametrize("field", [Q, GF7, PrimeField(2147483659)])
def test_draws_match_public_constructors(field):
    fast, slow = random.Random(23), random.Random(23)
    public = PublicDraws(slow, field)
    for trial in range(300):
        rank = trial % 3 + 1
        pairs = [
            (random_poly(fast, rank, field), LaurentPoly(rank, field, public.terms(rank))),
            (random_finite_seq(fast, rank, field), FiniteSeq(rank, field, public.terms(rank))),
        ]
        for got, want in pairs:
            assert got == want
            assert list(got.terms) == list(want.terms)  # same term order
        assert random_periodic_seq(fast, rank, field) == public.periodic(rank)
        assert random_value(fast, field, nonzero=True) == public.value(nonzero=True)
    assert fast.getstate() == slow.getstate()


def test_all_suites_pass_small():
    results = run_all(GF7, 30, seed=12)
    assert len(results) == 21
    assert all(r.passed for r in results)


def test_suites_are_deterministic():
    a = adjoint_suite(GF7, 1, "finite", 50, seed=13)
    b = adjoint_suite(GF7, 1, "finite", 50, seed=13)
    assert (a.trials, a.failures, a.example) == (b.trials, b.failures, b.example)


def test_float_field_rejected():
    with pytest.raises(FloatFieldUnsupportedError):
        adjoint_suite(FloatField(), 1, "finite", 5)


def test_zero_trials_vacuous():
    result = module_action_suite(Q, 1, "finite", 0)
    assert result.passed and result.trials == 0


def test_corrupted_shift_is_caught(monkeypatch):
    # mutation check: a convolution-flavoured shift (index a - b instead
    # of a + b) must make the adjoint law fail
    real_shift = bishift.operators.shift

    def flipped(d, w):
        if isinstance(w, FiniteSeq):
            field = d.field
            acc = {}
            for alpha, da in d.terms.items():
                for idx, wv in w.terms.items():
                    beta = tuple(x + y for x, y in zip(idx, alpha))
                    p = field.mul(da, wv)
                    cur = acc.get(beta)
                    acc[beta] = p if cur is None else field.add(cur, p)
            return FiniteSeq(w.rank, field, acc)
        return real_shift(d, w)

    monkeypatch.setattr(bishift.operators, "shift", flipped)
    result = adjoint_suite(GF7, 1, "finite", 200, seed=14)
    assert not result.passed
    assert result.example is not None
    assert "seed=14" in result.example


def test_other_suites_pass():
    assert extraction_suite(Q, 2, 100, seed=15).passed
    assert bilinearity_suite(GF7, 1, 100, seed=16).passed
    assert support_bound_suite(Q, 3, 100, seed=17).passed
