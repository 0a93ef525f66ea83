import hashlib
import math
import random
from fractions import Fraction

import pytest

import bishift.operators
from bishift import selftest
from bishift.errors import FloatFieldUnsupportedError
from bishift.fields import FieldValue, FloatField, PrimeField, RationalField
from bishift.laurent import LaurentPoly
from bishift.selftest import (
    _KINDS,
    bilinearity_suite,
    extraction_suite,
    random_exponent,
    random_finite_seq,
    random_periodic_seq,
    random_periods,
    random_poly,
    random_value,
    run_all,
    shift_law_suites,
    support_bound_suite,
)
from bishift.sequences import FiniteSeq, PeriodicSeq

GF7 = PrimeField(7)
Q = RationalField()


@pytest.mark.parametrize("field", [GF7, Q])
@pytest.mark.parametrize("kind", ["finite", "periodic"])
def test_adjoint_suite_passes(field, kind):
    adjoint, action = shift_law_suites(field, 2, kind, 100, seed=11)
    assert adjoint.name.startswith("adjoint[") and action.name.startswith("module-action[")
    for result in (adjoint, action):
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


class WrapperDraws:
    """The selftest draws written with randrange and choice, returning raw payload maps."""

    def __init__(self, rng, field):
        self.rng, self.field = rng, field

    def payload(self, nonzero=False):
        rng, field = self.rng, self.field
        if isinstance(field, PrimeField):
            return rng.randrange(1 if nonzero else 0, field.p)
        while True:
            if isinstance(field, RationalField):
                v = Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
            else:
                v = rng.randrange(-8, 9) / 4.0
            if v or not nonzero:
                return v

    def exponent(self, rank, span=4):
        return tuple([self.rng.randrange(-span, span + 1) for _ in range(rank)])

    def terms(self, rank, max_terms=6, span=4):
        terms = {}
        for _ in range(self.rng.randrange(0, max_terms + 1)):
            terms[self.exponent(rank, span)] = self.payload()
        return {k: v for k, v in terms.items() if not self.field._is_zero(v)}

    def samples(self, periods):
        return tuple([self.payload() for _ in range(math.prod(periods))])

    def periods(self, rank, max_size=24):
        while True:
            periods = tuple([self.rng.randrange(1, 5) for _ in range(rank)])
            if math.prod(periods) <= max_size:
                return periods

    def signal(self, rank, kind):
        if kind == "finite":
            return ("finite", self.terms(rank))
        periods = self.periods(rank)
        return ("periodic", periods, self.samples(periods))

    def instance(self, suite, rank, kind):
        """One draw of ``suite``, in the order its ``draw`` makes it."""
        if suite in ("shift_law", "adjoint", "module_action"):
            return {"c": self.terms(rank), "d": self.terms(rank), "w": self.signal(rank, kind)}
        if suite == "extraction":
            gamma, d = self.exponent(rank), self.terms(rank)
            return {"gamma": gamma, "d": d, "w": self.signal(rank, self.rng.choice(_KINDS))}
        if suite == "bilinearity":
            kind = self.rng.choice(_KINDS)
            w1 = self.signal(rank, kind)
            w2 = ("periodic", w1[1], self.samples(w1[1])) if kind == "periodic" else self.signal(rank, kind)
            c, d = self.terms(rank), self.terms(rank)
            return {"c": c, "d": d, "a": self.payload(), "w1": w1, "w2": w2}
        return {"d": self.terms(rank), "w": self.signal(rank, "finite")}


def _raw(x):
    """A drawn object as plain data, with payload types and term order kept."""
    if isinstance(x, PeriodicSeq):
        return ("periodic", x.periods, x._values)
    if isinstance(x, FiniteSeq):
        return ("finite", x._terms)
    if isinstance(x, LaurentPoly):
        return x._terms
    if isinstance(x, FieldValue):
        return x.payload
    return x


def _same(got, want):
    assert repr(got) == repr(want)  # also tells 1 from 1.0 and Fraction(1) from 1
    assert got == want


DRAW_FIELDS = [PrimeField(2), GF7, PrimeField(2**61 - 1), Q, FloatField()]


@pytest.mark.parametrize("field", DRAW_FIELDS, ids=lambda f: f.spec())
@pytest.mark.parametrize("seed", [0, 1, 123, 2**31 - 1])
def test_draw_stream_matches_randrange_and_choice(field, seed):
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    ref = WrapperDraws(want_rng, field)
    for trial in range(60):
        rank = trial % 3 + 1
        _same(random_value(got_rng, field).payload, ref.payload())
        _same(random_value(got_rng, field, nonzero=True).payload, ref.payload(nonzero=True))
        _same(random_exponent(got_rng, rank), ref.exponent(rank))
        _same(random_exponent(got_rng, rank, span=9), ref.exponent(rank, span=9))
        _same(random_poly(got_rng, rank, field)._terms, ref.terms(rank))
        _same(random_poly(got_rng, rank, field, 3, 1)._terms, ref.terms(rank, 3, 1))
        _same(_raw(random_finite_seq(got_rng, rank, field)), ("finite", ref.terms(rank)))
        _same(_raw(random_periodic_seq(got_rng, rank, field)), ref.signal(rank, "periodic"))
        _same(random_periods(got_rng, rank, 6), ref.periods(rank, 6))
        assert got_rng.getstate() == want_rng.getstate()


# Edge draws, each as (helper call, WrapperDraws call) on generators of one seed.
EDGE_DRAWS = {
    # no terms: only the count is drawn
    "max_terms=0": lambda rng, ref, rank, field: (
        random_poly(rng, rank, field, max_terms=0)._terms, ref.terms(rank, max_terms=0)),
    # below(1) rejects every getrandbits(1) candidate of 1, half of them
    "span=0": lambda rng, ref, rank, field: (
        random_poly(rng, rank, field, span=0)._terms, ref.terms(rank, span=0)),
    "exponent span=0": lambda rng, ref, rank, field: (
        random_exponent(rng, rank, span=0), ref.exponent(rank, span=0)),
    "span=10**6": lambda rng, ref, rank, field: (
        _raw(random_finite_seq(rng, rank, field, span=10**6)),
        ("finite", ref.terms(rank, span=10**6)),
    ),
    "max_size=1": lambda rng, ref, rank, field: (
        random_periods(rng, rank, max_size=1), ref.periods(rank, max_size=1)),
    "nonzero": lambda rng, ref, rank, field: (
        random_value(rng, field, nonzero=True).payload, ref.payload(nonzero=True)),
    "value": lambda rng, ref, rank, field: (random_value(rng, field).payload, ref.payload()),
}


@pytest.mark.parametrize("case", sorted(EDGE_DRAWS))
@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(2**61 - 1), Q], ids=lambda f: f.spec())
def test_edge_draws_match_randrange_and_choice(field, case):
    # gf:2 draws a nonzero payload from below(1); gf:2^61-1 draws 61 bits,
    # which getrandbits reads as two 32-bit words
    draw = EDGE_DRAWS[case]
    for seed in (0, 9, 2**31 - 1):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        ref = WrapperDraws(want_rng, field)
        for trial in range(40):
            got, want = draw(got_rng, ref, trial % 3 + 1, field)
            _same(got, want)
            assert got_rng.getstate() == want_rng.getstate()


def _helper_draws(field, seed, count):
    """``count`` helper draws on ``random.Random(seed)``, each as one line of text."""
    rng = random.Random(seed)
    for i in range(count):
        rank, step = i % 3 + 1, i % 7
        if step == 0:
            x = random_value(rng, field).payload
        elif step == 1:
            x = random_value(rng, field, nonzero=True).payload
        elif step == 2:
            x = random_exponent(rng, rank, span=i % 5)
        elif step == 3:
            x = random_poly(rng, rank, field)._terms
        elif step == 4:
            x = _raw(random_finite_seq(rng, rank, field, 3, 1))
        elif step == 5:
            x = _raw(random_periodic_seq(rng, rank, field))
        else:
            x = random_periods(rng, rank, 1 + i % 30)
        yield repr(x)


def test_helper_draws_pinned():
    # 2000 draws, 500 per field, hashed as the rng._randbelow draws of
    # earlier versions wrote them; the same on CPython 3.10 to 3.13
    digest = hashlib.sha256()
    for field in (Q, GF7, PrimeField(2**61 - 1), FloatField()):
        for line in _helper_draws(field, 2024, 500):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "ee1f5a4c0987dfeb598b7d776108410a0dd97ab6cd11e3baa68bce4edb336645"


@pytest.mark.parametrize("max_size", [0, -3])
def test_periods_need_a_positive_size(max_size):
    # no tuple of periods has a product below 1: refused before any draw
    rng = random.Random(4)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"at most {max_size}"):
        random_periods(rng, 2, max_size)
    assert rng.getstate() == state


@pytest.mark.parametrize("field", [GF7, Q], ids=lambda f: f.spec())
@pytest.mark.parametrize(
    "suite", ["shift_law", "extraction", "bilinearity", "support_bound"]
)
def test_suite_draws_match_randrange_and_choice(monkeypatch, field, suite):
    # each suite's draw, the choice sites included, gives the instances and
    # leaves the generator state that the wrapper calls give, so a printed
    # failure example names the same instance
    draws = []
    monkeypatch.setattr(
        selftest, "_run",
        lambda names, seed, trials, field, rank, draw, check: (
            draws.append(draw) or [None] * len(names)
        ),
    )
    with_kind = suite == "shift_law"
    run_suite = selftest.shift_law_suites if with_kind else getattr(selftest, f"{suite}_suite")
    for seed in (5, 77):
        for rank in (1, 2, 3):
            for kind in _KINDS if with_kind else [None]:
                run_suite(field, rank, *([kind] if with_kind else []), 0, seed)
                draw = draws.pop()
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                source, ref = selftest._Draws(got_rng, field, rank), WrapperDraws(want_rng, field)
                for _ in range(25):
                    got = {k: _raw(v) for k, v in draw(source).items()}
                    _same(got, ref.instance(suite, rank, kind))
                    assert got_rng.getstate() == want_rng.getstate()


def _build(field, rank, key, raw):
    """A ``WrapperDraws`` value as the object a suite checks, by its instance key."""
    if key in ("c", "d"):
        return LaurentPoly._wrap(rank, field, raw)
    if key == "a":
        return FieldValue(field, raw)
    if key == "gamma":
        return raw
    if raw[0] == "finite":
        return FiniteSeq._wrap(rank, field, raw[1])
    return PeriodicSeq._wrap(rank, field, raw[1], raw[2])


def _reference_law(suite, field, rank):
    """Each law as its own check, written without shared intermediate values."""
    shift, pair = bishift.operators.shift, bishift.operators.scalar_product
    if suite == "adjoint":
        return bishift.operators.check_adjoint
    if suite == "module_action":
        one = LaurentPoly.one(rank, field)
        return lambda c, d, w: shift(c, shift(d, w)) == shift(c * d, w) and shift(one, w) == w
    if suite == "extraction":
        return lambda gamma, d, w: (
            field.eq(pair(LaurentPoly.monomial(rank, field, gamma), w), w.coeff(gamma))
            and field.eq(pair(d, FiniteSeq.delta(rank, field, gamma)), d.coeff(gamma))
        )
    if suite == "bilinearity":
        def check(c, d, a, w1, w2):
            add, mul = field.add, field.mul
            left = field.eq(pair(c * a + d, w1), add(mul(a, pair(c, w1)), pair(d, w1)))
            right = field.eq(pair(c, w1 * a + w2), add(mul(a, pair(c, w1)), pair(c, w2)))
            return left and right
        return check

    def check(d, w):
        allowed = {
            tuple(i - a for i, a in zip(idx, alpha)) for idx in w.support() for alpha in d.support()
        }
        return shift(d, w).support() <= allowed
    return check


def _reference_suite(suite, field, rank, kind, trials, seed):
    """One law in its own loop over the ``WrapperDraws`` stream.

    Returns (name, trials, failures, example), as ``run_all`` reports it.
    """
    law, ref = _reference_law(suite, field, rank), WrapperDraws(random.Random(seed), field)
    failures, example = 0, None
    for trial in range(trials):
        raw = ref.instance(suite, rank, kind)
        instance = {k: _build(field, rank, k, v) for k, v in raw.items()}
        if not law(**instance):
            failures += 1
            if example is None:
                example = ", ".join([f"seed={seed}", f"trial={trial}"] + [
                    f"{k}={str(v)!r}" if isinstance(v, LaurentPoly) else f"{k}={v!r}"
                    for k, v in instance.items()
                ])
    tag = f"{field.spec()},r={rank}" + (f",{kind}" if kind else "")
    return (f"{suite.replace('_', '-')}[{tag}]", trials, failures, example)


def _inject_faults(monkeypatch):
    """A product of more than 4 terms loses one; a periodic shift by 5 terms moves a sample."""
    real_mul, real_periodic = LaurentPoly.__mul__, bishift.operators._shift_periodic

    def mul(self, other):
        out = real_mul(self, other)
        if isinstance(out, LaurentPoly) and len(out._terms) > 4:
            terms = dict(out._terms)
            terms.popitem()
            out = LaurentPoly._wrap(out.rank, out.field, terms)
        return out

    def shift_periodic(d, w):
        out = real_periodic(d, w)
        if len(d._terms) == 5:  # the first sample moves to the end
            values = out._values[1:] + out._values[:1]
            out = PeriodicSeq._wrap(out.rank, out.field, out.periods, values)
        return out

    monkeypatch.setattr(LaurentPoly, "__mul__", mul)
    monkeypatch.setattr(bishift.operators, "_shift_periodic", shift_periodic)


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("field", [PrimeField(2), GF7, Q], ids=lambda f: f.spec())
def test_run_all_matches_one_loop_per_law(monkeypatch, field, faults):
    # the adjoint and module-action laws share each draw in run_all; every
    # result must still be the one its law gives in a loop of its own
    if faults:
        _inject_faults(monkeypatch)
    failing = set()
    for seed in (3, 58, 2024):
        want = []
        for rank in (1, 2, 3):
            for kind in _KINDS:
                for suite in ("adjoint", "module_action"):
                    want.append(_reference_suite(suite, field, rank, kind, 25, seed))
            for suite in ("extraction", "bilinearity", "support_bound"):
                want.append(_reference_suite(suite, field, rank, None, 25, seed))
        got = [(r.name, r.trials, r.failures, r.example) for r in run_all(field, 25, seed)]
        assert got == want
        failing.update(name.split("[")[0] for name, _, failures, _ in got if failures)
    # under the faults both shift laws fail, so their examples are compared too
    assert failing >= {"adjoint", "module-action"} if faults else not failing


def test_all_suites_pass_small():
    results = run_all(GF7, 30, seed=12)
    assert len(results) == 21
    assert all(r.passed for r in results)


def test_suites_are_deterministic():
    a = shift_law_suites(GF7, 1, "finite", 50, seed=13)
    b = shift_law_suites(GF7, 1, "finite", 50, seed=13)
    assert [(r.trials, r.failures, r.example) for r in a] == [
        (r.trials, r.failures, r.example) for r in b
    ]


def test_float_field_rejected():
    with pytest.raises(FloatFieldUnsupportedError):
        shift_law_suites(FloatField(), 1, "finite", 5)


def test_zero_trials_vacuous():
    for result in shift_law_suites(Q, 1, "finite", 0):
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
    result = shift_law_suites(GF7, 1, "finite", 200, seed=14)[0]
    assert not result.passed
    assert result.example is not None
    assert "seed=14" in result.example


@pytest.mark.parametrize("field", [GF7, Q], ids=lambda f: f.spec())
def test_broken_identity_shift_is_caught(monkeypatch, field):
    # mutation check: a shift by exactly the constant 1 that bumps one
    # sample must make the module-action law fail on every instance
    real_shift = bishift.operators.shift

    def bumped(d, w):
        out = real_shift(d, w)
        if d != LaurentPoly.one(d.rank, d.field):
            return out
        if isinstance(out, FiniteSeq):
            return out + FiniteSeq.delta(out.rank, out.field, (0,) * out.rank)
        values = (out.field._add(out._values[0], out.field.one.payload),) + out._values[1:]
        return PeriodicSeq._wrap(out.rank, out.field, out.periods, values)

    monkeypatch.setattr(bishift.operators, "shift", bumped)
    results = [r for r in run_all(field, 20, seed=19) if r.name.startswith("module-action[")]
    assert len(results) == len(_KINDS) * 3
    for r in results:
        assert r.failures == r.trials == 20, r.name
        assert r.example.startswith("seed=19, trial=0,")


def test_other_suites_pass():
    assert extraction_suite(Q, 2, 100, seed=15).passed
    assert bilinearity_suite(GF7, 1, 100, seed=16).passed
    assert support_bound_suite(Q, 3, 100, seed=17).passed
