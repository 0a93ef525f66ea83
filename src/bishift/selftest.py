"""Seeded randomized checks of the algebraic laws.

Each suite draws its instances from an explicit ``random.Random``
generator, so a failure is reproducible from the seed alone.  The laws:

* adjoint: <c * d, W> = <c, d o W>;
* module action: applying d then c equals applying c * d, and the
  constant 1 acts as the identity;
* extraction: pairing with a monomial reads the sample at its exponent,
  and pairing against a delta reads the matching coefficient;
* bilinearity in each pairing argument;
* the finite-support bound on shifted signals.

The suites require exact fields; float arithmetic would need loose
tolerances that defeat the point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import operators
from .errors import FloatFieldUnsupportedError
from .fields import Field, PrimeField, RationalField
from .laurent import LaurentPoly
from .parsing import format_poly
from .sequences import FiniteSeq, PeriodicSeq

DEFAULT_SEED = 42

_RANKS = (1, 2, 3)
_KINDS = ("finite", "periodic")


def random_value(rng: random.Random, field: Field, nonzero: bool = False):
    if isinstance(field, PrimeField):
        lo = 1 if nonzero else 0
        return field.value(rng.randint(lo, field.p - 1))
    if isinstance(field, RationalField):
        while True:
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if v or not nonzero:
                return field.value(v)
    while True:
        v = rng.randint(-8, 8) / 4.0
        if v or not nonzero:
            return field.value(v)


def random_exponent(rng: random.Random, rank: int, span: int = 4):
    return tuple(rng.randint(-span, span) for _ in range(rank))


def random_poly(rng, rank, field, max_terms: int = 6, span: int = 4) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[random_exponent(rng, rank, span)] = random_value(rng, field)
    return LaurentPoly(rank, field, terms)


def random_finite_seq(rng, rank, field, max_terms: int = 6, span: int = 4) -> FiniteSeq:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[random_exponent(rng, rank, span)] = random_value(rng, field)
    return FiniteSeq(rank, field, terms)


def random_periods(rng, rank, max_size: int = 24):
    # keep the fundamental domain small enough for thousand-trial runs
    while True:
        periods = tuple(rng.randint(1, 4) for _ in range(rank))
        size = 1
        for n in periods:
            size *= n
        if size <= max_size:
            return periods


def random_periodic_seq(rng, rank, field) -> PeriodicSeq:
    periods = random_periods(rng, rank)
    size = 1
    for n in periods:
        size *= n
    values = [random_value(rng, field) for _ in range(size)]
    return PeriodicSeq(rank, field, periods, values)


def random_signal(rng, rank, field, kind: str):
    if kind == "finite":
        return random_finite_seq(rng, rank, field)
    if kind == "periodic":
        return random_periodic_seq(rng, rank, field)
    raise ValueError(f"unknown signal kind {kind!r}")


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    example: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _describe(seed, trial, parts):
    bits = [f"seed={seed}", f"trial={trial}"]
    for key, value in parts.items():
        if isinstance(value, LaurentPoly):
            bits.append(f"{key}={format_poly(value)!r}")
        else:
            bits.append(f"{key}={value!r}")
    return ", ".join(bits)


def _run(name, seed, trials, draw, check):
    rng = random.Random(seed)
    failures = 0
    example = None
    for trial in range(trials):
        instance = draw(rng)
        if not check(**instance):
            failures += 1
            if example is None:
                example = _describe(seed, trial, instance)
    return SuiteResult(name=name, trials=trials, failures=failures, example=example)


def _require_exact(field):
    if not field.is_exact:
        raise FloatFieldUnsupportedError("law suites run on exact fields only")


def adjoint_suite(field, rank, kind, trials, seed=DEFAULT_SEED) -> SuiteResult:
    """<c * d, W> = <c, d o W> on random triples."""
    _require_exact(field)

    def draw(rng):
        return {
            "c": random_poly(rng, rank, field),
            "d": random_poly(rng, rank, field),
            "w": random_signal(rng, rank, field, kind),
        }

    def check(c, d, w):
        return operators.check_adjoint(c, d, w)

    return _run(f"adjoint[{field.spec()},r={rank},{kind}]", seed, trials, draw, check)


def module_action_suite(field, rank, kind, trials, seed=DEFAULT_SEED) -> SuiteResult:
    """Composition law for the shift action, plus identity of the constant 1."""
    _require_exact(field)
    one = LaurentPoly.one(rank, field)

    def draw(rng):
        return {
            "c": random_poly(rng, rank, field),
            "d": random_poly(rng, rank, field),
            "w": random_signal(rng, rank, field, kind),
        }

    def check(c, d, w):
        composed = operators.shift(c, operators.shift(d, w))
        direct = operators.shift(c * d, w)
        return composed == direct and operators.shift(one, w) == w

    return _run(
        f"module-action[{field.spec()},r={rank},{kind}]", seed, trials, draw, check
    )


def extraction_suite(field, rank, trials, seed=DEFAULT_SEED) -> SuiteResult:
    """Monomial pairing reads samples; delta pairing reads coefficients."""
    _require_exact(field)

    def draw(rng):
        return {
            "gamma": random_exponent(rng, rank),
            "d": random_poly(rng, rank, field),
            "w": random_signal(rng, rank, field, rng.choice(_KINDS)),
        }

    def check(gamma, d, w):
        mono = LaurentPoly.monomial(rank, field, gamma)
        ok_sample = field.eq(operators.scalar_product(mono, w), w.coeff(gamma))
        delta = FiniteSeq.delta(rank, field, gamma)
        ok_coeff = field.eq(operators.scalar_product(d, delta), d.coeff(gamma))
        return ok_sample and ok_coeff

    return _run(f"extraction[{field.spec()},r={rank}]", seed, trials, draw, check)


def bilinearity_suite(field, rank, trials, seed=DEFAULT_SEED) -> SuiteResult:
    """Linearity of the pairing in each argument separately."""
    _require_exact(field)

    def draw(rng):
        kind = rng.choice(_KINDS)
        w1 = random_signal(rng, rank, field, kind)
        if kind == "periodic":
            w2 = PeriodicSeq(
                rank, field, w1.periods,
                [random_value(rng, field) for _ in w1.domain()],
            )
        else:
            w2 = random_finite_seq(rng, rank, field)
        return {
            "c": random_poly(rng, rank, field),
            "d": random_poly(rng, rank, field),
            "a": random_value(rng, field),
            "w1": w1,
            "w2": w2,
        }

    def check(c, d, a, w1, w2):
        pair = operators.scalar_product
        left_ok = field.eq(
            pair(c * a + d, w1),
            field.add(field.mul(a, pair(c, w1)), pair(d, w1)),
        )
        right_ok = field.eq(
            pair(c, w1 * a + w2),
            field.add(field.mul(a, pair(c, w1)), pair(c, w2)),
        )
        return left_ok and right_ok

    return _run(f"bilinearity[{field.spec()},r={rank}]", seed, trials, draw, check)


def support_bound_suite(field, rank, trials, seed=DEFAULT_SEED) -> SuiteResult:
    """supp(d o W) fits inside the Minkowski difference supp(W) - supp(d)."""
    _require_exact(field)

    def draw(rng):
        return {
            "d": random_poly(rng, rank, field),
            "w": random_finite_seq(rng, rank, field),
        }

    def check(d, w):
        allowed = {
            tuple(i - a for i, a in zip(idx, alpha))
            for idx in w.support()
            for alpha in d.support()
        }
        return operators.shift(d, w).support() <= allowed

    return _run(f"support-bound[{field.spec()},r={rank}]", seed, trials, draw, check)


def run_all(field, trials, seed=DEFAULT_SEED):
    """Every suite over ranks 1..3 and both signal representations."""
    results = []
    for rank in _RANKS:
        for kind in _KINDS:
            results.append(adjoint_suite(field, rank, kind, trials, seed))
            results.append(module_action_suite(field, rank, kind, trials, seed))
        results.append(extraction_suite(field, rank, trials, seed))
        results.append(bilinearity_suite(field, rank, trials, seed))
        results.append(support_bound_suite(field, rank, trials, seed))
    return results
