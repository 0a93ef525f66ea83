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

The adjoint and module-action laws share each instance: one draw of
(c, d, W), one product c * d and one shift d o W serve both checks, and
each law keeps its own result.

The suites require exact fields; float arithmetic would need loose
tolerances that defeat the point.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from operator import sub

from . import operators
from .errors import FloatFieldUnsupportedError
from .fields import Field, FieldValue, PrimeField, RationalField
from .laurent import LaurentPoly
from .sequences import FiniteSeq, PeriodicSeq

DEFAULT_SEED = 42

_RANKS = (1, 2, 3)
_KINDS = ("finite", "periodic")


# Every draw calls rng._randbelow(n) directly: randrange(a, b) returns
# a + _randbelow(b - a) and choice(seq) returns seq[_randbelow(len(seq))],
# so the stream, and every printed failure example, is the one those
# wrappers draw.


@functools.cache
def _payload_drawer(field: Field):
    """``draw(randbelow, nonzero=False)`` for ``field``, chosen once per field.

    It draws what ``randrange(0 or 1, p)``, ``Fraction(randrange(-9, 10),
    randrange(1, 10))`` or ``randrange(-8, 9) / 4.0`` draws, redrawing a
    zero when ``nonzero`` is set.
    """
    if isinstance(field, PrimeField):
        p = field.p

        def draw(randbelow, nonzero=False):
            return 1 + randbelow(p - 1) if nonzero else randbelow(p)

        return draw
    if isinstance(field, RationalField):
        # built here, not at import: Fraction(n, d) for n in -9..9, d in 1..9
        table = [Fraction(n, d) for n in range(-9, 10) for d in range(1, 10)]

        def draw(randbelow, nonzero=False):
            while True:
                v = table[randbelow(19) * 9 + randbelow(9)]
                if not nonzero or v:
                    return v

        return draw

    def draw(randbelow, nonzero=False):
        while True:
            v = (randbelow(17) - 8) / 4.0
            if not nonzero or v:
                return v

    return draw


def random_value(rng: random.Random, field: Field, nonzero: bool = False):
    return FieldValue(field, _payload_drawer(field)(rng._randbelow, nonzero))


def random_exponent(rng: random.Random, rank: int, span: int = 4):
    randbelow, width = rng._randbelow, 2 * span + 1
    return tuple([randbelow(width) - span for _ in range(rank)])


def _random_terms(rng, rank, field, max_terms, span):
    """A canonical payload map: later draws at a repeated index overwrite.

    Each term draws its payload, then its index as ``random_exponent`` does:
    an assignment evaluates its right-hand side before its target.
    """
    randbelow, draw, width = rng._randbelow, _payload_drawer(field), 2 * span + 1
    terms = {}
    for _ in range(randbelow(max_terms + 1)):
        terms[tuple([randbelow(width) - span for _ in range(rank)])] = draw(randbelow)
    is_zero = field._is_zero
    return {k: v for k, v in terms.items() if not is_zero(v)}


def random_poly(rng, rank, field, max_terms: int = 6, span: int = 4) -> LaurentPoly:
    return LaurentPoly._wrap(rank, field, _random_terms(rng, rank, field, max_terms, span))


def random_finite_seq(rng, rank, field, max_terms: int = 6, span: int = 4) -> FiniteSeq:
    return FiniteSeq._wrap(rank, field, _random_terms(rng, rank, field, max_terms, span))


def random_periods(rng, rank, max_size: int = 24):
    # keep the fundamental domain small enough for thousand-trial runs
    randbelow = rng._randbelow
    while True:
        periods = tuple([1 + randbelow(4) for _ in range(rank)])
        if math.prod(periods) <= max_size:
            return periods


def _random_samples(rng, field, periods) -> PeriodicSeq:
    randbelow, draw = rng._randbelow, _payload_drawer(field)
    values = tuple([draw(randbelow) for _ in range(math.prod(periods))])
    return PeriodicSeq._wrap(len(periods), field, periods, values)


def random_periodic_seq(rng, rank, field) -> PeriodicSeq:
    return _random_samples(rng, field, random_periods(rng, rank))


def random_signal(rng, rank, field, kind: str):
    if kind == "finite":
        return random_finite_seq(rng, rank, field)
    if kind == "periodic":
        return random_periodic_seq(rng, rank, field)
    raise ValueError(f"unknown signal kind {kind!r}")


class SuiteResult:
    """One suite's outcome: trials run, failures, and the first failing instance or None."""

    __slots__ = ("name", "trials", "failures", "example")

    def __init__(self, name: str, trials: int, failures: int, example: str | None = None):
        self.name, self.trials, self.failures, self.example = name, trials, failures, example

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _describe(seed, trial, parts):
    bits = [f"seed={seed}", f"trial={trial}"]
    for key, value in parts.items():
        if isinstance(value, LaurentPoly):
            bits.append(f"{key}={str(value)!r}")
        else:
            bits.append(f"{key}={value!r}")
    return ", ".join(bits)


def _run(names, seed, trials, draw, check):
    """One result per law in ``names``; ``check`` returns one verdict per law."""
    rng = random.Random(seed)
    failures = [0] * len(names)
    examples = [None] * len(names)
    for trial in range(trials):
        instance = draw(rng)
        for law, ok in enumerate(check(**instance)):
            if not ok:
                failures[law] += 1
                if examples[law] is None:
                    examples[law] = _describe(seed, trial, instance)
    return [SuiteResult(name, trials, f, e) for name, f, e in zip(names, failures, examples)]


def _require_exact(field):
    if not field.is_exact:
        raise FloatFieldUnsupportedError("law suites run on exact fields only")


def shift_law_suites(field, rank, kind, trials, seed=DEFAULT_SEED):
    """The adjoint and module-action results, in that order, both checked on each (c, d, W)."""
    _require_exact(field)
    one = LaurentPoly.one(rank, field)

    def draw(rng):
        return {
            "c": random_poly(rng, rank, field),
            "d": random_poly(rng, rank, field),
            "w": random_signal(rng, rank, field, kind),
        }

    def check(c, d, w):
        shift, pair = operators.shift, operators.scalar_product
        cd, dw = c * d, shift(d, w)
        adjoint = field.eq(pair(cd, w), pair(c, dw))
        action = shift(c, dw) == shift(cd, w) and shift(one, w) == w
        return adjoint, action

    spec = f"{field.spec()},r={rank},{kind}"
    return _run([f"adjoint[{spec}]", f"module-action[{spec}]"], seed, trials, draw, check)


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
        return (ok_sample and ok_coeff,)

    return _run([f"extraction[{field.spec()},r={rank}]"], seed, trials, draw, check)[0]


def bilinearity_suite(field, rank, trials, seed=DEFAULT_SEED) -> SuiteResult:
    """Linearity of the pairing in each argument separately."""
    _require_exact(field)

    def draw(rng):
        kind = rng.choice(_KINDS)
        w1 = random_signal(rng, rank, field, kind)
        if kind == "periodic":
            w2 = _random_samples(rng, field, w1.periods)
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
        a_cw1 = field.mul(a, pair(c, w1))
        left_ok = field.eq(pair(c * a + d, w1), field.add(a_cw1, pair(d, w1)))
        right_ok = field.eq(pair(c, w1 * a + w2), field.add(a_cw1, pair(c, w2)))
        return (left_ok and right_ok,)

    return _run([f"bilinearity[{field.spec()},r={rank}]"], seed, trials, draw, check)[0]


def support_bound_suite(field, rank, trials, seed=DEFAULT_SEED) -> SuiteResult:
    """supp(d o W) fits inside the Minkowski difference supp(W) - supp(d)."""
    _require_exact(field)

    def draw(rng):
        return {
            "d": random_poly(rng, rank, field),
            "w": random_finite_seq(rng, rank, field),
        }

    def check(d, w):
        allowed = {tuple(map(sub, idx, alpha)) for idx in w.support() for alpha in d.support()}
        return (operators.shift(d, w).support() <= allowed,)

    return _run([f"support-bound[{field.spec()},r={rank}]"], seed, trials, draw, check)[0]


def run_all(field, trials, seed=DEFAULT_SEED):
    """Every suite over ranks 1..3 and both signal representations."""
    results = []
    for rank in _RANKS:
        for kind in _KINDS:
            results.extend(shift_law_suites(field, rank, kind, trials, seed))
        results.append(extraction_suite(field, rank, trials, seed))
        results.append(bilinearity_suite(field, rank, trials, seed))
        results.append(support_bound_suite(field, rank, trials, seed))
    return results
