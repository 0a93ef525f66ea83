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

import math
import random
from fractions import Fraction
from functools import cache, partial
from itertools import islice, repeat
from operator import add, gt, itemgetter, mul, sub, truediv

from . import operators
from .errors import FloatFieldUnsupportedError
from .fields import Field, FieldValue, PrimeField, RationalField
from .laurent import LaurentPoly
from .sequences import FiniteSeq, PeriodicSeq

DEFAULT_SEED = 42

_RANKS = (1, 2, 3)
_KINDS = ("finite", "periodic")


# Every draw reads a random.Random's getrandbits through C-level iterators.
# below(n) keeps the getrandbits(n.bit_length()) candidates under n, which
# is how random's _randbelow(n) draws, and randrange(a, b) returns
# a + _randbelow(b - a) and choice(seq) returns seq[_randbelow(len(seq))].
# An iterator pulls a candidate only when asked for a value, so the stream,
# and every printed failure example, is the one those wrappers draw.


def _below(rng: random.Random):
    """``below(n)``: an endless iterator of draws from range(n), read from ``rng.getrandbits``."""
    getrandbits = rng.getrandbits

    def below(n):
        return filter(partial(gt, n), map(getrandbits, repeat(n.bit_length())))

    return below


def _tuples(below, rank, lo, hi):
    """Endless tuples of ``rank`` entries, each drawn from lo..hi."""
    return zip(*repeat(map(add, below(hi - lo + 1), repeat(lo)), rank))


@cache
def _fractions():
    """Fraction(n, d) for n in -9..9 and d in 1..9; built on first use, not at import."""
    return tuple([Fraction(n, d) for n in range(-9, 10) for d in range(1, 10)])


def _payloads(below, field: Field):
    """Endless iterators of ``field`` payloads: any payload, and nonzero ones.

    They draw what ``randrange(0 or 1, p)``, ``Fraction(randrange(-9, 10),
    randrange(1, 10))`` or ``randrange(-8, 9) / 4.0`` draws; a nonzero
    rational or float draw skips each zero.
    """
    if isinstance(field, PrimeField):
        p = field.p
        return below(p), map(add, below(p - 1), repeat(1))
    if isinstance(field, RationalField):
        values = map(_fractions().__getitem__, map(add, map(mul, below(19), repeat(9)), below(9)))
    else:
        values = map(truediv, map(sub, below(17), repeat(8)), repeat(4.0))
    return values, filter(None, values)


def _fitting(periods, max_size):
    """The first of the ``periods`` tuples whose product is at most ``max_size``."""
    if max_size < 1:
        raise ValueError(f"no periods have a product of at most {max_size}")
    return next(t for t in periods if math.prod(t) <= max_size)


class _Draws:
    """Lazy draws of ``field`` objects at ``rank`` from one generator's getrandbits.

    A suite run builds one and draws every instance from it; the helpers
    below build a one-off source per call.
    """

    __slots__ = ("rank", "field", "values", "nonzero", "exponents", "_items", "_counts",
                 "_kinds", "_periods")

    def __init__(self, rng: random.Random, field: Field, rank: int, max_terms=6, span=4):
        below = _below(rng)
        self.rank, self.field = rank, field
        self.values, self.nonzero = _payloads(below, field)
        self.exponents = _tuples(below, rank, -span, span)
        # (index, payload) items; a term draws its payload, then its index,
        # as an assignment evaluates its right-hand side before its target
        self._items = map(itemgetter(1, 0), zip(self.values, self.exponents))
        self._counts = below(max_terms + 1)
        self._kinds = below(len(_KINDS))
        self._periods = _tuples(below, rank, 1, 4)

    def terms(self):
        """A canonical payload map: later draws at a repeated index overwrite."""
        terms = dict(islice(self._items, next(self._counts)))
        is_zero = self.field._is_zero
        return {k: v for k, v in terms.items() if not is_zero(v)}

    def value(self, nonzero=False) -> FieldValue:
        return FieldValue(self.field, next(self.nonzero if nonzero else self.values))

    def kind(self) -> str:
        return _KINDS[next(self._kinds)]

    def poly(self) -> LaurentPoly:
        return LaurentPoly._wrap(self.rank, self.field, self.terms())

    def finite(self) -> FiniteSeq:
        return FiniteSeq._wrap(self.rank, self.field, self.terms())

    def samples(self, periods) -> PeriodicSeq:
        values = tuple(islice(self.values, math.prod(periods)))
        return PeriodicSeq._wrap(len(periods), self.field, periods, values)

    def signal(self, kind: str):
        if kind == "finite":
            return self.finite()
        if kind == "periodic":
            # keep the fundamental domain small enough for thousand-trial runs
            return self.samples(_fitting(self._periods, 24))
        raise ValueError(f"unknown signal kind {kind!r}")


# The public helpers each read ``rng.getrandbits`` through a one-off source,
# so calls to them interleave with other draws from ``rng``.


def random_value(rng: random.Random, field: Field, nonzero: bool = False):
    """A ``FieldValue`` drawn from ``rng.getrandbits``, as ``randrange`` would draw it."""
    return _Draws(rng, field, 1).value(nonzero)


def random_exponent(rng: random.Random, rank: int, span: int = 4):
    """An exponent tuple from ``rng.getrandbits``, each entry as ``randrange(-span, span + 1)``."""
    return next(_tuples(_below(rng), rank, -span, span))


def random_poly(rng, rank, field, max_terms: int = 6, span: int = 4) -> LaurentPoly:
    """A polynomial of up to ``max_terms`` terms drawn from ``rng.getrandbits``."""
    return _Draws(rng, field, rank, max_terms, span).poly()


def random_finite_seq(rng, rank, field, max_terms: int = 6, span: int = 4) -> FiniteSeq:
    """A finite signal of up to ``max_terms`` terms drawn from ``rng.getrandbits``."""
    return _Draws(rng, field, rank, max_terms, span).finite()


def random_periods(rng, rank, max_size: int = 24):
    """Periods in 1..4 with a product of at most ``max_size``, drawn from ``rng.getrandbits``.

    Raises ValueError when ``max_size`` is below 1, which no periods fit.
    """
    return _fitting(_tuples(_below(rng), rank, 1, 4), max_size)


def random_periodic_seq(rng, rank, field) -> PeriodicSeq:
    """A periodic signal drawn from ``rng.getrandbits``: its periods, then its samples."""
    return _Draws(rng, field, rank).signal("periodic")


def random_signal(rng, rank, field, kind: str):
    """A ``kind`` signal ("finite" or "periodic") drawn from ``rng.getrandbits``."""
    return _Draws(rng, field, rank).signal(kind)


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


def _run(names, seed, trials, field, rank, draw, check):
    """One result per law in ``names``; ``check`` returns one verdict per law.

    ``draw`` takes each instance from one ``_Draws`` source on ``random.Random(seed)``.
    """
    source = _Draws(random.Random(seed), field, rank)
    failures = [0] * len(names)
    examples = [None] * len(names)
    for trial in range(trials):
        instance = draw(source)
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

    def draw(src):
        return {"c": src.poly(), "d": src.poly(), "w": src.signal(kind)}

    def check(c, d, w):
        shift, pair = operators.shift, operators.scalar_product
        cd, dw = c * d, shift(d, w)
        adjoint = field.eq(pair(cd, w), pair(c, dw))
        action = shift(c, dw) == shift(cd, w) and shift(one, w) == w
        return adjoint, action

    spec = f"{field.spec()},r={rank},{kind}"
    names = [f"adjoint[{spec}]", f"module-action[{spec}]"]
    return _run(names, seed, trials, field, rank, draw, check)


def extraction_suite(field, rank, trials, seed=DEFAULT_SEED) -> SuiteResult:
    """Monomial pairing reads samples; delta pairing reads coefficients."""
    _require_exact(field)

    def draw(src):
        return {"gamma": next(src.exponents), "d": src.poly(), "w": src.signal(src.kind())}

    def check(gamma, d, w):
        mono = LaurentPoly.monomial(rank, field, gamma)
        ok_sample = field.eq(operators.scalar_product(mono, w), w.coeff(gamma))
        delta = FiniteSeq.delta(rank, field, gamma)
        ok_coeff = field.eq(operators.scalar_product(d, delta), d.coeff(gamma))
        return (ok_sample and ok_coeff,)

    names = [f"extraction[{field.spec()},r={rank}]"]
    return _run(names, seed, trials, field, rank, draw, check)[0]


def bilinearity_suite(field, rank, trials, seed=DEFAULT_SEED) -> SuiteResult:
    """Linearity of the pairing in each argument separately."""
    _require_exact(field)

    def draw(src):
        kind = src.kind()
        w1 = src.signal(kind)
        w2 = src.samples(w1.periods) if kind == "periodic" else src.finite()
        return {"c": src.poly(), "d": src.poly(), "a": src.value(), "w1": w1, "w2": w2}

    def check(c, d, a, w1, w2):
        pair = operators.scalar_product
        a_cw1 = field.mul(a, pair(c, w1))
        left_ok = field.eq(pair(c * a + d, w1), field.add(a_cw1, pair(d, w1)))
        right_ok = field.eq(pair(c, w1 * a + w2), field.add(a_cw1, pair(c, w2)))
        return (left_ok and right_ok,)

    names = [f"bilinearity[{field.spec()},r={rank}]"]
    return _run(names, seed, trials, field, rank, draw, check)[0]


def support_bound_suite(field, rank, trials, seed=DEFAULT_SEED) -> SuiteResult:
    """supp(d o W) fits inside the Minkowski difference supp(W) - supp(d)."""
    _require_exact(field)

    def draw(src):
        return {"d": src.poly(), "w": src.finite()}

    def check(d, w):
        allowed = {tuple(map(sub, idx, alpha)) for idx in w.support() for alpha in d.support()}
        return (operators.shift(d, w).support() <= allowed,)

    names = [f"support-bound[{field.spec()},r={rank}]"]
    return _run(names, seed, trials, field, rank, draw, check)[0]


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
