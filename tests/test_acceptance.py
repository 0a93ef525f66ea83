"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 2 asserts the published smoothing table verbatim on the window
it tabulates, and the shift's own values at the window's edges; see its
docstring for the analysis.
"""

import contextlib
import functools
import json
import random
import time
from fractions import Fraction

import pytest

from oracles import count_periodic_members

from bishift import selftest
from bishift.errors import ParseError
from bishift.fields import FloatField, PrimeField, RationalField
from bishift.io import parse_system
from bishift.laurent import LaurentPoly, PolyMatrix
from bishift.operators import scalar_product, shift
from bishift.parsing import format_poly, parse_poly
from bishift.selftest import (
    random_finite_seq,
    random_periodic_seq,
    random_poly,
)
from bishift.sequences import FiniteSeq, poly_to_seq, seq_to_poly
from bishift.systems import (
    System,
    enumerate_periodic_vectors,
    kernel_dimension,
    periodic_kernel_basis,
)

SEED = 20260811

Q = RationalField()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF7 = PrimeField(7)


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL  {description}")
        raise
    else:
        print(f"[criterion {num}] PASS  {description}")


def test_criterion_1_pairing_golden_values():
    with criterion(1, "pairing golden values 11 and 3, exact"):
        start = time.perf_counter()
        d = parse_poly("X^-1 + 2*X^2", 1, Q)
        w = FiniteSeq(1, Q, {(-1,): 3, (2,): 4})
        assert scalar_product(d, w) == Q.value(11)
        d2 = parse_poly("X^-1 + X", 1, Q)
        w2 = FiniteSeq(1, Q, {(-1,): 1, (1,): 2})
        assert scalar_product(d2, w2) == Q.value(3)
        assert time.perf_counter() - start < 1.0


# the published case-study table: input and output rows over its window
TABLE_WINDOW = range(-2, 3)
TABLE_INPUT = (0, 1, 2, 3, 0)
TABLE_OUTPUT = (0, 1, 2, 1, 0)
# what the shift gives where the kernel's stencil leaves the window
TABLE_EDGES = {-2: Fraction(1, 2), 2: Fraction(3, 2)}


def _check_smoothing_table(field, kernel_text, close):
    w = FiniteSeq(1, field, {(k,): v for k, v in zip(TABLE_WINDOW, TABLE_INPUT)})
    got_in = [w.coeff((k,)).payload for k in TABLE_WINDOW]
    assert all(map(close, got_in, TABLE_INPUT)), got_in

    kernel = parse_poly(kernel_text, 1, field)
    out = shift(kernel, w)

    # the table's reading: the shift's sample where its stencil
    # k + supp(kernel), the input samples its defining sum reads, lies in
    # the window, and 0 where the stencil leaves it
    inside = [
        all(k + alpha[0] in TABLE_WINDOW for alpha in kernel.support())
        for k in TABLE_WINDOW
    ]
    reading = [
        out.coeff((k,)).payload if ok else 0 for k, ok in zip(TABLE_WINDOW, inside)
    ]
    assert all(map(close, reading, TABLE_OUTPUT)), reading

    # where the stencil leaves the window the shift is not zero: it is the
    # pairing <X^k * d, W> that the adjoint identity forces
    edges = [k for k, ok in zip(TABLE_WINDOW, inside) if not ok]
    assert edges == sorted(TABLE_EDGES)
    for k in edges:
        sample = out.coeff((k,))
        assert not field.is_zero(sample)
        pairing = scalar_product(LaurentPoly.monomial(1, field, (k,)) * kernel, w)
        assert close(sample.payload, pairing.payload)
        assert close(sample.payload, TABLE_EDGES[k])


def test_criterion_2_smoothing_table_reproduction():
    """Golden smoothing table: input row (0,1,2,3,0) on the window
    k = -2..2, kernel (1/2)X^-1 + (1/2)X, published output row
    (0,1,2,1,0).

    The row is the shift read on the window: a sample is reported where
    its stencil k + {-1, 1} lies inside -2..2, and 0 where it leaves the
    window, which happens at exactly k = -2 and k = 2.  The sources do
    not say which truncation the table used; another reading, reporting
    only the input's support {-1, 0, 1}, gives the same row on this
    input.  The stencil reading is the one chosen because the table
    tabulates the whole window -2..2, zero inputs included.

    The edge zeros are not values of the doubly-infinite shift.  Its
    defining sum gives 1/2 at k = -2 and 3/2 at k = 2: pairing the input
    against X^-2 * kernel and X^2 * kernel (criterion 3 makes those
    pairings equal the output samples) gives (1/2) * W_-1 = 1/2 and
    (1/2) * W_1 = 3/2.  No shift semantics can give both zero edges and
    the adjoint identity, so the edges are asserted at those values
    here; the whole output is also pinned in
    test_operators.py::TestShiftFinite::test_smoothing_window_interior_and_edges.
    """
    with criterion(2, "smoothing table row (0,1,2,1,0) on its window, exact and float"):
        start = time.perf_counter()
        _check_smoothing_table(Q, "1/2*X^-1 + 1/2*X", lambda a, b: a == b)
        _check_smoothing_table(
            FloatField(), "0.5*X^-1 + 0.5*X", lambda a, b: abs(a - b) <= 1e-9
        )
        assert time.perf_counter() - start < 1.0


SHIFT_LAW_CONFIGS = [
    (field, rank, kind)
    for field in (GF7, Q)
    for rank in (1, 2, 3)
    for kind in ("finite", "periodic")
]


@functools.cache
def _shift_laws(field, rank, kind):
    """One run of the adjoint and module-action suites, which share each drawn
    instance, and its wall time; criteria 3 and 4 read its two entries."""
    start = time.perf_counter()
    results = selftest.shift_law_suites(field, rank, kind, 1000, SEED)
    return results, time.perf_counter() - start


def _check_shift_law(law, name):
    """Seconds the 12 configurations took to run, whichever criterion ran them."""
    assert len(SHIFT_LAW_CONFIGS) == 12
    seconds = 0.0
    for field, rank, kind in SHIFT_LAW_CONFIGS:
        results, took = _shift_laws(field, rank, kind)
        result = results[law]
        assert result.name.startswith(f"{name}[")
        assert result.trials == 1000
        assert result.failures == 0, result
        seconds += took
    return seconds


def test_criterion_3_adjoint_identity_suites():
    with criterion(3, "adjoint identity, 1000 trials x 12 configurations"):
        assert _check_shift_law(0, "adjoint") < 30.0


def test_criterion_4_module_action_suites():
    with criterion(4, "shift composition and identity, same trial regime"):
        _check_shift_law(1, "module-action")


def test_criterion_5_extraction_identities():
    with criterion(5, "pairing extracts samples and coefficients, 500 cases each"):
        for field in (GF7, Q):
            rng = random.Random(SEED)
            for _ in range(500):
                rank = rng.choice((1, 2, 3))
                gamma = tuple(rng.randint(-4, 4) for _ in range(rank))
                if rng.random() < 0.5:
                    w = random_finite_seq(rng, rank, field)
                else:
                    w = random_periodic_seq(rng, rank, field)
                mono = LaurentPoly.monomial(rank, field, gamma)
                assert scalar_product(mono, w) == w.coeff(gamma)
            for _ in range(500):
                rank = rng.choice((1, 2, 3))
                gamma = tuple(rng.randint(-4, 4) for _ in range(rank))
                d = random_poly(rng, rank, field)
                delta = FiniteSeq.delta(rank, field, gamma)
                assert scalar_product(d, delta) == d.coeff(gamma)


def _random_system(rng, field):
    k = rng.randint(1, 2)
    l = rng.randint(1, 2)
    grid = [
        [random_poly(rng, 1, field, max_terms=3, span=2) for _ in range(l)]
        for _ in range(k)
    ]
    return System(PolyMatrix(grid))


def test_criterion_6_kernel_solver_vs_brute_force():
    with criterion(6, "kernel dimensions match exhaustive member counts"):
        start = time.perf_counter()
        difference = System(PolyMatrix([[parse_poly("X - X^-1", 1, GF2)]]))
        for periods, candidates in (((2,), 4), ((4,), 16)):
            assert kernel_dimension(difference, periods) == 2
            members = [
                w
                for w in enumerate_periodic_vectors(difference, periods)
                if difference.contains(w)
            ]
            assert len(members) == 4 == 2**2
            assert candidates == GF2.p ** (periods[0])

        rng = random.Random(SEED)
        checked = 0
        while checked < 50:
            field = rng.choice((GF2, GF3))
            system = _random_system(rng, field)
            n = rng.randint(1, 8)
            # cap the exhaustive scan so the whole criterion stays in budget
            if field.p ** (system.l * n) > 20000:
                continue
            dim = kernel_dimension(system, (n,))
            assert count_periodic_members(system, (n,)) == field.p**dim
            checked += 1
        assert time.perf_counter() - start < 60.0


def test_criterion_7_two_variable_system():
    with criterion(7, "two-component system: dimension 3 on the period-4 lattice"):
        system = parse_system(
            json.dumps(
                {
                    "rank": 1,
                    "field": "gf:3",
                    "k": 2,
                    "l": 2,
                    "entries": [["X + X^-1", "1"], ["0", "X^-1 - 1"]],
                }
            )
        )
        members = count_periodic_members(system, (4,))
        assert members == 3**3
        result = periodic_kernel_basis(system, (4,))
        assert result.dimension == 3
        # the second constraint row forces a constant second component
        for vec in result.basis:
            values = [v.payload for v in vec[1].values]
            assert len(set(values)) == 1
            assert system.contains(vec)


def _random_junk(rng):
    n = rng.randint(0, 256)
    if rng.random() < 0.5:
        return rng.randbytes(n).decode("latin-1")
    alphabet = "X0123456789+-*/^. \tqé"
    return "".join(rng.choice(alphabet) for _ in range(n))


def test_criterion_8_parser_round_trip_and_fuzz():
    with criterion(8, "format/parse round trips plus 10000-input fuzz"):
        for field in (Q, GF2, GF7):
            rng = random.Random(SEED)
            for _ in range(500):
                rank = rng.choice((1, 2, 3))
                d = random_poly(rng, rank, field)
                assert parse_poly(format_poly(d), rank, field) == d
        rng = random.Random(SEED + 1)
        fields = (Q, GF7, FloatField())
        for _ in range(10000):
            text = _random_junk(rng)
            try:
                parse_poly(text, rng.choice((1, 2)), rng.choice(fields))
            except ParseError:
                pass


def test_criterion_9_signal_polynomial_isomorphism():
    with criterion(9, "polynomial/signal conversions are mutually inverse"):
        for field in (Q, GF7):
            rng = random.Random(SEED)
            for _ in range(500):
                rank = rng.choice((1, 2, 3))
                d = random_poly(rng, rank, field)
                assert seq_to_poly(poly_to_seq(d)) == d
                w = random_finite_seq(rng, rank, field)
                assert poly_to_seq(seq_to_poly(w)) == w
