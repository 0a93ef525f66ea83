"""Seeded round trips through every writer and its reader.

Each writer's output reads back equal over gf:2, gf:7 and the rationals
(for expressions, see ``test_parsing.py::TestFormatPoly::test_round_trip_seeded``).
Hand-built periodic documents and kernel reports at the lattice's edges
(periods of 1, empty bases, rank MAX_RANK) read back equal too.
At the integer digit limit (``sys.get_int_max_str_digits()``), exponents,
indices and rationals with exactly that many digits read back equal; an
exponent or index with one digit more raises DigitLimitError, and the CSV
writer leaves no file.
"""

import math
import random
from fractions import Fraction

import pytest

from bishift import io as formats
from bishift._sparse import MAX_RANK
from bishift.errors import DigitLimitError
from bishift.fields import PrimeField, RationalField
from bishift.io import format_system, parse_system
from bishift.laurent import LaurentPoly, PolyMatrix, System
from bishift.parsing import format_poly, parse_poly
from bishift.selftest import random_finite_seq, random_periods, random_poly, random_value
from bishift.sequences import FiniteSeq, PeriodicSeq, SeqVector
from bishift.systems import KernelBasis, periodic_kernel_basis

Q = RationalField()
FIELDS = [PrimeField(2), PrimeField(7), Q]


# lattices at the edges the constructors accept: periods of 1, and the largest rank
EDGE_PERIODS = [(1,), (1, 3), (2, 1, 1), (1,) * MAX_RANK]


def vector_on(rng, field, periods, components):
    size = math.prod(periods)
    return SeqVector([
        PeriodicSeq(len(periods), field, periods, [random_value(rng, field) for _ in range(size)])
        for _ in range(components)
    ])


def random_vector(rng, rank, field, components):
    return vector_on(rng, field, random_periods(rng, rank, max_size=12), components)


def random_system(rng, rank, field):
    k, l = rng.randint(1, 2), rng.randint(1, 3)
    return System(PolyMatrix([
        [random_poly(rng, rank, field, max_terms=3, span=2) for _ in range(l)] for _ in range(k)
    ]))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec())
class TestSeededRoundTrips:
    def test_system_text(self, field):
        rng = random.Random(1502)
        for _ in range(50):
            system = random_system(rng, rng.randint(1, 3), field)
            again = parse_system(format_system(system))
            assert again.matrix == system.matrix and again.field == field

    def test_seq_csv(self, tmp_path, field):
        rng = random.Random(1503)
        path = tmp_path / "w.csv"
        for _ in range(50):
            rank = rng.randint(1, 3)
            w = random_finite_seq(rng, rank, field, max_terms=8, span=rng.choice((4, 10**6)))
            formats.write_seq_csv(path, w)
            assert formats.read_seq_csv(path, rank, field) == w

    def test_periodic_document(self, tmp_path, field):
        rng = random.Random(1504)
        path = tmp_path / "w.json"
        for trial in range(50):
            components = 1 if trial % 2 else rng.randint(2, 3)
            vec = random_vector(rng, rng.randint(1, 3), field, components)
            formats.write_periodic_json(path, vec)
            assert formats.read_periodic_json(path, components) == vec
        for periods in EDGE_PERIODS:
            for components in (1, 2, 3):
                vec = vector_on(rng, field, periods, components)
                formats.write_periodic_json(path, vec)
                assert formats.read_periodic_json(path, components) == vec

    def test_kernel_report(self, tmp_path, field):
        rng = random.Random(1505)
        path = tmp_path / "report.json"
        dimensions = set()
        for _ in range(30):
            rank = rng.randint(1, 2)
            system = random_system(rng, rank, field)
            kernel = periodic_kernel_basis(system, random_periods(rng, rank, max_size=12))
            formats.write_kernel_report(kernel, path)
            assert formats.read_kernel_report(path) == kernel
            dimensions.add(kernel.dimension)
        assert 0 in dimensions and len(dimensions) > 2
        # hand-built bases: empty ones too, whatever their lattice
        for periods in EDGE_PERIODS:
            for components in (1, 2, 3):
                for dimension in (0, 1, 2):
                    basis = [vector_on(rng, field, periods, components) for _ in range(dimension)]
                    kernel = KernelBasis(len(periods), field, periods, basis)
                    formats.write_kernel_report(kernel, path)
                    assert formats.read_kernel_report(path) == kernel


class TestAtTheDigitLimit:
    """The largest integers int() reads back are written; one digit more is refused."""

    def test_exponents(self, int_digit_limit):
        top = 10**int_digit_limit - 1
        d = LaurentPoly(2, Q, {(top, -top): 3, (0, 1): Fraction(1, 2)})
        assert parse_poly(format_poly(d), 2, Q) == d
        system = System(PolyMatrix([[d]]))
        assert parse_system(format_system(system)).matrix == system.matrix
        past = LaurentPoly(1, Q, {(-top - 1,): 1})
        for write in (format_poly, lambda p: format_system(System(PolyMatrix([[p]])))):
            with pytest.raises(DigitLimitError, match=f"integer of {int_digit_limit + 1} digits"):
                write(past)

    def test_indices(self, tmp_path, int_digit_limit):
        top = 10**int_digit_limit - 1
        path = tmp_path / "w.csv"
        w = FiniteSeq(2, Q, {(top, -top): 1, (0, 0): 2})
        formats.write_seq_csv(path, w)
        assert formats.read_seq_csv(path, 2, Q) == w
        past = tmp_path / "past.csv"
        with pytest.raises(DigitLimitError, match=f"integer of {int_digit_limit + 1} digits"):
            formats.write_seq_csv(past, FiniteSeq(1, Q, {(top + 1,): 1}))
        assert not past.exists()

    def test_rationals(self, tmp_path, int_digit_limit):
        # one digit more is refused by every writer in test_io.py::TestIntDigitLimit
        top = 10**int_digit_limit - 1
        at = Fraction(-top, top - 1)
        d = LaurentPoly(1, Q, {(1,): at})
        assert parse_poly(format_poly(d), 1, Q) == d
        w = FiniteSeq(1, Q, {(0,): at, (1,): 1})
        vec = SeqVector([PeriodicSeq(1, Q, (2,), [at, 1])])
        kernel = KernelBasis(1, Q, (2,), (vec,))
        path = tmp_path / "doc"
        formats.write_seq_csv(path, w)
        assert formats.read_seq_csv(path, 1, Q) == w
        formats.write_periodic_json(path, vec)
        assert formats.read_periodic_json(path) == vec
        formats.write_kernel_report(kernel, path)
        assert formats.read_kernel_report(path) == kernel
