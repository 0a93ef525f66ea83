import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    constraint_matrix,
    count_periodic_members,
    nullspace_boxed,
    rank1_kernel_dimension,
    rref_boxed,
)

from bishift import sequences, systems
from bishift.errors import (
    FloatFieldUnsupportedError,
    LatticeTooLargeError,
    RankMismatchError,
)
from bishift.fields import FieldValue, FloatField, PrimeField, RationalField
from bishift.io import read_system
from bishift.laurent import LaurentPoly, PolyMatrix
from bishift.parsing import parse_poly
from bishift.selftest import random_poly
from bishift.sequences import FiniteSeq, PeriodicSeq, SeqVector
from bishift._univariate import PolyRing
from bishift.systems import (
    MAX_FILL,
    MAX_KERNEL_CELLS,
    MAX_UPDATES,
    ROW_FILL,
    KernelBasis,
    System,
    enumerate_periodic_vectors,
    kernel_dimension,
    periodic_kernel_basis,
    periodic_system_matrix,
    rref,
)

Q = RationalField()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
BIG = PrimeField(2147483659)  # the first prime above 2**31


def sparse_rows(rows, field):
    """FieldValue or raw rows as the solver's rows: dicts of the nonzero payloads."""
    cells = [[v.payload if isinstance(v, FieldValue) else field._normalize(v, None) for v in row]
             for row in rows]
    return [{col: v for col, v in enumerate(row) if v} for row in cells]


def dense(rows, width):
    """Sparse rows as lists of ``width`` payloads."""
    out = [[0] * width for _ in rows]
    for cells, row in zip(out, rows):
        for col, v in row.items():
            cells[col] = v
    return out


def eliminate(matrix, field, width):
    """The kernel's RREF rows of sparse rows, by the loop over GF(p) and multi-modularly over Q."""
    if field == Q:
        return systems._rational_kernel(matrix, width)
    return systems._nullspace(rref(matrix, field.p), width, field.p)


def solve(rows, field, width):
    """The kernel's RREF rows of a matrix of FieldValue or raw rows."""
    return eliminate(sparse_rows(rows, field), field, width)


def oracle_rref(rows, field):
    """systems.rref's contract by the boxed loop: the RREF with the columns reversed.

    Returns {pivot column: row without its pivot entry} in the original
    column order.
    """
    last = len(rows[0]) - 1
    reduced, pivots = rref_boxed([row[::-1] for row in rows], field)
    return {
        last - pc: {last - c: v.payload for c, v in enumerate(row) if c != pc and not v.is_zero()}
        for row, pc in zip(reduced, pivots)
    }


def field_of(p):
    return Q if p is None else PrimeField(p)


def assert_payload_types(values, field):
    """Fractions over Q; Python ints in [0, p) over GF(p), never numpy scalars."""
    for v in values:
        if field == Q:
            assert type(v) is Fraction
        else:
            assert type(v) is int and 0 <= v < field.p


def P(text, rank=1, field=Q):
    return parse_poly(text, rank, field)


def difference_system(field=Q):
    return System(PolyMatrix([[P("X - X^-1", field=field)]]))


def two_variable_system(field=GF3):
    return System(
        PolyMatrix(
            [
                [P("X + X^-1", field=field), P("1", field=field)],
                [P("0", field=field), P("X^-1 - 1", field=field)],
            ]
        )
    )


class TestMembership:
    def test_alternating_trajectory_is_member(self):
        assert difference_system().contains(PeriodicSeq(1, Q, (2,), [1, 0]))

    def test_every_period_two_signal_satisfies_square_shift(self):
        rng = random.Random(41)
        system = System(PolyMatrix([[P("X^2 - 1")]]))
        for _ in range(20):
            w = PeriodicSeq(1, Q, (2,), [rng.randint(-9, 9), rng.randint(-9, 9)])
            assert system.contains(w)

    def test_delta_is_not_member(self):
        assert not difference_system().contains(FiniteSeq.delta(1, Q, (0,)))

    def test_zero_signal_is_always_member(self):
        assert difference_system().contains(FiniteSeq.zero(1, Q))
        assert two_variable_system().contains(
            SeqVector([PeriodicSeq.zero(1, GF3, (4,))] * 2)
        )


class TestConstraintMatrix:
    def test_difference_system_folds_to_zero_matrix(self):
        assert periodic_system_matrix(difference_system(), (2,)) == [{}, {}]

    def test_identity_system(self):
        matrix = periodic_system_matrix(System(PolyMatrix([[P("1")]])), (3,))
        assert matrix == [{0: 1}, {1: 1}, {2: 1}]

    def test_monomial_gives_cyclic_permutation(self):
        matrix = periodic_system_matrix(System(PolyMatrix([[P("X")]])), (3,))
        assert dense(matrix, 3) == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

    def test_monomial_rows_are_permutations(self):
        rng = random.Random(42)
        for _ in range(30):
            e = rng.randint(-5, 5)
            n = rng.randint(1, 6)
            mono = LaurentPoly.monomial(1, Q, (e,))
            matrix = periodic_system_matrix(System(PolyMatrix([[mono]])), (n,))
            assert all(list(row.values()) == [1] for row in matrix)
            assert sorted(col for row in matrix for col in row) == list(range(n))

    def test_matrix_is_additive_in_the_operator(self):
        rng = random.Random(43)
        for _ in range(20):
            a = random_poly(rng, 1, GF3, max_terms=4)
            b = random_poly(rng, 1, GF3, max_terms=4)
            sum_, part_a, part_b = (
                dense(periodic_system_matrix(System(PolyMatrix([[d]])), (4,)), 4) for d in (a + b, a, b)
            )
            assert sum_ == [[(x + y) % 3 for x, y in zip(u, v)] for u, v in zip(part_a, part_b)]

    def test_matches_dense_oracle(self):
        # the oracle's builder shares no code with the sparse one
        rng = random.Random("matrix")
        for field in (GF2, PrimeField(7), Q, BIG):
            for _ in range(10):
                rank, k, l = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
                grid = [[random_poly(rng, rank, field, max_terms=4, span=3) for _ in range(l)]
                        for _ in range(k)]
                system = System(PolyMatrix(grid))
                periods = tuple(rng.randint(1, 4) for _ in range(rank))
                want = sparse_rows(constraint_matrix(system, periods), field)
                assert periodic_system_matrix(system, periods) == want

    def test_period_arity_checked(self):
        with pytest.raises(RankMismatchError):
            periodic_system_matrix(difference_system(), (2, 2))

    def test_boolean_periods_refused(self):
        rank2 = System(PolyMatrix([[P("X1 - X2", rank=2)]]))
        for system, periods in ((difference_system(GF2), (True,)), (rank2, (2, False))):
            for solve in (periodic_system_matrix, kernel_dimension, periodic_kernel_basis):
                with pytest.raises(ValueError, match="periods must be ints"):
                    solve(system, periods)

    @pytest.mark.parametrize("p", [7, 2**31 - 1, 2147483659, pytest.param(None, id="rational")])
    def test_row_payload_types(self, p):
        field = field_of(p)
        system = System(PolyMatrix([[P("3*X - 1/2 + X^-2", field=field), P("X", field=field)]]))
        matrix = periodic_system_matrix(system, (5,))
        assert len(matrix) == 5
        # only nonzero entries are stored, each in the field's own payload type
        assert_payload_types([v for row in matrix for v in row.values()], field)
        assert all(v for row in matrix for v in row.values())
        assert all(0 <= col < 10 for row in matrix for col in row)
        want = {0: field._normalize(Fraction(-1, 2), None), 1: 3, 3: 1, 6: 1}
        assert matrix[0] == want


class TestExactElimination:
    def test_rref_golden(self):
        # mod 7, the columns read right to left: column 0 is in the span of
        # columns 1 and 2, so it is the one non-pivot column
        pivots = rref([{1: 2, 2: 4}, {0: 1, 1: 1, 2: 1}], 7)
        assert pivots == {1: {0: 2}, 2: {0: 6}}
        assert systems._nullspace(pivots, 3, 7) == [[1, 5, 1]]
        assert solve([[0, 2, 4], [1, 1, 1]], Q, 3) == [[1, -2, 1]]

    def test_nullspace_rows_are_reduced(self):
        assert solve([[1, 1]], Q, 2) == [[1, -1]]
        assert solve([[1, 1]], GF3, 2) == [[1, 2]]

    def test_nullspace_solves(self):
        rng = random.Random(44)
        for _ in range(50):
            field = rng.choice((Q, GF3))
            height = rng.randint(1, 4)
            width = rng.randint(1, 5)
            rows = [
                [
                    rng.randint(0, 2) if isinstance(field, PrimeField) else rng.randint(-3, 3)
                    for _ in range(width)
                ]
                for _ in range(height)
            ]
            basis = solve(rows, field, width)
            _, pivots = rref_boxed([[field.value(v) for v in row] for row in rows], field)
            assert len(basis) == width - len(pivots)
            for vec in basis:
                for row in rows:
                    total = field.zero
                    for a, x in zip(row, vec):
                        total = field.add(total, field.mul(field.value(a), field.value(x)))
                    assert total.is_zero()


class TestKernelSolver:
    def test_difference_system_dimensions(self):
        system = difference_system(GF2)
        assert kernel_dimension(system, (2,)) == 2
        assert kernel_dimension(system, (4,)) == 2

    def test_difference_system_brute_force_counts(self):
        system = difference_system(GF2)
        for periods, total in [((2,), 4), ((4,), 16)]:
            candidates = list(enumerate_periodic_vectors(system, periods))
            assert len(candidates) == total
            members = [w for w in candidates if system.contains(w)]
            assert len(members) == 4

    def test_period_four_constraints(self):
        basis = periodic_kernel_basis(difference_system(GF2), (4,))
        assert basis.dimension == 2
        for vec in basis.basis:
            vals = [v.payload for v in vec[0].values]
            assert vals[0] == vals[2] and vals[1] == vals[3]

    def test_identity_system_has_trivial_kernel(self):
        system = System(PolyMatrix([[P("1", field=GF3)]]))
        assert kernel_dimension(system, (5,)) == 0
        assert periodic_kernel_basis(system, (5,)).basis == ()

    def test_zero_system_is_unconstrained(self):
        system = System(PolyMatrix([[LaurentPoly.zero(1, GF2)]]))
        assert kernel_dimension(system, (2,)) == 2

    def test_two_variable_system_dimension(self):
        system = two_variable_system()
        assert kernel_dimension(system, (4,)) == 3
        assert count_periodic_members(system, (4,)) == 3**3

    def test_two_variable_second_component_constant(self):
        basis = periodic_kernel_basis(two_variable_system(), (4,))
        for vec in basis.basis:
            w2 = [v.payload for v in vec[1].values]
            assert len(set(w2)) == 1

    def test_basis_vectors_are_members(self):
        rng = random.Random(45)
        for _ in range(20):
            field = rng.choice((GF2, GF3))
            k = rng.randint(1, 2)
            l = rng.randint(1, 2)
            grid = [
                [random_poly(rng, 1, field, max_terms=3, span=2) for _ in range(l)]
                for _ in range(k)
            ]
            system = System(PolyMatrix(grid))
            periods = (rng.randint(1, 6),)
            result = periodic_kernel_basis(system, periods)
            assert result.dimension == len(result.basis)
            for vec in result.basis:
                assert system.contains(vec)

    def test_basis_vectors_are_independent(self):
        basis = periodic_kernel_basis(two_variable_system(), (4,))
        stacked = [
            [v for comp in vec for v in comp.values] for vec in basis.basis
        ]
        _, pivots = rref_boxed(stacked, GF3)
        assert len(pivots) == basis.dimension

    def test_completeness_against_enumeration(self):
        rng = random.Random(46)
        for _ in range(12):
            field = rng.choice((GF2, GF3))
            k = rng.randint(1, 2)
            l = rng.randint(1, 2)
            n = rng.randint(1, 6 if l == 1 else 3)
            grid = [
                [random_poly(rng, 1, field, max_terms=3, span=2) for _ in range(l)]
                for _ in range(k)
            ]
            system = System(PolyMatrix(grid))
            dim = kernel_dimension(system, (n,))
            assert count_periodic_members(system, (n,)) == field.p**dim

    def test_membership_survives_period_refinement(self):
        rng = random.Random(47)
        for _ in range(10):
            field = rng.choice((GF2, GF3))
            system = System(PolyMatrix([[random_poly(rng, 1, field, max_terms=3)]]))
            n = rng.randint(1, 4)
            result = periodic_kernel_basis(system, (n,))
            for vec in result.basis:
                for m in (2, 3):
                    tiled = SeqVector([comp.tile((m,)) for comp in vec])
                    assert system.contains(tiled)

    def test_float_field_rejected(self):
        F = FloatField()
        system = System(PolyMatrix([[parse_poly("0.5*X", 1, F)]]))
        with pytest.raises(FloatFieldUnsupportedError):
            periodic_kernel_basis(system, (2,))
        with pytest.raises(FloatFieldUnsupportedError):
            kernel_dimension(system, (2,))

    def test_enumeration_needs_a_finite_field(self):
        with pytest.raises(FloatFieldUnsupportedError, match="enumeration needs a finite field"):
            next(enumerate_periodic_vectors(difference_system(Q), (2,)))

    def test_kernel_basis_record(self):
        result = periodic_kernel_basis(difference_system(GF2), (2,))
        assert isinstance(result, KernelBasis)
        assert result.periods == (2,)
        assert result.rank == 1
        assert result.dimension == 2
        values = sorted(
            tuple(v.payload for v in vec[0].values) for vec in result.basis
        )
        assert values == [(0, 1), (1, 0)]


def payloads(rows):
    return [[v.payload for v in row] for row in rows]


def random_value(rng, field, density):
    if rng.random() >= density:
        return field.zero
    if isinstance(field, PrimeField):
        return field.value(rng.randrange(field.p))
    # small rationals, and some with numerator and denominator above 2**62
    bound = rng.choice((4, 4, 2**70))
    return field.value(rng.randint(-bound, bound), rng.randint(1, bound))


def random_matrix(rng, field):
    """A seeded matrix of 1x1 to 12x12 FieldValues, often rank-deficient.

    Some rows are zero, some duplicate an earlier row and some are the
    sum of two earlier rows; a few matrices are all zero.
    """
    height, width = rng.randint(1, 12), rng.randint(1, 12)
    if rng.random() < 0.05:
        return [[field.zero] * width for _ in range(height)]
    density = rng.choice((0.2, 0.5, 1.0))
    rows = []
    for _ in range(height):
        kind = rng.random() if rows else 1.0
        if kind < 0.15:
            row = [field.zero] * width
        elif kind < 0.3:
            row = list(rng.choice(rows))
        elif kind < 0.45:
            a, b = rng.choice(rows), rng.choice(rows)
            row = [x + y for x, y in zip(a, b)]
        else:
            row = [random_value(rng, field, density) for _ in range(width)]
        rows.append(row)
    return rows


def basis_payloads(system, periods):
    return [
        [v.payload for comp in vec for v in comp.values]
        for vec in periodic_kernel_basis(system, periods).basis
    ]


def oracle_kernel(system, periods):
    """periodic_kernel_basis's rows by the boxed oracle on the oracle's constraint matrix."""
    width = system.l * math.prod(periods)
    return payloads(nullspace_boxed(constraint_matrix(system, periods), system.field, width))


FIELDS = [2, 3, 7, 2**31 - 1, 2147483659, pytest.param(None, id="rational")]


class TestArrayElimination:
    """The sparse elimination loop against the boxed oracle, on seeded matrices.

    The test names predate the sparse loop: "array branch" is
    systems.rref over GF(p) and the multi-modular solver over Q, and
    "boxed branch" is oracles.rref_boxed and oracles.nullspace_boxed.
    """

    @pytest.mark.parametrize("p", FIELDS)
    def test_array_branch_matches_boxed_branch(self, p):
        field = field_of(p)
        rng = random.Random(f"rref:{p or 'rational'}")
        matrices = [[[field.one]], [[field.zero]], [[field.zero, field.one]] * 3]
        matrices += [random_matrix(rng, field) for _ in range(150 if p else 60)]
        if p is None:
            assert any(
                abs(v.payload.numerator) > 2**62 and v.payload.denominator > 2**62
                for rows in matrices for row in rows for v in row
            )
        for rows in matrices:
            width = len(rows[0])
            basis = solve(rows, field, width)
            assert basis == payloads(nullspace_boxed(rows, field, width))
            assert_payload_types([v for row in basis for v in row], field)
            if p:
                pivots = rref(sparse_rows(rows, field), p)
                assert pivots == oracle_rref(rows, field)
                assert_payload_types([v for row in pivots.values() for v in row.values()], field)

    @pytest.mark.parametrize("p", FIELDS)
    def test_kernel_basis_payload_types(self, p):
        field = field_of(p)
        rng = random.Random(f"types:{field.spec()}")
        seen = 0
        for _ in range(6):
            grid = [[random_poly(rng, 1, field, max_terms=3, span=2) for _ in range(2)]]
            result = periodic_kernel_basis(System(PolyMatrix(grid)), (rng.randint(1, 6),))
            for vec in result.basis:
                for comp in vec:
                    assert_payload_types(comp._values, field)
                    seen += len(comp._values)
        assert seen

    @pytest.mark.parametrize("field", [GF2, PrimeField(7), Q, BIG])
    def test_kernel_basis_same_with_either_branch(self, field):
        rng = random.Random(f"basis:{getattr(field, 'p', 'rational')}")
        cases = []
        for _ in range(8):
            k, l = rng.randint(1, 2), rng.randint(1, 2)
            grid = [
                [random_poly(rng, 1, field, max_terms=3, span=3) for _ in range(l)]
                for _ in range(k)
            ]
            cases.append((System(PolyMatrix(grid)), (rng.randint(1, 12),)))
        for _ in range(4):
            grid = [[random_poly(rng, 2, field, max_terms=3, span=2) for _ in range(2)]]
            cases.append((System(PolyMatrix(grid)), (rng.randint(1, 4), rng.randint(1, 4))))

        fast = [basis_payloads(system, periods) for system, periods in cases]
        assert fast == [oracle_kernel(system, periods) for system, periods in cases]
        assert any(fast)


def stencil_poly(rng, rank, field, big=False):
    """Five distinct exponents in [-2, 2]**rank with nonzero coefficients.

    Over Q the numerators and denominators are at most 5, or with ``big``
    up to 2**70.
    """
    exponents = set()
    while len(exponents) < 5:
        exponents.add(tuple(rng.randint(-2, 2) for _ in range(rank)))
    bound = 2**70 if big else 5
    if field == Q:
        coeff = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, bound), rng.randint(1, bound))
    else:
        coeff = lambda: rng.randrange(1, field.p)
    return LaurentPoly(rank, field, {a: coeff() for a in sorted(exponents)})


def stencil_system(rng, field, rank, k, l):
    """A k x l system of five-term entries; its constraint matrix fills in densely when k, l >= 2.

    Over Q the first entry has coefficients up to 2**70 and the others
    small ones, so the kernel needs several primes.
    """
    return System(PolyMatrix([
        [stencil_poly(rng, rank, field, big=(i, j) == (0, 0)) for j in range(l)] for i in range(k)
    ]))


def rational_poly(rng, rank, big):
    """Three seeded terms; with ``big``, numerators and denominators up to 2**70."""
    bound = 2**70 if big else 5
    return LaurentPoly(rank, Q, {
        tuple(rng.randint(-2, 2) for _ in range(rank)):
            Fraction(rng.choice((-1, 1)) * rng.randint(1, bound), rng.randint(1, bound))
        for _ in range(3)
    })


def seeded_rational_system(rng, rank, k, l, big):
    """A k x l system over Q whose kernel on the returned periods is often nonzero.

    The first row is sometimes multiplied by X1^d - 1 with d | N1, which
    every signal of period d in X1 satisfies; a second row is sometimes
    a Laurent multiple of the first.
    """
    periods = (rng.randint(1, 8),) if rank == 1 else (rng.randint(2, 3), rng.randint(2, 3))
    first = [rational_poly(rng, rank, big) for _ in range(l)]
    if l == 1 or rng.random() < 0.5:
        d = rng.choice([d for d in range(1, periods[0] + 1) if periods[0] % d == 0])
        factor = LaurentPoly(rank, Q, {(d,) + (0,) * (rank - 1): 1, (0,) * rank: -1})
        first = [factor * e for e in first]
    grid = [first]
    if k == 2:
        q = rational_poly(rng, rank, big)
        if rng.random() < 0.5:
            grid.append([q * e for e in first])
        else:
            grid.append([rational_poly(rng, rank, big) for _ in range(l)])
    return System(PolyMatrix(grid)), periods


def leading_columns(rows):
    return [next(i for i, v in enumerate(row) if v) for row in rows]


FIRST_PRIMES = list(itertools.islice(systems._primes(), 3))


class TestRationalKernel:
    """The multi-modular solver over Q against the boxed oracle over Q."""

    @pytest.mark.parametrize("rank", [1, 2])
    def test_matches_boxed_oracle(self, rank):
        rng = random.Random(f"multimodular:{rank}")
        cases = [(System(PolyMatrix([[LaurentPoly.zero(rank, Q)] * 2])), (3,) * rank)]
        for k, l in ((1, 1), (1, 2), (2, 2)):
            for big in (False, True, True):
                cases.append(seeded_rational_system(rng, rank, k, l, big))
        dims, heights = [], [0]
        for system, periods in cases:
            want = oracle_kernel(system, periods)
            assert basis_payloads(system, periods) == want
            assert kernel_dimension(system, periods) == len(want)
            dims.append(len(want))
            heights += [max(abs(v.numerator), v.denominator) for row in want for v in row]
        assert dims[0] == 2 * 3**rank  # the zero system constrains nothing
        assert sum(d > 0 for d in dims) > len(dims) // 2
        assert max(heights) > 2**62  # entries that need several primes

    # Rank-1 systems take the polynomial path, so these pin rank-2 systems
    # with period 1 along X2: their constraint matrices are those of the
    # rank-1 systems in X1 on the first period.
    @pytest.mark.parametrize(
        "entries, periods, unlucky",
        [
            # mod the first prime this is X - 1, with the constants as kernel; over Q it is 0
            ([f"{FIRST_PRIMES[0] + 1}*X1 - 1"], (5, 1), FIRST_PRIMES[0]),
            # same dimension, but mod the prime the kernel pivot moves to column 1
            (["1", str(FIRST_PRIMES[0])], (1, 1), FIRST_PRIMES[0]),
            (["1", str(FIRST_PRIMES[0])], (4, 1), FIRST_PRIMES[0]),
            # mod the first prime the leading term vanishes, but the second entry
            # still acts invertibly (determinant 3**6 there), so that prime is lucky
            ([f"X1 - {FIRST_PRIMES[0]}", f"{FIRST_PRIMES[0]}*X1^2 + 3"], (6, 1), None),
            # a lucky first prime, then an unlucky one
            (["1", str(FIRST_PRIMES[1])], (3, 1), FIRST_PRIMES[1]),
        ],
    )
    def test_unlucky_primes(self, entries, periods, unlucky):
        system = System(PolyMatrix([[P(e, rank=2) for e in entries]]))
        want = oracle_kernel(system, periods)
        assert basis_payloads(system, periods) == want
        assert kernel_dimension(system, periods) == len(want)
        if unlucky:
            image = System(PolyMatrix([[P(e, rank=2, field=PrimeField(unlucky)) for e in entries]]))
            mod_p = basis_payloads(image, periods)
            assert (len(mod_p), leading_columns(mod_p)) > (len(want), leading_columns(want))

    def test_agreeing_wrong_reconstructions_fail_the_check(self):
        # c is 1 modulo each of the first three primes, so the reconstructions
        # from one, two and three primes all read -1 where the kernel has -c
        p1, p2, p3 = FIRST_PRIMES
        c = 1 + p1 * p2 * p3
        system = System(PolyMatrix([[P(str(c), rank=2), P("1", rank=2)]]))
        basis = basis_payloads(system, (2, 1))
        assert basis == oracle_kernel(system, (2, 1))
        assert basis == [[1, 0, -c, 0], [0, 1, 0, -c]]

    @pytest.mark.parametrize("rank", [2, 3])
    def test_every_reconstruction_is_certified_at_once(self, monkeypatch, rank):
        # the exact check alone accepts a basis: each reconstruction that
        # succeeds is checked before the next prime, and one is tried after
        # 1, 2, 4, ... primes
        events = []

        def logged(name, function):
            def call(*args):
                result = function(*args)
                events.append((name, result is not None and result is not False))
                return result
            return call

        for name in ("rref", "_reconstruct", "_certifies"):
            monkeypatch.setattr(systems, name, logged(name, getattr(systems, name)))
        rng = random.Random(f"certified:{rank}")
        counts = []
        for trial in range(4):
            # 1 x 2 systems have a kernel of |D| or more; the 2 x 2 one has none
            system = stencil_system(rng, Q, rank, 1 + (trial == 3), 2)
            periods = SPARSE_PERIODS[rank][trial % 3]
            width = 2 * math.prod(periods)
            events.clear()
            assert systems._rational_kernel(periodic_system_matrix(system, periods), width) == (
                oracle_kernel(system, periods)
            )
            primes = sum(name == "rref" for name, _ in events)
            attempts = [ok for name, ok in events if name == "_reconstruct"]
            assert primes & (primes - 1) == 0 and len(attempts) == primes.bit_length()
            for (name, ok), (after, _) in zip(events, events[1:] + [(None, None)]):
                if name == "_reconstruct" and ok:
                    assert after == "_certifies"
            assert events[-1] == ("_certifies", True)
            assert sum(name == "_certifies" for name, _ in events) == sum(attempts)
            counts.append(primes)
        assert max(counts) >= 16 and min(counts) == 1

    def test_cap_raises_when_nothing_certifies(self, monkeypatch):
        monkeypatch.setattr(systems, "_certifies", lambda *args: False)
        with pytest.raises(RuntimeError, match="Hadamard"):
            kernel_dimension(System(PolyMatrix([[P("X1 - 2", rank=2)]])), (2, 2))

    def test_certificate_reads_no_empty_rows(self, monkeypatch):
        # a zero row of R gives |D| constraint rows without entries, which
        # constrain nothing: the check reads only the |D| others
        system = System(PolyMatrix([[P("X1 - 1/2", 2), P("X2", 2)], [P("0", 2), P("0", 2)]]))
        checked, certifies = [], systems._certifies

        def recorded(cleared, rows):
            checked.append(cleared)
            return certifies(cleared, rows)

        monkeypatch.setattr(systems, "_certifies", recorded)
        assert basis_payloads(system, (4, 3)) == oracle_kernel(system, (4, 3))
        assert checked and all(len(cleared) == 12 and all(cleared) for cleared in checked)


SPARSE_PERIODS = {2: [(4, 1), (3, 2), (2, 3)], 3: [(2, 1, 2), (3, 2, 1), (1, 2, 2)]}


class TestSparseElimination:
    """The rank >= 2 solver against the boxed oracle, on seeded rank-2 and rank-3 systems.

    The shapes 2 x 2 and 2 x 3 fill in densely; 3 x 2 has k > l.  Each
    shape is drawn plain, with a zero entry, and with every other row a
    multiple of the first.  The lattices have a period-1 axis among
    others.
    """

    @pytest.mark.parametrize("p", [2, 7, 2**31 - 1, 2147483659, pytest.param(None, id="rational")])
    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("shape", ["1x2", "2x2", "2x3", "3x2"])
    def test_matches_boxed_oracle(self, shape, rank, p):
        field = field_of(p)
        k, l = map(int, shape.split("x"))
        rng = random.Random(f"sparse:{shape}:{rank}:{p or 'rational'}")
        dims, heights = [], [0]
        for trial in range(3):
            periods = SPARSE_PERIODS[rank][trial]
            system = stencil_system(rng, field, rank, k, l)
            entries = [[system.matrix.entry(i, j) for j in range(l)] for i in range(k)]
            if trial == 1:
                entries[rng.randrange(k)][rng.randrange(l)] = LaurentPoly.zero(rank, field)
            if trial == 2:
                # the kernel holds that of the first row, of dimension >= (l - 1)|D|
                entries[1:] = [
                    [q * e for e in entries[0]]
                    for q in (stencil_poly(rng, rank, field) for _ in range(k - 1))
                ]
            system = System(PolyMatrix(entries))
            want = oracle_kernel(system, periods)
            assert basis_payloads(system, periods) == want
            assert kernel_dimension(system, periods) == len(want)
            if p:
                matrix = constraint_matrix(system, periods)
                assert rref(periodic_system_matrix(system, periods), p) == oracle_rref(matrix, field)
            dims.append(len(want))
            heights += [abs(v.numerator) for row in want for v in row]
        assert any(dims)
        if p is None:
            assert max(heights) > 2**62


class TestDimensionOnly:
    """Over GF(p) at rank >= 2 the dimension comes from the forward pass alone."""

    def test_forward_pass_has_the_pivots_of_rref(self):
        rng = random.Random("forward")
        for p, rank, shape in itertools.product((2, 7), (2, 3), ((1, 2), (2, 2), (2, 3))):
            field, periods = PrimeField(p), SPARSE_PERIODS[rank][rng.randrange(3)]
            rows = periodic_system_matrix(stencil_system(rng, field, rank, *shape), periods)
            pivots, fill, _ = systems._forward(rows, p)
            assert fill == sum(map(len, rows)) + sum(map(len, pivots.values()))
            assert pivots.keys() == rref(rows, p).keys()

    def test_dimension_skips_the_clearing_pass(self, monkeypatch):
        rng = random.Random("no-clearing")
        cases = []
        for p, rank in itertools.product((2, 7), (2, 3)):
            system, periods = stencil_system(rng, PrimeField(p), rank, 1, 2), SPARSE_PERIODS[rank][1]
            cases.append((system, periods, kernel_dimension(system, periods)))

        def no_clearing(*args):
            raise AssertionError("pivot rows cleared for the dimension alone")

        monkeypatch.setattr(systems, "_clear", no_clearing)
        for system, periods, dimension in cases:
            assert kernel_dimension(system, periods) == dimension
            with pytest.raises(AssertionError, match="cleared for the dimension alone"):
                periodic_kernel_basis(system, periods)
        assert any(dimension for _, _, dimension in cases)

    @pytest.mark.parametrize("p", [2, 7, pytest.param(None, id="rational")])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_dimension_and_basis_agree(self, rank, p):
        field = field_of(p)
        rng = random.Random(f"agree:{rank}:{p or 'rational'}")
        lattices = {1: [(1,), (4,), (6,)], **SPARSE_PERIODS}[rank]
        dims = []
        for periods, l in zip(lattices, (1, 2, 3)):
            first = [stencil_poly(rng, rank, field) for _ in range(l)]
            # a second row that is a multiple of the first keeps a kernel of (l - 1)|D| or more
            q = stencil_poly(rng, rank, field)
            system = System(PolyMatrix([first, [q * e for e in first]]))
            result = periodic_kernel_basis(system, periods)
            dims.append(kernel_dimension(system, periods))
            assert dims[-1] == result.dimension == len(result.basis)
            assert all(system.contains(vec) for vec in result.basis)
        assert any(dims)


class TestRankOneOracle:
    """Dimension and basis size of 1x1 rank-1 systems against a polynomial gcd mod p."""

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_dimension_is_degree_of_gcd(self, p):
        field = PrimeField(p)
        rng = random.Random(f"gcd:{p}")
        for n in range(1, 61):
            for _ in range(2):
                low = rng.randint(-4, 2)
                coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
                if rng.random() < 0.5:
                    # times X^d - 1 for a divisor d of n, so the gcd is large
                    d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
                    coeffs = [
                        (coeffs[i - d] if 0 <= i - d < len(coeffs) else 0)
                        - (coeffs[i] if i < len(coeffs) else 0)
                        for i in range(len(coeffs) + d)
                    ]
                poly = LaurentPoly(1, field, {(low + i,): c for i, c in enumerate(coeffs)})
                system = System(PolyMatrix([[poly]]))
                dim = rank1_kernel_dimension(coeffs, p, n)
                assert kernel_dimension(system, (n,)) == dim
                assert len(basis_payloads(system, (n,))) == dim

    def test_repeated_factor_when_p_divides_n(self):
        # X^n - 1 is square-free when p does not divide n, and has the
        # factor (X - 1)^p when it does, so (X - 1)^2 is seen in full only then
        for p in (2, 3, 7):
            field = PrimeField(p)
            system = System(PolyMatrix([[P("X - 2 + X^-1", field=field)]]))
            for n, dim in ((p, 2), (2 * p, 2), (p + 1, 1)):
                assert rank1_kernel_dimension([1, -2, 1], p, n) == dim
                assert kernel_dimension(system, (n,)) == dim


RANK1_SHAPES = ["1x1", "2x2 upper", "2x2 dense", "1x2", "2x1", "rank-deficient", "zero"]


def rank1_system(rng, field, shape, n):
    """A seeded rank-1 system; entries often carry X^d - 1 for a divisor d of n."""

    def entry():
        poly = random_poly(rng, 1, field, max_terms=3, span=3)
        if rng.random() < 0.5:
            d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            poly = poly * LaurentPoly(1, field, {(d,): 1, (0,): -1})
        return poly

    zero = LaurentPoly.zero(1, field)
    if shape == "1x1":
        grid = [[entry()]]
    elif shape == "2x2 upper":
        grid = [[entry(), entry()], [zero, entry()]]
    elif shape == "2x2 dense":
        grid = [[entry(), entry()], [entry(), entry()]]
    elif shape == "1x2":
        grid = [[entry(), entry()]]
    elif shape == "2x1":
        grid = [[entry()], [entry()]]
    elif shape == "rank-deficient":
        first, q = [entry(), entry()], random_poly(rng, 1, field, max_terms=2, span=2)
        grid = [first, [q * e for e in first]]
    else:
        grid = [[zero, zero]]
    return System(PolyMatrix(grid))


def dense_kernel(system, n):
    """The kernel's RREF rows by the rank >= 2 elimination on the constraint matrix."""
    return eliminate(periodic_system_matrix(system, (n,)), system.field, system.l * n)


class TestRankOnePath:
    """The polynomial rank-1 solver against elimination on the constraint matrix."""

    @pytest.mark.parametrize("p", [2, 3, 7, 2147483659, pytest.param(None, id="rational")])
    @pytest.mark.parametrize("shape", RANK1_SHAPES)
    def test_matches_dense_elimination(self, p, shape):
        field = field_of(p)
        rng = random.Random(f"rank1:{shape}:{p or 'rational'}")
        # every n from 1 to 60 over GF(p) (multiples of p included); a sample
        # over Q, where the dense side eliminates on Fractions
        periods = range(1, 61) if p else rng.sample(range(1, 41), 6)
        dims = []
        for n in periods:
            if shape not in ("1x1", "2x1") and n > 30 and n % 3:
                continue  # keep the 2-component eliminations small
            system = rank1_system(rng, field, shape, n)
            want = dense_kernel(system, n)
            assert basis_payloads(system, (n,)) == want
            assert kernel_dimension(system, (n,)) == len(want)
            dims.append(len(want))
        assert any(dims)
        if shape in ("1x2", "rank-deficient", "zero"):
            assert all(dims)  # l > rank R leaves a free direction

    @pytest.mark.parametrize("p", [2, 7, pytest.param(None, id="rational")])
    def test_rank2_form_on_periods_n_1_agrees(self, p):
        # the same system written in X1 at rank 2 takes GF(p) elimination or the
        # multi-modular path on periods (N, 1), whose lattice is that of period N
        field = field_of(p)
        rng = random.Random(f"paths:{p or 'rational'}")
        dims = []
        for shape in RANK1_SHAPES:
            for n in rng.sample(range(1, 25), 4):
                system = rank1_system(rng, field, shape, n)
                rank2 = System(PolyMatrix([
                    [LaurentPoly(2, field, {(a, 0): c for (a,), c in e._terms.items()})
                     for e in row]
                    for row in system.matrix.entries
                ]))
                rows = basis_payloads(system, (n,))
                assert basis_payloads(rank2, (n, 1)) == rows
                assert kernel_dimension(rank2, (n, 1)) == len(rows)
                assert kernel_dimension(system, (n,)) == len(rows)
                dims.append(len(rows))
        assert any(dims) and not all(dims)

    @pytest.mark.parametrize(
        "poly, periods, dims",
        [
            # Phi_4, Phi_8 and Phi_9: phi(d) equals the degree, the edge of the
            # orders that can divide n over Q
            ("X + X^-1", (4, 8, 12, 6, 2), (2, 2, 2, 0, 0)),
            ("X^2 + X^-2", (8, 16, 4, 24), (4, 4, 0, 4)),
            ("X^3 + 1 + X^-3", (9, 18, 3, 27), (6, 6, 0, 6)),
            ("X^4 + X^3 + X^2 + X + 1", (5, 10, 4), (4, 4, 0)),
        ],
    )
    def test_cyclotomic_factors_over_q(self, poly, periods, dims):
        system = System(PolyMatrix([[P(poly)]]))
        for n, dim in zip(periods, dims):
            assert kernel_dimension(system, (n,)) == dim
            assert basis_payloads(system, (n,)) == dense_kernel(system, n)

    def test_payload_types_over_q(self):
        system = System(PolyMatrix([[P("1/2*X - 1/2*X^-1"), P("3*X^2")]]))
        for vec in periodic_kernel_basis(system, (6,)).basis:
            for comp in vec:
                assert_payload_types(comp._values, Q)

    def test_large_period_without_elimination(self, monkeypatch):
        monkeypatch.setattr(systems, "rref", None)  # any elimination would fail
        system = difference_system(PrimeField(7))
        result = periodic_kernel_basis(system, (65536,))
        assert result.dimension == 2
        for vec in result.basis:
            assert system.contains(vec)
        # 2 has order 3 mod 7, so X - 2 divides X^n - 1 exactly when 3 | n
        x_minus_2 = System(PolyMatrix([[P("X - 2", field=PrimeField(7))]]))
        assert kernel_dimension(x_minus_2, (3 * 10**17,)) == 1
        assert kernel_dimension(x_minus_2, (10**18,)) == 0


def seeded_dense_system(seed, field):
    """A 2 x 2 rank-2 system whose constraint matrix fills in densely.

    For each entry in row-major order, two ``randint(-3, 3)`` draw an
    exponent and ``randint(1, 6)`` its coefficient, until the entry has
    five exponents.
    """
    rng = random.Random(seed)
    rows = []
    for _ in range(2):
        row = []
        for _ in range(2):
            terms = {}
            while len(terms) < 5:
                terms[rng.randint(-3, 3), rng.randint(-3, 3)] = rng.randint(1, 6)
            row.append(LaurentPoly(2, field, terms))
        rows.append(row)
    return System(PolyMatrix(rows))


class TestLatticeBudget:
    def test_api_refuses_periods_20_20_20(self, monkeypatch):
        # 132 terms on 8000 lattice points: 8000 rows of ROW_FILL entries each,
        # 8000 columns and up to 1056000 starting entries, more than MAX_FILL together
        terms = {(a, b, 0): 1 for a in range(12) for b in range(11)}
        system = System(PolyMatrix([[LaurentPoly(3, GF2, terms)]]))

        def no_rows(*args, **kwargs):
            raise AssertionError("lattice built before the budget check")

        monkeypatch.setattr(systems, "rolled_indices", no_rows)
        message = f"8000 x 8000 constraint matrix whose .* weigh up to {8000 * ROW_FILL + 1064000} "
        for solve in (periodic_system_matrix, kernel_dimension, periodic_kernel_basis):
            with pytest.raises(LatticeTooLargeError, match=message):
                solve(system, (20, 20, 20))

    def test_constraint_nonzeros_bounded(self, monkeypatch):
        # 300 terms on a 60 x 60 lattice: 3600 rows and 3600 columns are
        # admitted, but up to 1080000 starting entries are not
        terms = {(a, b): 1 for a in range(20) for b in range(15)}
        system = System(PolyMatrix([[LaurentPoly(2, GF2, terms)]]))
        assert (ROW_FILL + 1) * 3600 <= MAX_FILL < 3600 * 300

        def no_rows(*args, **kwargs):
            raise AssertionError("rows built before the budget check")

        monkeypatch.setattr(systems, "rolled_indices", no_rows)
        held = (ROW_FILL + 1) * 3600 + 3600 * 300
        with pytest.raises(LatticeTooLargeError, match=f"up to {held} entries"):
            kernel_dimension(system, (60, 60))

    def test_sparse_lattices_answered(self):
        # lattices of many cells but few entries: the 20000 x 40000 matrix of
        # [X1 - X1^-1, X2 - 1] at (1,20000) is that of [0, X2 - 1], whose
        # rank-1 form [0, X - 1] has the period-N signals times the constants
        gf7 = PrimeField(7)
        start = time.process_time()
        stencil = System(PolyMatrix([[P("X1 - X1^-1", 2, gf7), P("X2 - 1", 2, gf7)]]))
        assert kernel_dimension(stencil, (1, 20000)) == 20001
        rank1 = System(PolyMatrix([[P("0", field=gf7), P("X - 1", field=gf7)]]))
        assert kernel_dimension(rank1, (20000,)) == 20001
        # an 8000 x 8000 matrix of 24000 entries
        assert kernel_dimension(System(PolyMatrix([[P("X1 - X2^-1 + X3", 3, GF2)]])), (20, 20, 20)) == 0
        assert time.process_time() - start < 5.0

    def test_dense_elimination_time_bounded(self):
        # the seed-5 system at (32,32) holds at most about 340000 entries, within
        # MAX_FILL, but its forward pass needs about 87M updates: the update
        # budget refuses it long before that pass would end
        system = seeded_dense_system(5, PrimeField(7))
        assert kernel_dimension(system, (8, 8)) == len(oracle_kernel(system, (8, 8)))
        start = time.process_time()
        with pytest.raises(LatticeTooLargeError, match=f"updates more than {MAX_UPDATES} entries"):
            kernel_dimension(system, (32, 32))
        assert time.process_time() - start < 5.0

    def test_update_budget_covers_both_passes(self, monkeypatch):
        # one count runs through both passes of rref, checked at each
        # pivot-row subtraction: a budget of the forward pass's count admits
        # the dimension, which runs that pass alone, and refuses the basis
        system = stencil_system(random.Random("back-fill"), PrimeField(7), 2, 1, 2)
        rows = periodic_system_matrix(system, (4, 4))
        forward = systems._forward(rows, 7)[2]
        dimension = kernel_dimension(system, (4, 4))
        checked = []

        class Recorder(int):
            # `updates > MAX_UPDATES` asks the right operand, an int subclass, first
            def __lt__(self, updates):
                checked.append(updates)
                return False

        monkeypatch.setattr(systems, "MAX_UPDATES", Recorder(0))
        rref(rows, 7)
        assert forward in checked and checked == sorted(checked) and checked[-1] > forward
        monkeypatch.setattr(systems, "MAX_UPDATES", forward)
        assert kernel_dimension(system, (4, 4)) == dimension
        with pytest.raises(LatticeTooLargeError, match=f"updates more than {forward} entries"):
            periodic_kernel_basis(system, (4, 4))
        monkeypatch.setattr(systems, "MAX_UPDATES", checked[-1])
        assert periodic_kernel_basis(system, (4, 4)).dimension == dimension
        monkeypatch.setattr(systems, "MAX_UPDATES", forward - 1)
        with pytest.raises(LatticeTooLargeError, match=f"updates more than {forward - 1} entries"):
            kernel_dimension(system, (4, 4))

    def test_dense_fill_refused(self, monkeypatch):
        # the 2 x 2 five-term system fills most of its 512 x 512 matrix mod 7;
        # under a budget of 20000 entries the loop stops early
        system = stencil_system(random.Random("fill"), PrimeField(7), 2, 2, 2)
        assert kernel_dimension(system, (4, 4)) == len(oracle_kernel(system, (4, 4)))
        monkeypatch.setattr(systems, "MAX_FILL", 20000)
        start = time.process_time()
        with pytest.raises(LatticeTooLargeError, match="fills more than 20000 entries"):
            periodic_kernel_basis(system, (16, 16))
        assert time.process_time() - start < 2.0

    def test_back_substitution_fill_refused(self, monkeypatch):
        # rref checks the fill after each pivot row of its forward pass, then
        # after each row of its back-substitution, which fills in further; a
        # budget of the forward pass's peak stops only the back-substitution
        system = stencil_system(random.Random("back-fill"), PrimeField(7), 2, 1, 2)
        rows = periodic_system_matrix(system, (4, 4))
        checked = []

        class Recorder(int):
            # `fill > MAX_FILL` asks the right operand, an int subclass, first
            def __lt__(self, fill):
                checked.append(fill)
                return False

        monkeypatch.setattr(systems, "MAX_FILL", Recorder(0))
        pivots = rref(rows, 7)
        half = len(checked) // 2
        assert len(checked) == 2 * len(pivots) > 0
        forward, back = max(checked[:half]), max(checked[half:])
        assert back > forward
        monkeypatch.setattr(systems, "MAX_FILL", forward)
        with pytest.raises(LatticeTooLargeError, match=f"fills more than {forward} entries"):
            rref(rows, 7)
        monkeypatch.setattr(systems, "MAX_FILL", back)
        assert rref(rows, 7) == pivots

    def test_rank1_basis_refused_before_any_row(self, monkeypatch):
        # X^2 - 1 divides X^n - 1 for even n: dimension 2, so 2 * n cells
        system = difference_system(PrimeField(7))
        n = MAX_KERNEL_CELLS // 2 + 2

        def no_rows(*args):
            raise AssertionError("basis built before the budget check")

        monkeypatch.setattr(PolyRing, "kernel_hermite", no_rows)
        monkeypatch.setattr(PolyRing, "rref_rows", no_rows)
        monkeypatch.setattr(PolyRing, "cyclic", no_rows)
        with pytest.raises(LatticeTooLargeError, match=f"{2 * n} basis cells"):
            periodic_kernel_basis(system, (n,))
        assert kernel_dimension(system, (n,)) == 2  # the dimension builds no basis

    def test_rank1_basis_of_period_100000(self):
        # 2 x 100000 basis cells, within MAX_KERNEL_CELLS
        system = difference_system(PrimeField(7))
        result = periodic_kernel_basis(system, (100000,))
        assert len(result.basis) == 2
        assert all(system.contains(vec) for vec in result.basis)

    @pytest.mark.parametrize("p", [2, 7, pytest.param(None, id="rational")])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_one_basis_budget_on_every_path(self, rank, p, monkeypatch):
        # the basis is admitted at exactly dim * l * |D| cells and refused,
        # before any row is built, at one cell less
        field = field_of(p)
        rng = random.Random(f"basis-budget:{rank}:{p or 'rational'}")
        lattices = {1: [(1,), (4,), (6,)], **SPARSE_PERIODS}[rank]
        cases = []
        for periods, l in zip(lattices, (1, 2, 3)):
            first = [stencil_poly(rng, rank, field) for _ in range(l)]
            q = stencil_poly(rng, rank, field)
            system = System(PolyMatrix([first, [q * e for e in first]]))
            cases.append((system, periods, kernel_dimension(system, periods) * l * math.prod(periods)))

        def no_rows(*args):
            raise AssertionError("basis built before the budget check")

        builders = ((systems, "_nullspace"), (systems, "_reconstruct"),
                    (PolyRing, "kernel_hermite"), (PolyRing, "rref_rows"))
        for system, periods, cells in cases:
            monkeypatch.setattr(systems, "MAX_KERNEL_CELLS", cells)
            result = periodic_kernel_basis(system, periods)
            assert result.dimension * system.l * math.prod(periods) == cells
            with monkeypatch.context() as m:
                m.setattr(systems, "MAX_KERNEL_CELLS", cells - 1)
                for owner, name in builders:
                    m.setattr(owner, name, no_rows)
                with pytest.raises(LatticeTooLargeError, match=f" {cells} basis cells"):
                    periodic_kernel_basis(system, periods)
        assert any(cells for _, _, cells in cases)

    def test_periods_checked_once_per_solve(self, monkeypatch):
        # kernel_dimension checks the lattice once; periodic_kernel_basis once
        # more, in the KernelBasis it returns
        system = read_system(Path(__file__).parent / "data" / "system-gf7.json")
        calls, check = [], sequences.check_periods

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(systems, "check_periods", counted)
        monkeypatch.setattr(sequences, "check_periods", counted)
        periodic_kernel_basis(system, (3, 2))
        assert len(calls) == 2
        calls.clear()
        kernel_dimension(system, (3, 2))
        assert len(calls) == 1

    def test_rank1_degree_bounded(self):
        system = System(PolyMatrix([[P("X^100000 - 1", field=GF2)]]))
        with pytest.raises(LatticeTooLargeError, match="coefficient operations"):
            kernel_dimension(system, (10**12,))
        assert kernel_dimension(system, (100000,)) == 100000  # folds to 0

    def test_budget_counts_both_matrix_sides(self, monkeypatch):
        # a 2 x 2 zero system has no entries: its 2 * size rows and 2 * size
        # columns are each within MAX_FILL, but not together
        zeros = System(PolyMatrix([[P("0", field=GF2)] * 2] * 2))
        weight = 2 * ROW_FILL + 2  # per lattice point
        size = MAX_FILL // weight + 1
        assert 2 * ROW_FILL * size <= MAX_FILL < weight * size

        def no_rows(*args, **kwargs):
            raise AssertionError("rows built before the budget check")

        with monkeypatch.context() as m:
            m.setattr(systems, "rolled_indices", no_rows)
            with pytest.raises(LatticeTooLargeError, match=f"up to {weight * size} entries"):
                periodic_system_matrix(zeros, (size,))
        monkeypatch.setattr(systems, "MAX_FILL", weight * 64)
        assert periodic_system_matrix(zeros, (64,)) == [{}] * 128
        with pytest.raises(LatticeTooLargeError, match=f"up to {weight * 65} entries"):
            periodic_system_matrix(zeros, (65,))

    def test_rows_weigh_their_dicts(self, monkeypatch):
        # X2 at (1,N) has N one-entry rows: each weighs ROW_FILL entries, so
        # (1,349000), which held 198 MB when a row weighed one entry, is
        # refused before any row is built
        x2 = System(PolyMatrix([[P("X2", 2, PrimeField(7))]]))

        def no_rows(*args, **kwargs):
            raise AssertionError("rows built before the budget check")

        with monkeypatch.context() as m:
            m.setattr(systems, "rolled_indices", no_rows)
            with pytest.raises(LatticeTooLargeError, match=f"up to {(ROW_FILL + 2) * 349000} entries"):
                kernel_dimension(x2, (1, 349000))
        monkeypatch.setattr(systems, "MAX_FILL", 500 * (ROW_FILL + 2))
        assert kernel_dimension(x2, (1, 500)) == 0
        with pytest.raises(LatticeTooLargeError, match=f"up to {501 * (ROW_FILL + 2)} entries"):
            kernel_dimension(x2, (1, 501))

    def test_row_weight_matches_its_bytes(self):
        # a one-entry constraint row and its empty pivot row, against an entry
        # mod 7 of a long row, in bytes as tracemalloc counts them
        def held(make):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = make()  # alive while it is counted
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        n, first = 20000, 10**6  # columns past the small-int cache, as on a large lattice
        row = held(lambda: [{col: 3} for col in range(first, first + n)]) / n
        pivot = held(lambda: [{} for _ in range(n)]) / n
        entry = held(lambda: [dict.fromkeys(range(first, first + 1000), 3) for _ in range(n // 1000)]) / n
        assert ROW_FILL == round((row + pivot) / entry)
