"""Metamorphic checks from the module duality: B(U·R) = B(R) for unimodular U.

The behaviour ker R over all signals is dual to the row module of R over
the Laurent ring, and left multiplication by a unimodular U, or stacking
rows Q·R that already lie in that module, leaves the row module alone.
So the periodic kernel basis, which is unique because it is in RREF, must
come out the same on every lattice and through every solver path.  The
periods here are far past what brute-force enumeration can check.
"""

import random

import pytest

from bishift.fields import PrimeField, RationalField
from bishift.laurent import LaurentPoly, PolyMatrix
from bishift.selftest import random_poly
from bishift.systems import System, periodic_kernel_basis

FIELDS = [RationalField(), PrimeField(7), PrimeField(2147483659)]
PERIODS = {1: (12,), 2: (5, 5)}


def basis(grid, periods):
    result = periodic_kernel_basis(System(PolyMatrix(grid)), periods)
    return [[v.payload for comp in vec for v in comp.values] for vec in result.basis]


def left_multiply(u, grid):
    """U·R, for a grid U with one column per row of R."""
    zero = LaurentPoly.zero(grid[0][0].rank, grid[0][0].field)
    out = []
    for u_row in u:
        row = []
        for j in range(len(grid[0])):
            total = zero
            for u_im, r_row in zip(u_row, grid):
                total = total + u_im * r_row[j]
            row.append(total)
        out.append(row)
    return out


def monomial(rng, rank, field):
    return LaurentPoly.monomial(rank, field, tuple(rng.randint(-3, 3) for _ in range(rank)))


def nonzero_poly(rng, rank, field):
    while True:
        q = random_poly(rng, rank, field, max_terms=3, span=2)
        if not q.is_zero():
            return q


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec())
def test_unimodular_row_operations_keep_the_basis(field, rank):
    rng = random.Random(f"metamorphic:{field.spec()}:{rank}")
    periods = PERIODS[rank]
    # two rows, three columns: the kernel has dimension at least |D|
    grid = [[nonzero_poly(rng, rank, field) for _ in range(3)] for _ in range(2)]
    want = basis(grid, periods)
    assert want

    one = LaurentPoly.one(rank, field)
    zero = LaurentPoly.zero(rank, field)
    unit = [[monomial(rng, rank, field), zero], [zero, one]]
    elementary = [[one, nonzero_poly(rng, rank, field)], [zero, one]]
    swap = [[zero, one], [one, zero]]
    for u in (unit, elementary, swap):
        assert basis(left_multiply(u, grid), periods) == want

    q = [[nonzero_poly(rng, rank, field), nonzero_poly(rng, rank, field)]]
    assert basis(grid + left_multiply(q, grid), periods) == want
