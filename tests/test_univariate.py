"""Seeded checks of ``PolyRing``, the dense F[X] arithmetic of the rank-1 solver.

Polynomials are drawn dense, with interior zeros and, where the field has
one, a leading coefficient other than 1.  The product is compared with a
schoolbook sum written here in the payloads' own numbers; division, gcd
and the gcd with X^n - 1 are checked by the identities that define them.
Every returned polynomial must hold canonical payloads (an int in
``[0, p)`` or a ``Fraction``) and no trailing zero.
"""

import random
from fractions import Fraction

import pytest

from bishift._univariate import PolyRing
from bishift.fields import PrimeField, RationalField

FIELDS = [
    pytest.param(PrimeField(2), id="gf2"),
    pytest.param(PrimeField(7), id="gf7"),
    pytest.param(PrimeField(2**61 - 1), id="gf2305843009213693951"),
    pytest.param(RationalField(), id="rational"),
]


def draw(rng, field):
    p = getattr(field, "p", None)
    if p:
        return rng.randrange(p)
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def random_poly(rng, field, max_degree=10):
    """A dense polynomial of degree 0..max_degree, about a third of its lower coefficients zero."""
    degree = rng.randint(0, max_degree)
    coeffs = [draw(rng, field) if rng.random() < 0.65 else field.zero.payload
              for _ in range(degree)]
    lead = draw(rng, field)
    while not lead or (lead == field.one.payload and getattr(field, "p", None) != 2):
        lead = draw(rng, field)
    return coeffs + [lead]


def schoolbook_mul(field, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    out = [field._normalize(v, None) for v in out]
    while out and not out[-1]:
        out.pop()
    return out


def assert_canonical(field, poly):
    assert not poly or poly[-1], f"trailing zero in {poly}"
    p = getattr(field, "p", None)
    for v in poly:
        if p:
            assert type(v) is int and 0 <= v < p, v
        else:
            assert type(v) is Fraction, v


@pytest.mark.parametrize("field", FIELDS)
def test_mul_matches_schoolbook(field):
    rng = random.Random(1701)
    ring = PolyRing(field)
    for _ in range(60):
        a, b = random_poly(rng, field, 14), random_poly(rng, field, 6)
        for x, y in ((a, b), (b, a), (a, []), ([], b)):
            product = ring.mul(x, y)
            assert product == schoolbook_mul(field, x, y)
            assert_canonical(field, product)


@pytest.mark.parametrize("field", FIELDS)
def test_divmod_and_gcd(field):
    rng = random.Random(1702)
    ring = PolyRing(field)
    for _ in range(60):
        a, b = random_poly(rng, field, 14), random_poly(rng, field, 6)
        q, r = ring.divmod(a, b)
        assert len(r) < len(b)
        assert ring.add(schoolbook_mul(field, q, b), r) == a
        common = random_poly(rng, field, 4)
        u, v = schoolbook_mul(field, common, a), schoolbook_mul(field, common, b)
        g = ring.gcd(u, v)
        assert g[-1] == field.one.payload
        assert ring.rem(u, g) == ring.rem(v, g) == ring.rem(g, common) == []
        for poly in (q, r, g, ring.sub(a, b), ring.scale(a, draw(rng, field))):
            assert_canonical(field, poly)


@pytest.mark.parametrize("field", FIELDS)
def test_cyclic_gcd_is_the_gcd_with_cyclic(field):
    rng = random.Random(1703)
    ring = PolyRing(field)
    # a factor X^d - 1 makes the gcd nontrivial over Q too
    polys = [ring.mul(random_poly(rng, field, 4), ring.cyclic(rng.randint(1, 12)))
             for _ in range(6)]
    for s in [random_poly(rng, field, 0), *polys]:
        for n in range(1, 61):
            g = ring.cyclic_gcd(s, n)
            assert g == ring.gcd(s, ring.cyclic(n))
            assert_canonical(field, g)


@pytest.mark.parametrize("field", FIELDS)
def test_remainders_of_low_degree_are_trimmed(field):
    ring = PolyRing(field)
    zero, one = field.zero.payload, field.one.payload
    for m in range(1, 5):
        x_m = [zero] * m + [one]
        for n in range(m, 3 * m + 2):
            assert ring.xpow_mod(n, x_m) == []
        assert ring.rem([zero], x_m) == []
