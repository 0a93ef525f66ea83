import math
import random
import re
import time
from fractions import Fraction

import pytest

from bishift.errors import (
    BadValueTokenError,
    BishiftError,
    DecimalInExactFieldError,
    FieldSpecError,
    InverseOfZeroError,
    MixedFieldError,
    NonFiniteValueError,
    ZeroDenominatorError,
)
from bishift.fields import (
    FieldValue,
    FloatField,
    PrimeField,
    RationalField,
    _is_prime,
    decimal_int,
    decimal_token,
    parse_field_spec,
)
from bishift.sequences import PeriodicSeq

Q = RationalField()
GF7 = PrimeField(7)


def test_rational_add():
    assert Q.value(1, 2) + Q.value(1, 3) == Q.value(5, 6)


def test_gf7_mul():
    assert GF7.value(3) * GF7.value(5) == GF7.value(1)


def test_gf7_inverse_matches_brute_force_scan():
    # independent oracle: scan 1..6 for the multiplicative inverse of 3
    expected = next(x for x in range(1, 7) if 3 * x % 7 == 1)
    assert expected == 5
    assert GF7.value(3).inverse() == GF7.value(expected)


def test_rational_canonical_form():
    assert Q.value(2, 4) == Q.value(1, 2)
    assert Q.value(2, 4).payload == Fraction(1, 2)
    assert Q.value(1, -2).payload.denominator == 2


def test_float_tolerance_equality():
    F = FloatField(1e-9)
    assert F.value(0.1) + F.value(0.2) == F.value(0.3)
    assert F.value(0.1) != F.value(0.10001)


def test_gf5_canonical_residue():
    GF5 = PrimeField(5)
    assert GF5.value(7) == GF5.value(2)
    assert GF5.value(-1).payload == 4


def test_mixed_field_rejected():
    with pytest.raises(MixedFieldError):
        Q.value(1) + GF7.value(1)
    with pytest.raises(MixedFieldError):
        Q.value(1) == GF7.value(1)


def test_boxed_subtraction_and_division():
    for field, a, b, diff, quot in [
        (Q, Q.value(1, 2), Q.value(1, 3), Q.value(1, 6), Q.value(3, 2)),
        (GF7, GF7.value(3), GF7.value(5), GF7.value(5), GF7.value(2)),
        (FloatField(), FloatField().value(1.5), FloatField().value(0.5),
         FloatField().value(1.0), FloatField().value(3.0)),
    ]:
        assert a - b == diff and a / b == quot
        assert (a / b) * b == a
        with pytest.raises(InverseOfZeroError):
            a / field.zero
        other = GF7.value(1) if field is not GF7 else Q.value(1)
        with pytest.raises(MixedFieldError):
            a - other
        with pytest.raises(MixedFieldError):
            a / other
        for plain in (1, Fraction(1, 2)):
            with pytest.raises(TypeError):
                a - plain
            with pytest.raises(TypeError):
                a / plain


def test_inverse_of_zero():
    with pytest.raises(InverseOfZeroError):
        Q.value(0).inverse()
    with pytest.raises(InverseOfZeroError):
        GF7.value(7).inverse()
    with pytest.raises(InverseOfZeroError):
        FloatField().value(0.0).inverse()


@pytest.mark.parametrize(
    "p, call",
    [
        pytest.param(2, lambda: PrimeField(2).value(Fraction(1, 2)), id="fraction"),
        pytest.param(7, lambda: PrimeField(7).value(3, 14), id="pair"),
        pytest.param(
            2,
            lambda: PeriodicSeq(1, PrimeField(2), (2,), [1, 0]) * Fraction(1, 2),
            id="periodic-times-fraction",
        ),
    ],
)
def test_denominator_p_divides_is_a_typed_error(p, call):
    with pytest.raises(InverseOfZeroError, match=rf"^inverse of zero in GF\({p}\)$") as e:
        call()
    # still a ZeroDivisionError, which parse_token reads as ZeroDenominatorError
    assert isinstance(e.value, BishiftError) and isinstance(e.value, ZeroDivisionError)


@pytest.mark.parametrize(
    "spec, call",
    [
        pytest.param("rational", lambda: Q.value(1, 0), id="Q-pair"),
        pytest.param("rational", lambda: Q.value(0, 0), id="Q-zero-over-zero"),
        pytest.param("rational", lambda: Q.value(Fraction(1, 2), 0), id="Q-fraction"),
        pytest.param("rational", lambda: Q.value(-3, Fraction(0)), id="Q-fraction-den"),
        pytest.param("float:1e-09", lambda: FloatField().value(1, 0), id="float-pair"),
        pytest.param("float:1e-09", lambda: FloatField().value(1, 0.0), id="float-float-den"),
        pytest.param("float:1e-09", lambda: FloatField().value(0.5, -0.0), id="float-negative-zero"),
        pytest.param(
            "float:0.001", lambda: FloatField(1e-3).value(Fraction(1, 2), 0), id="float-tol-fraction"
        ),
    ],
)
def test_zero_denominator_over_q_and_float_is_a_typed_error(spec, call):
    with pytest.raises(InverseOfZeroError, match=rf"^inverse of zero in {re.escape(spec)}$") as e:
        call()
    assert isinstance(e.value, BishiftError) and isinstance(e.value, ZeroDivisionError)


def test_fields_inherit_python_arithmetic():
    hooks = {"_add", "_mul", "_neg", "_inv", "_eq", "_is_zero"}
    assert not hooks & vars(RationalField).keys()
    assert hooks & vars(FloatField).keys() == {"_eq", "_is_zero"}
    assert hooks & vars(PrimeField).keys() == {"_add", "_mul", "_neg", "_inv"}
    assert "_inv_int" not in vars(PrimeField)


def _hook_payloads(field, rng):
    """Payloads of ``field`` for the hook test: edge values, then seeded draws."""
    if isinstance(field, PrimeField):
        p = field.p
        return [0, 1, p - 1, p // 2] + [rng.randrange(p) for _ in range(40)]
    if isinstance(field, RationalField):
        wide = 10**40
        return [Fraction(0), Fraction(1), Fraction(-1, 3)] + [
            Fraction(rng.randint(-wide, wide), rng.randint(1, wide)) for _ in range(40)
        ]
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, -1e-300,
             1e300, -1e300, 1.7976931348623157e308, 1e-3, -1e-3, 1.0, -0.5]
    return edges + [math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 1023)) for _ in range(30)]


@pytest.mark.parametrize(
    "spec", ["gf:2", "gf:7", "gf:2305843009213693951", "rational", "float", "float:1e-3"]
)
def test_payload_hooks_match_boxed_and_inline_arithmetic(spec):
    field = parse_field_spec(spec)
    rng = random.Random(f"hooks:{spec}")
    xs = _hook_payloads(field, rng)
    pairs = [(a, b) for a in xs[:12] for b in xs[:12]] + [
        (rng.choice(xs), rng.choice(xs)) for _ in range(200)
    ]
    for a, b in pairs:
        va, vb = FieldValue(field, a), FieldValue(field, b)
        assert field._add(a, b) == (va + vb).payload
        assert field._mul(a, b) == (va * vb).payload
        assert field._eq(a, b) is (va == vb)
        if not field.is_exact:
            assert field._add(a, b).hex() == (a + b).hex()
            assert field._mul(a, b).hex() == (a * b).hex()
    for a in xs:
        va = FieldValue(field, a)
        assert field._neg(a) == (-va).payload
        assert field._is_zero(a) is va.is_zero()
        if field.is_exact:
            assert field._is_zero(a) == (not a)
        else:
            assert field._neg(a).hex() == (-a).hex()
            if a:
                assert field._inv(a).hex() == (1.0 / a).hex()
        if not field._is_zero(a):
            assert field._inv(a) == va.inverse().payload
            if field.is_exact:
                assert field._mul(a, field._inv(a)) == field.one.payload


def test_primality_checked():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(97)


def test_primality_matches_trial_division():
    def by_trial_division(n):
        return n > 1 and all(n % i for i in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 5000) if _is_prime(n)] == [
        n for n in range(-3, 5000) if by_trial_division(n)
    ]


def test_large_prime_modulus_accepted_quickly():
    start = time.perf_counter()
    field = parse_field_spec("gf:2305843009213693951")  # 2^61 - 1
    assert time.perf_counter() - start < 0.1
    assert field.p == 2**61 - 1
    assert (field.value(2**60) * field.value(2)).payload == 1


def test_strong_pseudoprimes_and_composites_rejected():
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5, 7
    for n in (3215031751, 3825123056546413051, 561, 91, 4, 9, 1, 0):
        assert not _is_prime(n)
        with pytest.raises(FieldSpecError):
            parse_field_spec(f"gf:{n}")
    # beyond the bound where the fixed bases are proven exact
    with pytest.raises(FieldSpecError):
        parse_field_spec(f"gf:{2**89 - 1}")


@pytest.mark.parametrize(
    "x", [math.nan, math.inf, -math.inf, 10**400, Fraction(10**400, 3)]
)
def test_float_field_rejects_non_finite(x):
    with pytest.raises(NonFiniteValueError):
        FloatField().value(x)


def test_float_token_out_of_range_is_a_parse_error():
    with pytest.raises(BadValueTokenError):
        FloatField().parse_token("9" * 400 + ".0")
    with pytest.raises(BadValueTokenError):
        FloatField().parse_token("1" + "0" * 400)


def test_float_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        FloatField(0.0)
    with pytest.raises(ValueError):
        FloatField(-1e-3)


@pytest.mark.parametrize("field", [Q, GF7])
def test_field_axioms_randomized(field):
    rng = random.Random(7001)

    def rand(nonzero=False):
        if isinstance(field, PrimeField):
            return field.value(rng.randint(1 if nonzero else 0, field.p - 1))
        while True:
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if v or not nonzero:
                return field.value(v)

    zero, one = field.zero, field.one
    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        n = rand(nonzero=True)
        assert n * n.inverse() == one


@pytest.mark.parametrize("field", [Q, GF7, FloatField()])
def test_normalization_idempotent(field):
    rng = random.Random(7002)
    for _ in range(200):
        if isinstance(field, PrimeField):
            v = field.value(rng.randint(-50, 50))
        elif isinstance(field, RationalField):
            v = field.value(rng.randint(-30, 30), rng.randint(1, 30))
        else:
            v = field.value(rng.randint(-20, 20) / 8)
        again = field.value(v.payload)
        assert again.payload == v.payload


def test_parse_field_spec_forms():
    assert parse_field_spec("rational") == Q
    assert parse_field_spec("gf:7") == GF7
    assert parse_field_spec("float") == FloatField()
    assert parse_field_spec("float:1e-6") == FloatField(1e-6)


@pytest.mark.parametrize(
    "spec", ["", "gf:", "gf:4", "gf:x", "float:", "float:0", "float:-1", "real", "GF:7"]
)
def test_parse_field_spec_rejects(spec):
    with pytest.raises(FieldSpecError):
        parse_field_spec(spec)


@pytest.mark.parametrize("spec", ["float:inf", "float:1e400", "float:-inf", "float:nan"])
def test_float_tolerance_must_be_finite(spec):
    # an infinite tolerance would read every sample as zero
    with pytest.raises(FieldSpecError):
        parse_field_spec(spec)
    with pytest.raises(ValueError):
        FloatField(math.inf)


@pytest.mark.parametrize("spec", ["gf:1_1", "gf:+7", "gf: 7", "gf:7 0", "gf:\u0667", "gf:0x7"])
def test_prime_modulus_is_ascii_decimal(spec):
    with pytest.raises(FieldSpecError):
        parse_field_spec(spec)


def test_decimal_int():
    assert [decimal_int(t) for t in ("0", "-12", "007", "9" * 40)] == [0, -12, 7, int("9" * 40)]
    for bad in ("", "-", "1_0", "+4", " 4", "4 ", "4\n", "\u0664", "1.0", "0x10", "--1"):
        with pytest.raises(ValueError):
            decimal_int(bad)


def test_parse_token_forms():
    assert Q.parse_token("-3") == Q.value(-3)
    assert Q.parse_token("5/10") == Q.value(1, 2)
    assert GF7.parse_token("9") == GF7.value(2)
    assert GF7.parse_token("1/3") == GF7.value(5)
    F = FloatField()
    assert F.parse_token("0.5") == F.value(0.5)
    assert F.parse_token("-2") == F.value(-2.0)


def test_parse_token_rejects():
    with pytest.raises(DecimalInExactFieldError):
        Q.parse_token("0.5")
    for field in (Q, FloatField(), GF7):
        with pytest.raises(ZeroDenominatorError, match=r"^zero denominator in '1/0'$"):
            field.parse_token("1/0")
    with pytest.raises(ZeroDenominatorError):
        PrimeField(5).parse_token("1/5")
    for bad in ["", "x", "1/2/3", "1.2.3", "--1", "1e5", " 1"]:
        with pytest.raises(BadValueTokenError):
            Q.parse_token(bad)


def test_parse_token_over_the_int_digit_limit_is_typed(int_digit_limit):
    # int() refuses such text with a plain ValueError
    long = "1" * (int_digit_limit + 1)
    for field in (Q, GF7, FloatField()):
        for token in (long, "-" + long, long + "/3", "3/" + long):
            with pytest.raises(BadValueTokenError, match=f"{len(token)} characters"):
                field.parse_token(token)
    assert Q.parse_token("1" * int_digit_limit) == Q.value(int("1" * int_digit_limit))


def test_decimal_token_round_trips():
    for x in [0.5, -1.25, 2.0, 1e-9, 123456.789, 3.141592653589793, -1.23456789e-12]:
        assert float(decimal_token(x)) == x
        assert "e" not in decimal_token(x)


def test_format_value_refuses_an_overflowed_float():
    # arithmetic on boxed floats is unchecked, so the product can leave the float range
    big = FloatField().value(1e300)
    for value in (big * big, -big * big):
        with pytest.raises(NonFiniteValueError, match="non-finite value -?inf"):
            FloatField().format_value(value)


def test_token_round_trip_through_format():
    rng = random.Random(7003)
    for _ in range(200):
        v = Q.value(rng.randint(-99, 99), rng.randint(1, 99))
        assert Q.parse_token(Q.format_value(v)) == v
        g = GF7.value(rng.randint(0, 6))
        assert GF7.parse_token(GF7.format_value(g)) == g


def test_format_value_refuses_another_fields_value():
    for field, value in [
        (Q, GF7.value(3)),
        (FloatField(), Q.value(1, 3)),
        (GF7, PrimeField(5).value(3)),
        (Q, FloatField().value(0.5)),
    ]:
        with pytest.raises(MixedFieldError):
            field.format_value(value)
    assert FloatField().format_value(FloatField().value(0.5)) == "0.5"
    assert Q.format_value(Q.value(1, 3)) == "1/3"


def test_value_refuses_a_denominator_with_a_field_value():
    for field in (Q, GF7, FloatField()):
        with pytest.raises(TypeError, match="denominator not allowed with a FieldValue"):
            field.value(field.one, 2)
        assert field.value(field.one) is field.one


def test_float_value_refuses_text():
    with pytest.raises(TypeError, match="cannot build a float value from str"):
        FloatField().value("x")
