import json
import random

import pytest
from hypothesis import given

from strategies import single_polys

from bishift.errors import (
    BadValueTokenError,
    DecimalInExactFieldError,
    DigitLimitError,
    ParseError,
    PolySyntaxError,
    SchemaError,
    VariableIndexOutOfRangeError,
    ZeroDenominatorError,
)
from bishift._sparse import MAX_RANK
from bishift.fields import FloatField, PrimeField, RationalField
from bishift.io import format_system, parse_system
from bishift.laurent import LaurentPoly
from bishift.parsing import format_poly, parse_poly
from bishift.selftest import random_poly

Q = RationalField()
GF2 = PrimeField(2)
GF7 = PrimeField(7)
F = FloatField()


class TestParsePoly:
    def test_one_variable_example(self):
        d = parse_poly("5*X^-1 - 3*X^2", 1, Q)
        assert dict(d.terms) == {(-1,): Q.value(5), (2,): Q.value(-3)}

    def test_two_variable_example(self):
        d = parse_poly("X1^-1*X2 + 3*X1^2*X2^-2", 2, Q)
        assert dict(d.terms) == {(-1, 1): Q.value(1), (2, -2): Q.value(3)}

    def test_like_terms_cancel(self):
        assert parse_poly("X - X", 1, Q).is_zero()

    def test_constant_and_fraction_coefficients(self):
        d = parse_poly("1/2 + -3*X", 1, Q)
        assert d.coeff((0,)) == Q.value(1, 2)
        assert d.coeff((1,)) == Q.value(-3)

    def test_decimal_in_float_field(self):
        d = parse_poly("0.5*X^-1 + 0.5*X", 1, F)
        assert d.coeff((1,)) == F.value(0.5)

    def test_repeated_factors_accumulate(self):
        d = parse_poly("X*X*X^-1", 1, Q)
        assert dict(d.terms) == {(1,): Q.value(1)}

    def test_bare_x_in_rank_one_only(self):
        assert parse_poly("X1", 1, Q) == parse_poly("X", 1, Q)
        with pytest.raises(VariableIndexOutOfRangeError):
            parse_poly("X", 2, Q)

    def test_rank_bounded(self):
        assert parse_poly(f"X{MAX_RANK}", MAX_RANK, Q).support() == {(0,) * (MAX_RANK - 1) + (1,)}
        for rank in (0, True, MAX_RANK + 1, 10**8):
            with pytest.raises(ValueError, match="rank"):
                parse_poly("1", rank, Q)

    def test_whitespace_tolerated_around_terms(self):
        assert parse_poly("  5*X^-1   -  3*X^2 ", 1, Q) == parse_poly(
            "5*X^-1 - 3*X^2", 1, Q
        )


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "  ", "+", "-", "-X", "5X", "X^", "X^-", "2*", "2*3", "X X", "1 2",
         "*X", "1 +", "x", "X**2", "1/2.5", "X^^2", "(X)"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(PolySyntaxError):
            parse_poly(text, 1, Q)

    def test_variable_index_range(self):
        with pytest.raises(VariableIndexOutOfRangeError):
            parse_poly("X3", 2, Q)
        with pytest.raises(VariableIndexOutOfRangeError):
            parse_poly("X0", 1, Q)

    def test_decimal_rejected_in_exact_fields(self):
        with pytest.raises(DecimalInExactFieldError):
            parse_poly("0.5*X", 1, Q)
        with pytest.raises(DecimalInExactFieldError):
            parse_poly("0.5*X", 1, GF7)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            parse_poly("1/0*X", 1, Q)
        with pytest.raises(ZeroDenominatorError):
            parse_poly("1/7*X", 1, GF7)

    def test_float_coefficient_out_of_range(self):
        with pytest.raises(BadValueTokenError) as err:
            parse_poly("X + " + "9" * 400 + ".5*X^2", 1, F)
        assert err.value.position == 4
        with pytest.raises(BadValueTokenError):
            parse_poly("1" + "0" * 400, 1, F)

    def test_integers_over_the_int_digit_limit(self, int_digit_limit):
        # reported at the integer's own offset, as a syntax error
        long = "1" * (int_digit_limit + 1)
        for text, position in [
            ("X1^" + long, 3),
            ("1 + X2^-" + long, 7),
            ("X" + long, 1),
            ("3*X2^2*X" + long, 8),
        ]:
            with pytest.raises(PolySyntaxError) as err:
                parse_poly(text, 2, GF7)
            assert err.value.position == position
        with pytest.raises(BadValueTokenError) as err:
            parse_poly("X + " + long + "*X^2", 1, Q)
        assert err.value.position == 4

    def test_document_integer_over_the_int_digit_limit(self, int_digit_limit):
        text = '{"rank": ' + "1" * (int_digit_limit + 1) + "}"
        with pytest.raises(SchemaError):
            parse_system(text)

    def test_positions_are_byte_offsets(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("5*X^2 $", 1, Q)
        assert err.value.position == 6
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("µ", 1, Q)
        assert err.value.position == 0
        # the two-byte character before the bad token shifts the offset
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("1 + µ", 1, Q)
        assert err.value.position == 4

    def test_expected_set_reported(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("1 ? 2", 1, Q)
        assert "'+'" in err.value.expected


class TestFormatPoly:
    def test_orders_terms_ascending(self):
        d = parse_poly("-3*X^2 + 5*X^-1", 1, Q)
        assert format_poly(d) == "5*X^-1 - 3*X^2"

    def test_zero(self):
        assert format_poly(parse_poly("X - X", 1, Q)) == "0"

    def test_unit_coefficients(self):
        assert format_poly(parse_poly("X", 1, Q)) == "X"
        assert format_poly(parse_poly("-1*X", 1, Q)) == "-1*X"
        assert format_poly(parse_poly("1 - X", 1, Q)) == "1 - X"

    def test_gf_coefficients_have_no_sign(self):
        d = parse_poly("1 + X", 1, GF2)
        assert format_poly(d) == "1 + X"
        assert format_poly(parse_poly("-1*X", 1, GF7)) == "6*X"

    @pytest.mark.parametrize("field", [Q, GF2, GF7])
    def test_round_trip_seeded(self, field):
        rng = random.Random(1201)
        for _ in range(500):
            rank = rng.choice((1, 2, 3))
            d = random_poly(rng, rank, field, span=rng.choice((4, 10**6)))
            assert parse_poly(format_poly(d), rank, field) == d

    @given(single_polys())
    def test_round_trip_hypothesis(self, d):
        assert parse_poly(format_poly(d), d.rank, d.field) == d

    def test_float_round_trip(self):
        rng = random.Random(1202)
        for _ in range(200):
            d = random_poly(rng, 1, F)
            again = parse_poly(format_poly(d), 1, F)
            assert set(again.terms) == set(d.terms)
            for k, v in d.terms.items():
                assert again.terms[k].payload == v.payload

    def test_coefficient_over_the_int_digit_limit(self, int_digit_limit):
        # a valid product may have more digits than int() reads back: refused, typed
        d = parse_poly("9" * 3000 + "*X", 1, Q)
        assert format_poly(d) == "9" * 3000 + "*X"
        message = f"of 6000 digits: int\\(\\) reads at most {int_digit_limit}"
        with pytest.raises(DigitLimitError, match=message):
            format_poly(d * d)


def _random_junk(rng):
    n = rng.randint(0, 256)
    if rng.random() < 0.5:
        return rng.randbytes(n).decode("latin-1")
    alphabet = "X0123456789+-*/^. \t容"
    return "".join(rng.choice(alphabet) for _ in range(n))


@pytest.mark.parametrize("field", [Q, GF7, F])
def test_fuzz_never_crashes(field):
    rng = random.Random(1203)
    for _ in range(2000):
        text = _random_junk(rng)
        try:
            parse_poly(text, rng.choice((1, 2)), field)
        except ParseError:
            pass


class TestParseSystem:
    def test_two_variable_document(self):
        doc = {
            "rank": 1,
            "field": "rational",
            "k": 2,
            "l": 2,
            "entries": [["X + X^-1", "1"], ["0", "X^-1 - 1"]],
        }
        system = parse_system(json.dumps(doc))
        assert (system.k, system.l) == (2, 2)
        assert system.matrix.entry(0, 0) == parse_poly("X + X^-1", 1, Q)

    def test_difference_document(self):
        doc = {"rank": 1, "field": "gf:2", "k": 1, "l": 1, "entries": [["X - X^-1"]]}
        system = parse_system(json.dumps(doc))
        assert system.field == GF2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("rank"),
            lambda d: d.update(rank=0),
            lambda d: d.update(rank=True),
            lambda d: d.update(extra=1),
            lambda d: d.update(entries=[["X"], ["1"]]),
            lambda d: d.update(entries=[["X", "1"], ["X", "1"]]),
            lambda d: d.update(entries="X"),
            lambda d: d.update(entries=[["X", 5]]),
            lambda d: d.update(field=7),
        ],
    )
    def test_schema_errors(self, mutate):
        doc = {"rank": 1, "field": "rational", "k": 1, "l": 2, "entries": [["X", "1"]]}
        mutate(doc)
        with pytest.raises(SchemaError):
            parse_system(json.dumps(doc))

    def test_rank_above_bound_refused_before_entries(self):
        doc = {"rank": MAX_RANK, "field": "gf:7", "k": 1, "l": 2, "entries": [["1", "2"]]}
        assert parse_system(json.dumps(doc)).rank == MAX_RANK
        # the entry would not parse; the rank is refused first
        for rank in (MAX_RANK + 1, 10**9):
            doc.update(rank=rank, entries=[["1", "X^"]])
            with pytest.raises(SchemaError, match="rank"):
                parse_system(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(SchemaError):
            parse_system("{nope")
        with pytest.raises(SchemaError):
            parse_system("[1, 2]")

    def test_entry_errors_carry_position_context(self):
        doc = {"rank": 1, "field": "rational", "k": 1, "l": 2, "entries": [["X", "X^"]]}
        with pytest.raises(PolySyntaxError) as err:
            parse_system(json.dumps(doc))
        assert "(0,1)" in str(err.value)

    def test_format_system_round_trips(self):
        doc = {
            "rank": 1,
            "field": "gf:3",
            "k": 2,
            "l": 2,
            "entries": [["X + X^-1", "1"], ["0", "X^-1 - 1"]],
        }
        system = parse_system(json.dumps(doc))
        again = parse_system(format_system(system))
        assert again.matrix == system.matrix


# one table of scalar tokens, read on their own by Field.parse_token and as
# the coefficient of an expression by parse_poly
SCALAR_TOKENS = [
    "0", "7", "-3", "007", "-0", "-0.5", "0.25", "1/2", "-3/4", "6/14", "1/0", "1/7",
    "0.5", "9" * 400, "-" + "9" * 400, "9" * 400 + ".5", "0." + "3" * 400, "1/", "1.",
]


class TestOneScalarGrammar:
    @pytest.mark.parametrize("field", [Q, GF7, F, FloatField(1e-3)], ids=lambda f: f.spec())
    @pytest.mark.parametrize("prefix", ["", "X^-1 + "])
    def test_expression_reads_tokens_like_parse_token(self, field, prefix):
        start = len(prefix.encode())
        for tok in SCALAR_TOKENS:
            text = f"{prefix}{tok}*X"
            try:
                value = field.parse_token(tok)
            except ParseError as e:
                with pytest.raises(type(e)) as err:
                    parse_poly(text, 1, field)
                assert type(err.value) is type(e), tok
                assert err.value.position == start, tok
                continue
            expected = LaurentPoly(1, field, {(1,): value})
            if prefix:
                expected = expected + parse_poly("X^-1", 1, field)
            assert parse_poly(text, 1, field) == expected, tok

    @pytest.mark.parametrize("field", [Q, GF7, F], ids=lambda f: f.spec())
    def test_fraction_then_decimal_splits_in_an_expression(self, field):
        # as a whole token "1/2.5" matches no form; in an expression the
        # coefficient scan stops after "1/2", and no production takes ".5"
        with pytest.raises(BadValueTokenError):
            field.parse_token("1/2.5")
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("1/2.5*X", 1, field)
        assert err.value.position == 3
