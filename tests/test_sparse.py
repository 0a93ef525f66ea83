"""The shared sparse container: class identity, the terms view, raw storage."""

import json

import pytest

from bishift import io as formats
from bishift import pgm
from bishift.errors import RepresentationMismatchError
from bishift.fields import FieldValue, FloatField, PrimeField, RationalField
from bishift.io import parse_system
from bishift.laurent import LaurentPoly
from bishift.operators import shift
from bishift.parsing import parse_poly
from bishift.sequences import FiniteSeq, PeriodicSeq, periodize, poly_to_seq
from bishift.systems import periodic_kernel_basis

Q = RationalField()
GF7 = PrimeField(7)


class TestClassIdentity:
    def test_polynomial_and_signal_never_combine(self):
        # same rank, field and terms: only the class tells them apart
        d = LaurentPoly(1, Q, {(-1,): 2, (3,): 5})
        w = FiniteSeq(1, Q, {(-1,): 2, (3,): 5})
        for a, b in ((d, w), (w, d)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
        assert (d == w) is False
        assert (w == d) is False
        assert d != w
        assert poly_to_seq(d) == w

    def test_finite_and_periodic_refuse_each_other(self):
        fin = FiniteSeq.delta(1, GF7, (0,))
        per = PeriodicSeq(1, GF7, (2,), [1, 0])
        for a, b in ((fin, per), (per, fin)):
            with pytest.raises(RepresentationMismatchError):
                a + b
            with pytest.raises(RepresentationMismatchError):
                a - b

    @pytest.mark.parametrize("cls", [LaurentPoly, FiniteSeq])
    def test_other_rank_or_field_is_unequal(self, cls):
        d = cls(1, GF7, {(0,): 3})
        others = (cls(2, GF7, {(0, 0): 3}), cls(1, Q, {(0,): 3}), cls(1, PrimeField(5), {(0,): 3}))
        for other in others:
            assert d != other and other != d
            assert not d == other
        assert d == cls(1, PrimeField(7), {(0,): 10})

    def test_results_keep_their_class(self):
        d = LaurentPoly(2, Q, {(0, 1): 1})
        w = FiniteSeq(2, Q, {(1, 0): 1})
        assert all(type(x) is LaurentPoly for x in (d + d, d - d, -d, d * 3, 3 * d, d * d))
        assert all(type(x) is FiniteSeq for x in (w + w, w - w, -w, w * 3, 3 * w))


class TestTermsView:
    @pytest.mark.parametrize("cls", [LaurentPoly, FiniteSeq])
    def test_read_only(self, cls):
        d = cls(1, GF7, {(0,): 3})
        with pytest.raises(TypeError):
            d.terms[(0,)] = GF7.value(1)
        with pytest.raises(TypeError):
            d.terms[(1,)] = GF7.value(1)
        assert d == cls(1, GF7, {(0,): 3})

    @pytest.mark.parametrize("cls", [LaurentPoly, FiniteSeq])
    @pytest.mark.parametrize("field", [Q, GF7, FloatField(1e-3)])
    def test_values_are_field_values_of_the_container(self, cls, field):
        d = cls(2, field, {(0, 0): 1, (-1, 2): 2, (4, 4): 0})
        terms = d.terms
        assert len(terms) == 2
        assert set(terms) == {(0, 0), (-1, 2)}
        assert (0, 0) in terms and (4, 4) not in terms
        for k, v in terms.items():
            assert isinstance(v, FieldValue) and v.field == field
            assert v == d.coeff(k)
        assert terms[(-1, 2)] == field.value(2)
        with pytest.raises(KeyError):
            terms[(4, 4)]

    def test_periodic_values_are_field_values(self):
        w = PeriodicSeq(1, GF7, (3,), [1, 8, 0])
        assert isinstance(w.values, tuple)
        assert [v.payload for v in w.values] == [1, 1, 0]
        assert all(isinstance(v, FieldValue) and v.field == GF7 for v in w.values)


def _payloads(obj):
    if isinstance(obj, PeriodicSeq):
        return list(obj._values)
    return list(obj._terms.values())


class TestRawStorage:
    """Containers hold the field's raw payloads, never boxed FieldValues."""

    def test_constructors_and_operations(self):
        for field in (Q, GF7, FloatField()):
            d = LaurentPoly(1, field, {(0,): field.value(2), (1,): 3})
            w = FiniteSeq(1, field, {(0,): 1, (2,): field.value(5)})
            p = PeriodicSeq(1, field, (3,), [field.value(1), 2, 0])
            made = [
                d, w, p, d + d, d - d * 2, -d, d * d, field.value(3) * w,
                shift(d, w), shift(d, p), p + p, p - p, -p, p * 2, p.tile((2,)),
                periodize(w, (2,)), poly_to_seq(d),
            ]
            for obj in made:
                assert not any(isinstance(v, FieldValue) for v in _payloads(obj)), obj

    def test_readers_and_parsers(self, tmp_path):
        made = [parse_poly("3*X^-1 - 1/2*X^2", 1, Q)]
        image = tmp_path / "a.pgm"
        image.write_bytes(b"P5\n2 1\n255\n\x00\x80")
        made.append(pgm.read_pgm(image)[0])
        doc = tmp_path / "p.json"
        doc.write_text(json.dumps({"rank": 1, "field": "gf:7", "periods": [2], "values": ["3", "9"]}))
        made.extend(formats.read_periodic_json(doc))
        system = parse_system(
            json.dumps({"rank": 1, "field": "gf:7", "k": 1, "l": 1, "entries": [["X - 1"]]})
        )
        made.append(system.matrix.entry(0, 0))
        made.extend(periodic_kernel_basis(system, (3,)).basis[0])
        for obj in made:
            assert _payloads(obj) and not any(isinstance(v, FieldValue) for v in _payloads(obj))
