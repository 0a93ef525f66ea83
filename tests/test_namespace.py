"""The package namespace, resolved on first use, and equality of the plain records."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bishift
from bishift.errors import MixedFieldError
from bishift.fields import FloatField, PrimeField, RationalField, parse_field_spec
from bishift.sequences import KernelBasis, PeriodicSeq, SeqVector

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = """
    BadMagicError BadValueTokenError BishiftError DecimalInExactFieldError DigitLimitError
    DimensionMismatchError DuplicateIndexError Field FieldSpecError FieldValue FiniteSeq
    FloatField FloatFieldUnsupportedError ImageWriteError InverseOfZeroError KernelBasis
    LatticeTooLargeError LaurentPoly
    MixedFieldError NonFiniteValueError ParseError PeriodMismatchError PeriodicSeq PolyMatrix
    PolySyntaxError PrimeField RaggedMatrixError RankMismatchError RationalField
    RepresentationMismatchError SchemaError SeqVector System TruncatedPixelDataError
    VariableIndexOutOfRangeError ZeroDenominatorError check_adjoint enumerate_periodic_vectors
    format_poly format_system io kernel_dimension parse_field_spec parse_poly parse_system pgm
    periodic_kernel_basis periodic_system_matrix periodize poly_to_seq scalar_product
    seq_to_poly shift shift_matrix
""".split()


def test_public_names():
    assert bishift.__all__ == sorted(PUBLIC)


def test_each_name_is_its_defining_modules_object():
    for name in bishift.__all__:
        value = getattr(bishift, name)
        if name in ("io", "pgm"):
            assert value is sys.modules[f"bishift.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from bishift import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
    assert set(PUBLIC) | {"__version__"} <= set(dir(bishift))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solve'"):
        bishift.solve
    assert not hasattr(bishift, "dataclass")
    with pytest.raises(ImportError):
        exec("from bishift import solve", {})


def test_names_load_their_modules_on_first_use():
    probe = (
        "import sys, bishift\n"
        "print(sorted(m for m in sys.modules if m.startswith('bishift')))\n"
        "bishift.shift\n"
        "print(sorted(m for m in sys.modules if m.startswith('bishift')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    first, second = result.stdout.splitlines()
    assert first == "['bishift']"
    assert "'bishift.operators'" in second and "systems" not in second


def test_fields_compare_hash_and_print_by_type_and_parameter():
    for spec, field, text in [
        ("gf:7", PrimeField(7), "PrimeField(p=7)"),
        ("float", FloatField(), "FloatField(tolerance=1e-09)"),
        ("float:1e-6", FloatField(1e-6), "FloatField(tolerance=1e-06)"),
        ("rational", RationalField(), "RationalField()"),
    ]:
        parsed = parse_field_spec(spec)
        assert parsed == field and not parsed != field and parsed is not field
        assert hash(parsed) == hash(field)
        assert repr(parsed) == repr(field) == text
    assert PrimeField(p=7) == PrimeField(7) != PrimeField(5)
    assert FloatField(1e-6) != FloatField()
    assert FloatField(tolerance=1e-9) == FloatField()
    assert RationalField() != PrimeField(7)
    assert RationalField() != "rational"
    assert len({RationalField(), RationalField(), PrimeField(7), PrimeField(7), FloatField()}) == 3


def test_kernel_basis_equality():
    q = RationalField()

    def basis(*values, field=q):
        return (SeqVector([PeriodicSeq(1, field, (2,), [Fraction(v) for v in values])]),)

    one = KernelBasis(1, q, (2,), basis(1, 1))
    assert one == KernelBasis(1, RationalField(), (2,), basis(1, 1))
    assert one != KernelBasis(1, q, (2,), basis(1, 2))
    gf7 = PrimeField(7)
    assert one != KernelBasis(1, gf7, (2,), basis(1, 1, field=gf7))
    with pytest.raises(MixedFieldError):
        KernelBasis(1, gf7, (2,), basis(1, 1))
    assert one != (1, q, (2,), basis(1, 1))
    assert one.dimension == 1
    assert repr(one).startswith("KernelBasis(rank=1, field=RationalField(), periods=(2,), basis=(")
