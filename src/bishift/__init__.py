"""Two-sided discrete linear systems over the integer lattice.

Laurent polynomial operators act on doubly-infinite signals by shifts
that read both past and future samples.  This package provides the
operator ring, the two computable signal representations (finite
support and lattice-periodic), the pairing that makes the shift the
adjoint of multiplication, behaviours cut out by polynomial matrices
with an exact periodic kernel solver, and text/CSV/PGM front ends.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> defining submodule ("io", "pgm" name themselves), imported on first use (PEP 562)
_EXPORTS = {
    name: module
    for module, names in {
        "errors": """BadMagicError BadValueTokenError BishiftError DecimalInExactFieldError
            DigitLimitError DimensionMismatchError DuplicateIndexError FieldSpecError
            FloatFieldUnsupportedError ImageWriteError InverseOfZeroError LatticeTooLargeError
            MixedFieldError NonFiniteValueError ParseError PeriodMismatchError PolySyntaxError
            RaggedMatrixError RankMismatchError RepresentationMismatchError SchemaError
            TruncatedPixelDataError VariableIndexOutOfRangeError ZeroDenominatorError""",
        "fields": "Field FieldValue FloatField PrimeField RationalField parse_field_spec",
        "io": "format_system io parse_system",
        "laurent": "LaurentPoly PolyMatrix System",
        "operators": "check_adjoint scalar_product shift shift_matrix",
        "parsing": "format_poly parse_poly",
        "pgm": "pgm",
        "sequences": "FiniteSeq KernelBasis PeriodicSeq SeqVector periodize poly_to_seq seq_to_poly",
        "systems": """enumerate_periodic_vectors kernel_dimension periodic_kernel_basis
            periodic_system_matrix""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_EXPORTS[name]}", __name__)
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
