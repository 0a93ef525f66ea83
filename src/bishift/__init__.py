"""Two-sided discrete linear systems over the integer lattice.

Laurent polynomial operators act on doubly-infinite signals by shifts
that read both past and future samples.  This package provides the
operator ring, the two computable signal representations (finite
support and lattice-periodic), the pairing that makes the shift the
adjoint of multiplication, behaviours cut out by polynomial matrices
with an exact periodic kernel solver, and text/CSV/PGM front ends.
"""

from . import io
from .errors import (
    BadMagicError,
    BadValueTokenError,
    BishiftError,
    DecimalInExactFieldError,
    DimensionMismatchError,
    DuplicateIndexError,
    FieldSpecError,
    FloatFieldUnsupportedError,
    LatticeTooLargeError,
    MixedFieldError,
    NonFiniteValueError,
    ParseError,
    PeriodMismatchError,
    PolySyntaxError,
    RaggedMatrixError,
    RankMismatchError,
    RepresentationMismatchError,
    SchemaError,
    TruncatedPixelDataError,
    VariableIndexOutOfRangeError,
    ZeroDenominatorError,
)
from .fields import (
    Field,
    FieldValue,
    FloatField,
    PrimeField,
    RationalField,
    parse_field_spec,
)
from .laurent import LaurentPoly, PolyMatrix
from .operators import check_adjoint, scalar_product, shift, shift_matrix
from .parsing import format_poly, format_system, parse_poly, parse_system
from .sequences import (
    FiniteSeq,
    PeriodicSeq,
    SeqVector,
    periodize,
    poly_to_seq,
    seq_to_poly,
)
from .systems import (
    KernelBasis,
    System,
    enumerate_periodic_vectors,
    kernel_dimension,
    periodic_kernel_basis,
    periodic_system_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "BadValueTokenError",
    "BishiftError",
    "DecimalInExactFieldError",
    "DimensionMismatchError",
    "DuplicateIndexError",
    "Field",
    "FieldSpecError",
    "FieldValue",
    "FiniteSeq",
    "FloatField",
    "FloatFieldUnsupportedError",
    "KernelBasis",
    "LatticeTooLargeError",
    "LaurentPoly",
    "MixedFieldError",
    "NonFiniteValueError",
    "ParseError",
    "PeriodMismatchError",
    "PeriodicSeq",
    "PolyMatrix",
    "PolySyntaxError",
    "PrimeField",
    "RaggedMatrixError",
    "RankMismatchError",
    "RationalField",
    "RepresentationMismatchError",
    "SchemaError",
    "SeqVector",
    "System",
    "TruncatedPixelDataError",
    "VariableIndexOutOfRangeError",
    "ZeroDenominatorError",
    "check_adjoint",
    "enumerate_periodic_vectors",
    "format_poly",
    "format_system",
    "io",
    "kernel_dimension",
    "parse_field_spec",
    "parse_poly",
    "parse_system",
    "periodic_kernel_basis",
    "periodic_system_matrix",
    "periodize",
    "poly_to_seq",
    "scalar_product",
    "seq_to_poly",
    "shift",
    "shift_matrix",
]
