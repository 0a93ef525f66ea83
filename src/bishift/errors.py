"""Exception types shared across the package."""


class BishiftError(Exception):
    """Base class for all errors raised by this package."""


class MixedFieldError(BishiftError):
    """Operands come from different coefficient fields."""


class RankMismatchError(BishiftError):
    """An exponent or operand has the wrong number of axes."""


class PeriodMismatchError(BishiftError):
    """Periodic operands have different period lattices."""


class RepresentationMismatchError(BishiftError):
    """Finite-support and periodic signals were mixed in one operation."""


class DimensionMismatchError(BishiftError):
    """Matrix and signal-vector dimensions are incompatible."""


class RaggedMatrixError(BishiftError):
    """Matrix rows have inconsistent lengths."""


class NonFiniteValueError(BishiftError):
    """A float-field value is NaN, infinite or beyond the float range."""


class FloatFieldUnsupportedError(BishiftError):
    """The operation requires an exact field."""


class LatticeTooLargeError(BishiftError):
    """A kernel job exceeds a solver budget, checked before the work it bounds or during it.

    The budgets count what a solver holds and does: the rank-1 solver's
    coefficient operations (``_univariate.MAX_POLY_WORK``); the entries the
    rank >= 2 elimination holds (``systems.MAX_FILL``) and the entry updates
    it makes (``systems.MAX_UPDATES``); and the cells of any basis
    (``systems.MAX_KERNEL_CELLS``).
    """


class DigitLimitError(BishiftError):
    """A number to be written has more digits than int() reads back (the readers' limit)."""


class InverseOfZeroError(BishiftError, ZeroDivisionError):
    """A value that is zero in its field was inverted, such as a denominator that p divides."""


class ImageWriteError(BishiftError, ValueError):
    """An image cannot be written: a size its reader refuses, or a NaN or infinite sample.

    The reader refuses a width or height that is not an int >= 1 and a maxval that is
    not an int in 1..65535; a bool is neither.
    """


class ParseError(BishiftError):
    """Base class for text and file format errors.

    ``position`` is the 0-based byte offset into the input (UTF-8), when
    known.  ``expected`` lists what would have been accepted there.
    """

    def __init__(self, message, position=None, expected=None):
        self.position = position
        self.expected = tuple(expected) if expected else ()
        parts = [message]
        if position is not None:
            parts.append(f"at byte {position}")
        if self.expected:
            parts.append("expected " + " or ".join(self.expected))
        super().__init__(": ".join(parts))


class PolySyntaxError(ParseError):
    """Input does not match the polynomial expression grammar."""


class VariableIndexOutOfRangeError(ParseError):
    """Variable index outside 1..rank, or bare X with rank above 1."""


class DecimalInExactFieldError(ParseError):
    """Decimal literal used with an exact coefficient field."""


class ZeroDenominatorError(ParseError):
    """Fraction literal with a denominator that is zero in the field."""


class BadValueTokenError(ParseError):
    """Scalar token does not match any accepted form."""


class FieldSpecError(ParseError):
    """Unrecognized field selection string."""


class SchemaError(ParseError):
    """Structured document is missing fields or has the wrong shape."""


class DuplicateIndexError(ParseError):
    """The same index tuple appears twice in a sequence file."""


class BadMagicError(ParseError):
    """Image file does not start with a readable P5 header."""


class TruncatedPixelDataError(ParseError):
    """Image raster is shorter or longer than the header promises."""
