"""Sparse multivariate Laurent polynomials, matrices over them, and their systems.

A Laurent polynomial in ``r`` variables is a finite map from exponent
vectors in Z^r to nonzero field values, held in the sparse container
that finite-support signals share (:mod:`bishift._sparse`).  Exponents
may be negative, so there is no natural dense layout; the sparse map is
the representation of record, with lexicographically sorted exponents
used whenever a deterministic order is needed.
"""

from __future__ import annotations

from ._sparse import SparseTerms, require_same_context
from .errors import RaggedMatrixError


class LaurentPoly(SparseTerms):
    """Element of F[X_1, X_1^-1, ..., X_r, X_r^-1] in canonical sparse form."""

    __slots__ = ()

    @classmethod
    def constant(cls, rank, field, value):
        return cls(rank, field, {(0,) * rank: value})

    @classmethod
    def one(cls, rank, field):
        return cls.constant(rank, field, field.one)

    @classmethod
    def monomial(cls, rank, field, alpha, value=None):
        return cls(rank, field, {tuple(alpha): field.one if value is None else value})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return super().__mul__(other)
        require_same_context(self, other)
        return LaurentPoly._wrap(
            self.rank, self.field, self.field._convolve(self._terms, other._terms)
        )

    def __str__(self):
        from .parsing import format_poly

        return format_poly(self)


class PolyMatrix:
    """Rectangular grid of Laurent polynomials sharing one rank and field."""

    __slots__ = ("rows", "cols", "rank", "field", "_entries")

    def __init__(self, entries):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise RaggedMatrixError("matrix needs at least one row and one column")
        width = len(grid[0])
        for row in grid:
            if len(row) != width:
                raise RaggedMatrixError(
                    f"row of length {len(row)} in a matrix of width {width}"
                )
        first = grid[0][0]
        for row in grid:
            for e in row:
                if not isinstance(e, LaurentPoly):
                    raise TypeError("matrix entries must be LaurentPoly")
                require_same_context(first, e)
        self.rows = len(grid)
        self.cols = width
        self.rank = first.rank
        self.field = first.field
        self._entries = grid

    @property
    def entries(self):
        return self._entries

    def entry(self, i, j) -> LaurentPoly:
        return self._entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self._entries == other._entries

    __hash__ = None

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, rank={self.rank}, field={self.field.spec()})"


class System:
    """Behaviour defined as ker R for a Laurent polynomial matrix R."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: PolyMatrix):
        if not isinstance(matrix, PolyMatrix):
            raise TypeError("a system is built from a PolyMatrix")
        self.matrix = matrix

    @property
    def k(self):
        return self.matrix.rows

    @property
    def l(self):
        return self.matrix.cols

    @property
    def rank(self):
        return self.matrix.rank

    @property
    def field(self):
        return self.matrix.field

    def contains(self, w) -> bool:
        """Membership test: does R o W vanish identically?

        For periodic W this is complete, because R o W is periodic with
        the same lattice and therefore zero everywhere as soon as it is
        zero on the fundamental domain.
        """
        # the shift needs the signal modules, which import this one
        from .operators import shift_matrix
        from .sequences import SeqVector

        if not isinstance(w, SeqVector):
            w = SeqVector([w])
        return shift_matrix(self.matrix, w).is_zero()

    def __repr__(self):
        return f"System({self.matrix!r})"
