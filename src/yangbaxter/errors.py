"""Exception types shared across the package.

The CLI maps these onto exit codes: usage, parse and precondition problems
exit with 2, while a mathematically false claim (a non-solution, a failed
property check) exits with 1 and is never raised as an exception.
"""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class FieldError(AlgebraError):
    """Invalid field construction (non-prime modulus, bad radicand)."""


class DegenerateExtensionError(FieldError):
    """Quadratic extension requested with a radicand that is already a square."""


class FieldMismatchError(AlgebraError):
    """Operands belong to different coefficient fields."""


class DimensionError(AlgebraError):
    """Matrix or vector dimensions are incompatible."""


class ParseError(AlgebraError):
    """Malformed textual input.

    Carries optional ``line``/``column`` (1-based) context for file input
    and ``row``/``col`` (0-based) context for matrix entries.
    """

    def __init__(self, message, *, line=None, column=None, row=None, col=None):
        parts = [message]
        if line is not None:
            parts.append(f"(line {line}, column {column})")
        if row is not None:
            parts.append(f"(row {row}, col {col})")
        super().__init__(" ".join(parts))
        self.line = line
        self.column = column
        self.row = row
        self.col = col


class PreconditionError(AlgebraError):
    """A property check was invoked outside its stated hypotheses."""


class SideConditionError(AlgebraError):
    """Family parameters violate the algebraic side condition of the family."""


class ConstructionError(AlgebraError):
    """``two_block_offdiag`` assembled a matrix that fails its residual check."""


class BudgetError(AlgebraError):
    """Exhaustive enumeration would exceed the candidate budget."""


class PairCapError(AlgebraError):
    """Buchberger's algorithm exceeded the S-pair processing cap."""
