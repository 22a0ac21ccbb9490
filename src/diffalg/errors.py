"""Exception types shared across the toolkit.

Domain errors (a well-formed request whose answer does not exist) derive from
DiffAlgError; malformed input text raises ParseError instead.  Plain
ZeroDivisionError is reused for literal zero denominators.
"""


class DiffAlgError(Exception):
    """Base class for domain errors."""


class NotApplicable(DiffAlgError):
    """Operation undefined for this argument (e.g. separant of a constant)."""


class ShapeError(DiffAlgError):
    """Dimension mismatch between containers that must agree."""


class IncompleteAssignment(DiffAlgError):
    """Evaluation point misses an indeterminate the polynomial uses."""


class PoleAtBasePoint(DiffAlgError):
    """A coefficient has a pole at the requested expansion point."""


class NotFundamental(DiffAlgError):
    """Tuple of solutions has vanishing Wronskian."""


class SingularTransform(DiffAlgError):
    """Constant matrix is not invertible."""


class NotInCatalog(DiffAlgError):
    """Matrix group carries no catalog label."""


class DegeneratePoint(DiffAlgError):
    """Generic-point data makes a needed Wronskian vanish."""


class ParseError(Exception):
    """Rejected input text; column is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.message = message
        self.column = column


class MixedArity(ParseError):
    """Both bare x and indexed x1..x9 appear in one expression."""
