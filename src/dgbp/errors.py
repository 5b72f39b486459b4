"""Exception types shared across the package."""


class DgbpError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(DgbpError, ValueError):
    """An array argument has the wrong shape for the requested dimension."""


class NegativeDeterminant(DgbpError, ValueError):
    """A squared-distance matrix cannot be realised by any point set."""


class DegenerateSpan(DgbpError, ValueError):
    """Anchor points fail the strict simplex inequality (no hyperplane)."""


class ParseError(DgbpError, ValueError):
    """A text file does not follow the expected grammar."""

    def __init__(self, message: str, line: int | None = None, code: str | None = None):
        self.line = line
        self.code = code
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class GenericityFailure(DgbpError, RuntimeError):
    """The random generator could not escape near-degenerate windows."""


class InvalidInstance(DgbpError, ValueError):
    """An instance fails validation and cannot be solved."""


class NodeBudgetExceeded(DgbpError, RuntimeError):
    """The search hit its node budget; the partial result is attached."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class BudgetExceeded(DgbpError, RuntimeError):
    """The requested exhaustive computation is beyond the hard size cap."""


class TreeDiscarded(DgbpError, RuntimeError):
    """The operation needs the search tree, but it was not retained."""


class GroupTooLarge(DgbpError, RuntimeError):
    """Refusing to materialise a group with more than 2**24 elements."""


class NoSiblingBranch(DgbpError, ValueError):
    """The solution's search path does not branch both ways at this vertex."""


class SubtreeNotFull(DgbpError, ValueError):
    """A node in the examined level range is missing a feasible child."""


class AmbiguousSpectrum(DgbpError, RuntimeError):
    """Distance clusters are too close to separate at the given tolerance."""
