"""Typed errors shared by every module.

Each error class corresponds to one failure mode the toolkit can report;
the CLI maps them onto stable exit codes.
"""


class NashresError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class DimensionMismatchError(NashresError):
    """A point or substitution does not match a polynomial's variable list."""


class UnknownVariableError(NashresError):
    """A variable name outside the object's variable list was referenced."""


class ParseError(NashresError):
    """Syntax or identifier error in polynomial text, with 1-based position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ValidationError(NashresError):
    """An input object violates a structural invariant (monicity, centering...)."""


class NotOnVarietyError(ValidationError):
    """Arc substitution produced a nonzero coefficient on a defining equation."""


class NotCenteredError(ValidationError):
    """A Tschirnhausen coefficient violates the centering bound at the origin."""


class MaxMultArcError(ValidationError):
    """The arc lies inside the top multiplicity stratum; contact invariants undefined."""


class InsufficientPrecisionError(NashresError):
    """A censored order blocked a comparison; more arc coefficients are needed."""

    exit_code = 3


class ExtensionRequiredError(NashresError):
    """The computation needs coefficients outside the rationals."""

    exit_code = 4


class IdentityViolationError(NashresError):
    """A machine-checked identity failed on a concrete witness."""

    exit_code = 5
