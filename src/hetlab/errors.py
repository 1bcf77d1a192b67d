"""Exception hierarchy shared across the library and the CLI.

CLI exit-code mapping: ValidationError -> 3, NumericalError -> 4,
argument/usage problems are raised as click.UsageError -> 2.
"""


class HetlabError(Exception):
    """Base class for all library errors."""


class ValidationError(HetlabError):
    """Malformed or out-of-domain input (bad distribution, matrix, file row)."""


class UndefinedOrderError(ValidationError):
    """The requested elasticity order q is outside the operation's domain."""


class NumericalError(HetlabError):
    """A computation failed numerically (singularity, divergence, overflow)."""


class SingularityError(NumericalError):
    """An index formula hit a pole (e.g. quadratic entropy approaching 1)."""


class ConvergenceError(NumericalError):
    """A series or iteration does not converge for the given parameters."""


class DegenerateDistanceError(NumericalError):
    """A constant distance matrix cannot be rescaled to [0, 1]."""


class DegeneratePoolError(NumericalError):
    """Moment-matched pooled covariance is numerically singular."""
