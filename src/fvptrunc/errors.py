"""Exception types shared across the package.

Each type carries the CLI's exit code for it and the label that starts its
one stderr line (`fvptrunc.cli.main`; the table is in the README).  An
input outside what an operation covers is a `ConfigError`, whichever
check refuses it: a value out of its range, a parameter-choice rule given
both p and q or noise at or above rho, a bound regime mixed with the
other's parameter, or a linear mode with complex roots.
"""


class FvptruncError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class ExponentOverflowError(FvptruncError, ArithmeticError):
    """A computed value is not a finite double (an exponential factor, or
    a product or sum of them, left the double range); raised instead of
    silently producing inf, because callers must distinguish 'value too
    large to represent' from an actual numeric result."""

    label = "range error"


class NonConvergenceError(FvptruncError, RuntimeError):
    """Fixed-point iteration hit its iteration cap above tolerance.

    Carries the increment history so callers can diagnose stagnation.
    """

    exit_code = 3
    label = "solver did not converge"

    def __init__(self, message, increments=None, defect=None):
        super().__init__(message)
        self.increments = list(increments) if increments is not None else []
        self.defect = defect


class ReferenceRejectedError(FvptruncError, RuntimeError):
    """Self-convergence ladder did not contract at the expected rate."""

    exit_code = 3
    label = "reference rejected"


class ConfigError(FvptruncError, ValueError):
    """An input refused by its check: a config key, a CLI option or a
    library argument (the input policy's `spectral.require_*` raise it),
    an input outside the regime an operation covers, or invalid or
    unknown configuration content."""

    label = "config error"
