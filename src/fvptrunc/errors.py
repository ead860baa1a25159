"""Exception types shared across the package.

Each type carries the CLI's exit code for it and the label that starts its
one stderr line (`fvptrunc.cli.main`; the table is in the README).
"""


class FvptruncError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2
    label = "unsupported input"


class ExponentOverflowError(FvptruncError, ArithmeticError):
    """A computed value is not a finite double (an exponential factor, or
    a product or sum of them, left the double range); raised instead of
    silently producing inf, because callers must distinguish 'value too
    large to represent' from an actual numeric result."""

    label = "range error"


class UnsupportedRegimeError(FvptruncError, ValueError):
    """Inputs fall outside the parameter regime an operation covers
    (e.g. non-real mode roots, mixed smoothness regimes)."""


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


class NoiseTooLargeError(FvptruncError, ValueError):
    """Noise level too large for the parameter-choice rule to apply."""

    label = "config error"


class BracketError(FvptruncError, ValueError):
    """Root bracketing failed (no sign change on the given interval)."""


class ConfigError(FvptruncError, ValueError):
    """An input refused by its check: a config key, a CLI option or a
    library argument (the input policy's `spectral.require_*` raise it),
    or invalid or unknown configuration content."""

    label = "config error"
