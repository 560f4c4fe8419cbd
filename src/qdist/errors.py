"""Exception types shared across the package.

Each class corresponds to one CLI exit code so that shell pipelines can
branch on the kind of failure (see cli module): input errors exit 1,
mathematical verdicts exit 2, size guards exit 3, numerical failures 4.
"""


class QdistError(Exception):
    """Base class for all package-specific errors."""


class InputError(QdistError, ValueError):
    """Malformed input: bad dimensions, broken invariants, unparseable files."""


class UncontrollableSystemError(QdistError):
    """A stage that requires a controllable system received an uncontrollable one."""


class DimensionGuardError(QdistError):
    """Problem size exceeds a safety guard that has no override; use a cheaper test."""


class NumericalError(QdistError, RuntimeError):
    """A numerical routine failed to converge or produced inconsistent results."""
