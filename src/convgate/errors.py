"""Exception types shared across the toolkit.

Each class carries the CLI exit code used when the error escapes a command:
invalid arguments exit 2, numerical-domain failures exit 3, degenerate
post-selection outcomes exit 4.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InvalidArgumentError(ToolkitError):
    """A caller-supplied value violates an operation's preconditions."""

    exit_code = 2


class NumericalDomainError(ToolkitError):
    """An input matrix is outside the numerical domain of the operation,
    e.g. significantly non-Hermitian or with eigenvalues below -1e-10."""

    exit_code = 3


class DegenerateOutcomeError(ToolkitError):
    """Post-selection never succeeds (output trace numerically zero)."""

    exit_code = 4
