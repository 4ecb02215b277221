"""Exception hierarchy.

Three failure families are kept distinct because the CLI maps them to
different exit codes: configuration problems (exit 2), violated runtime
invariants (exit 1), and contract violations on operation inputs (exit 2).
"""


class HardyHeatError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HardyHeatError, ValueError):
    """A scenario, grid or CLI input is malformed or out of the supported range."""


class ParameterDomainError(ConfigError):
    """A mathematical parameter lies outside its admissible domain."""


class ContractError(HardyHeatError, ValueError):
    """An operation was called with inputs that violate its preconditions."""


class InvariantViolation(HardyHeatError, RuntimeError):
    """A structural property that the implementation guarantees failed to hold.

    This signals a bug (or a genuinely inconsistent state), never bad user input.
    """


class MonotonicityViolation(InvariantViolation):
    """Truncated evolutions fell as the cutoff k grew; a suite reports it as a failed check."""
