"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 3,
infeasible problem instances exit 4, violated runtime invariants exit 5.
"""


class ConfigurationError(ValueError):
    """A configuration value or combination of values is invalid."""


class TraceFormatError(ConfigurationError):
    """A trace breaks its rules, or its serialized form is corrupt,
    truncated, or has the wrong version."""


class InfeasibleError(ValueError):
    """The requested problem instance admits no feasible solution."""


class InvariantViolationError(RuntimeError):
    """A runtime invariant that should be impossible to break was broken."""
