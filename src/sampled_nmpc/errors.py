"""Exception hierarchy for the sampled-NMPC library."""


class SampledNmpcError(Exception):
    """Base class for all library errors."""


class ContractViolationError(SampledNmpcError, ValueError):
    """An argument violates a documented precondition (dimensions, bounds, finiteness)."""


class InfeasibleWarmStartError(SampledNmpcError):
    """The warm-start plan handed to the solver fails the feasibility check."""


class NoOracleError(SampledNmpcError):
    """Random search exhausted its budget without finding a feasible plan."""


class WarmStartFailureError(SampledNmpcError):
    """The append search found no input stepping the predicted end state into the terminal set."""


class NoTerminalLawError(SampledNmpcError):
    """The plant has no terminal feedback law."""


class ConfigError(SampledNmpcError, ValueError):
    """An experiment configuration is malformed or inconsistent."""
