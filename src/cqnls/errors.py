"""Exception types shared across the package."""


class ContractError(ValueError):
    """An operation was called with inputs violating its contract."""


class AccuracyError(RuntimeError):
    """A requested quantity cannot be computed to its stated tolerance."""


class ResolutionError(RuntimeError):
    """A rescaled or requested field would be unresolved on the grid."""


class ConfigError(ValueError):
    """An experiment configuration file is malformed."""
