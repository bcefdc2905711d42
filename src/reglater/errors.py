"""Exception types shared across the package."""


class ReglaterError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ReglaterError):
    """Inconsistent or invalid specification objects / config files."""


class SamplingError(ReglaterError):
    """Simulation cannot proceed (e.g. rejection sampling would stall)."""


class BasisConstructionError(ReglaterError):
    """Sieve basis cannot be built (degenerate bins, bin masses off 1/K, ...)."""


class UnsupportedOracleError(ReglaterError):
    """No conditional-expectation oracle for the requested payoff."""
