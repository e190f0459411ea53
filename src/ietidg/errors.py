"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid domain configuration or experiment specification."""


class NumericalError(RuntimeError):
    """A numerical stage failed (factorization, PCG breakdown, singular geometry)."""
