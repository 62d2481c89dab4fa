"""Exception types raised by the cfris library."""


class CfrisError(Exception):
    """Base class for all library errors."""


class ConfigError(CfrisError):
    """A configuration value violates an invariant. Carries the field name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class DimensionError(CfrisError):
    """Matrix/vector dimensions do not match the operation's contract."""


class ModelError(CfrisError):
    """A statistical model assumption is violated (e.g. non-PSD covariance)."""
