"""Exception types raised by the cfris library."""


class CfrisError(Exception):
    """Base class for all library errors."""


class ConfigError(CfrisError):
    """A configuration value violates an invariant. Carries the field name."""

    def __init__(self, field, message):
        super().__init__(field, message)   # as args, so that a pickled copy is built the same way
        self.field = field

    def __str__(self):
        return f"{self.field}: {self.args[1]}"


class DimensionError(CfrisError):
    """Matrix/vector dimensions do not match the operation's contract."""


class ModelError(CfrisError):
    """A statistical model assumption is violated (e.g. non-PSD covariance)."""
