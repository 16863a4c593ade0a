"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class ParseError(ConfigError):
    """Malformed config or instance file; message names the offending key/line."""


class ResourceError(RuntimeError):
    """A computation would exceed its memory budget."""
