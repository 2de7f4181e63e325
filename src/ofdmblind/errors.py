"""Exception types shared across the package."""


class OfdmBlindError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OfdmBlindError):
    """Invalid parameters, rejected where they enter: by the exported
    names in `ofdmblind.__all__` and by the CLI. Internal helpers trust
    what these have checked."""


class DataError(OfdmBlindError):
    """Input data cannot support the requested operation."""
