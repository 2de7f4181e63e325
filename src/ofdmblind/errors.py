"""Exception types shared across the package, and `check_count`, the one
rule every config applies to its counts (N, P, L, M, K, trials, seed)."""
import numbers


class OfdmBlindError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OfdmBlindError):
    """Invalid parameters, rejected where they enter: by the exported
    names in `ofdmblind.__all__` and by the CLI. Internal helpers trust
    what these have checked."""


class DataError(OfdmBlindError):
    """Input data cannot support the requested operation."""


def check_count(name: str, value, low: int) -> None:
    """Refuse `value` unless it is an integer (numpy's too) of at least `low`."""
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
