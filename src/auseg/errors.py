"""Exception hierarchy shared by all modules, and ``check_range``, the range
check each config dataclass runs on its own fields.

Each class declares the exit code and stderr prefix ``cli.main`` reports it
with: see the exit-code table in the README.
"""
import math


class AusegError(Exception):
    """Base class for all errors raised by this package."""

    exit_code: int
    prefix: str


class ShapeError(AusegError):
    """Tensor shapes or extents violate an operation's contract."""

    exit_code = 3
    prefix = "error"


class ContractError(AusegError):
    """A call precondition was violated (non-scalar backward root, empty metrics, ...)."""

    exit_code = 3
    prefix = "error"


class ConfigError(AusegError):
    """Invalid configuration value, unknown key, or inconsistent model settings."""

    exit_code = 2
    prefix = "config error"


class DataError(AusegError):
    """Malformed dataset file, label out of range, or mismatched image/label pair."""

    exit_code = 3
    prefix = "data error"


class NumericError(AusegError):
    """Non-finite value where the contract requires finite ones (a loss, a gradient)."""

    exit_code = 4
    prefix = "numeric failure"


class CorruptionError(AusegError):
    """Checkpoint file failed CRC or structural validation."""

    exit_code = 5
    prefix = "corrupt checkpoint"


def check_range(owner, key: str, lo: float, hi: float = math.inf) -> None:
    """The config check of one field: ``owner.key`` must lie in [lo, hi]."""
    value = getattr(owner, key)
    if not lo <= value <= hi:
        raise ConfigError(f"{key} must lie in [{lo:g}, {hi:g}], got {value}")
