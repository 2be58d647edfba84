"""Exception hierarchy shared by all modules, and ``check_range``, the range
check each config dataclass runs on its own fields.

Each class maps to one CLI exit code: see ``cli.main`` and the exit-code
table in the README.
"""
import math


class AusegError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AusegError):
    """Tensor shapes or extents violate an operation's contract."""


class ContractError(AusegError):
    """A call precondition was violated (non-scalar backward root, empty metrics, ...)."""


class ConfigError(AusegError):
    """Invalid configuration value, unknown key, or inconsistent model settings."""


class DataError(AusegError):
    """Malformed dataset file, label out of range, or mismatched image/label pair."""


class NumericError(AusegError):
    """Non-finite value surfaced where the contract requires finite results."""


class CorruptionError(AusegError):
    """Checkpoint file failed CRC or structural validation."""


class TrainingError(AusegError):
    """Optimizer-level failure, e.g. NaN gradient for a named parameter."""


def check_range(owner, key: str, lo: float, hi: float = math.inf) -> None:
    """The config check of one field: ``owner.key`` must lie in [lo, hi]."""
    value = getattr(owner, key)
    if not lo <= value <= hi:
        raise ConfigError(f"{key} must lie in [{lo:g}, {hi:g}], got {value}")
