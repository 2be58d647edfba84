"""Flat ``key = value`` run configuration.

Every configurable of the model, loss, schedule, stopper, and data pipeline
maps to exactly one documented key. Unknown keys, keys given twice and
non-finite numbers are rejected. The fully resolved config (canonical key
order) is echoed into the run directory and embedded in checkpoints, so a
checkpoint alone reconstructs its model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .losses_metrics import LossConfig, inverse_frequency_weights
from .training import CosineSchedule, TrainSettings
from .unet import UnetConfig


@dataclass
class RunConfig:
    seed: int = 0
    epochs: int = 30
    batch_size: int = 16
    data_root: str = ""
    model_name: str = "ours"
    num_classes: int = 19
    ignore_index: int = 255
    depth: int = 4
    base_channels: int = 16
    attention_enabled: bool = True
    reduction_ratio: int = 4
    spatial_kernel: int = 7
    dropout_rate: float = 0.1
    attention_composition: str = "parallel"
    alpha: float = 0.5
    class_weights: str = "uniform"
    dice_smooth: float = 1e-6
    eta_max: float = 5e-4
    eta_min: float = 1e-6
    weight_decay: float = 0.01
    patience: int = 10
    min_delta: float = 1e-4
    crop_h: int = 0
    crop_w: int = 0
    flip_p: float = 0.5
    jitter_delta: float = 0.1

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for key, lo, hi in (("flip_p", 0, 1), ("alpha", 0, 1), ("jitter_delta", 0, 0.5),
                            ("weight_decay", 0, np.inf), ("patience", 0, np.inf),
                            ("min_delta", 0, np.inf), ("crop_h", 0, np.inf),
                            ("crop_w", 0, np.inf)):
            value = getattr(self, key)
            if not lo <= value <= hi:
                raise ConfigError(f"{key} must lie in [{lo:g}, {hi:g}], got {value}")
        if not self.dice_smooth > 0:
            raise ConfigError(f"dice_smooth must be positive, got {self.dice_smooth}")
        if not self.eta_max > 0:
            raise ConfigError(f"eta_max must be positive, got {self.eta_max}")
        if not 0 <= self.eta_min <= self.eta_max:
            raise ConfigError(f"eta_min must lie in [0, eta_max = {self.eta_max:g}], "
                              f"got {self.eta_min}")
        if (self.crop_h > 0) != (self.crop_w > 0):
            raise ConfigError("crop_h and crop_w must be set together (0 disables)")
        self.unet_config().validate()
        self.parse_class_weights()

    def unet_config(self) -> UnetConfig:
        return UnetConfig(num_classes=self.num_classes, depth=self.depth,
                          base_channels=self.base_channels,
                          attention_enabled=self.attention_enabled,
                          reduction_ratio=self.reduction_ratio,
                          spatial_kernel=self.spatial_kernel,
                          dropout_rate=self.dropout_rate,
                          attention_composition=self.attention_composition)

    def parse_class_weights(self) -> np.ndarray | None:
        """"uniform" -> None, "inverse" -> computed later, else comma floats."""
        spec = self.class_weights.strip()
        if spec in ("uniform", "inverse"):
            return None
        try:
            weights = np.array([float(tok) for tok in spec.split(",")], dtype=np.float64)
        except ValueError as exc:
            raise ConfigError(f"class_weights must be 'uniform', 'inverse', or comma-separated "
                              f"floats, got {spec!r}") from exc
        if weights.shape != (self.num_classes,):
            raise ConfigError(f"class_weights lists {weights.size} values for "
                              f"{self.num_classes} classes")
        if np.any(weights <= 0):
            raise ConfigError("class_weights must be positive")
        return weights

    def loss_config(self, train_labels=None) -> LossConfig:
        weights = self.parse_class_weights()
        if self.class_weights.strip() == "inverse":
            if train_labels is None:
                raise ConfigError("inverse class weights need the training split")
            weights = inverse_frequency_weights(train_labels, self.num_classes,
                                                self.ignore_index)
        return LossConfig(alpha=self.alpha, class_weights=weights,
                          dice_smooth=self.dice_smooth, ignore_index=self.ignore_index)

    def train_settings(self, loss_cfg: LossConfig) -> TrainSettings:
        return TrainSettings(
            epochs=self.epochs, batch_size=self.batch_size, seed=self.seed, loss=loss_cfg,
            schedule=CosineSchedule(eta_max=self.eta_max, eta_min=self.eta_min,
                                    total_epochs=self.epochs),
            weight_decay=self.weight_decay, patience=self.patience, min_delta=self.min_delta,
            flip_p=self.flip_p, jitter_delta=self.jitter_delta,
            crop_h=self.crop_h, crop_w=self.crop_w)

    def resolved_text(self) -> str:
        lines = [f"{f.name} = {_format_value(getattr(self, f.name))}"
                 for f in fields(RunConfig)]
        return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _parse_value(key: str, raw: str, target_type: type):
    raw = raw.strip()
    try:
        if target_type is bool:
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError(raw)
            return low == "true"
        if target_type is int:
            return int(raw)
        if target_type is not float:
            return raw
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as "
                          f"{target_type.__name__}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {raw!r}")
    return value


# Keys that are gone but that config echoes in older checkpoints still carry:
# key -> (type, the values that were valid then, that rule in words). Any
# other value is rejected; a valid one configures nothing.
_RETIRED = {
    "normalization": (str, lambda v: v == "identity", "must be identity"),
    "threads": (int, lambda v: v >= 1, "must be >= 1"),
    "in_channels": (int, lambda v: v == 3, "must be 3 (images are RGB PPM)"),
}


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
    known = {f.name: f.type for f in fields(RunConfig)}
    types = {"int": int, "float": float, "str": str, "bool": bool}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"config key {key!r} given twice: lines {seen[key]} and {lineno}")
        seen[key] = lineno
        if key in _RETIRED:
            kind, valid, rule = _RETIRED[key]
            if not valid(_parse_value(key, raw, kind)):
                raise ConfigError(f"retired key {key} {rule}, got {raw.strip()!r}")
            continue
        if key not in known:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        setattr(cfg, key, _parse_value(key, raw, types[known[key]]))
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())
