"""Flat ``key = value`` run configuration.

Every configurable of the model, loss, schedule, stopper, and data pipeline
maps to exactly one documented key, declared once on the dataclass that owns
it: its type, its default and its range check. Unknown keys, keys given twice
and non-finite numbers are rejected. The fully resolved config (canonical key
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


class RunConfig:
    """Every key of ``KEYS`` as one attribute. Only the keys no sub-config owns
    are declared here; the dataclass fields are filled in from ``KEYS`` below."""

    data_root: str = ""
    model_name: str = "ours"
    class_weights: str = "uniform"  # "uniform", "inverse" or comma-separated floats

    def _part(self, owner, **rest):
        """The ``owner`` dataclass built from the keys it owns, which checks them."""
        return owner(**{key: getattr(self, key) for key, by in KEYS if by is owner}, **rest)

    def validate(self) -> None:
        """Each owner checks its own keys; only the checks that span two keys are here."""
        self.unet_config()
        # with no labels to count, "inverse" weights come out uniform
        self.train_settings(self.loss_config(train_labels=()))
        if (self.crop_h > 0) != (self.crop_w > 0):
            raise ConfigError("crop_h and crop_w must be set together (0 disables)")

    def unet_config(self) -> UnetConfig:
        return self._part(UnetConfig)

    def loss_config(self, train_labels=None) -> LossConfig:
        """"inverse" class weights are counted from ``train_labels``."""
        spec = self.class_weights.strip()
        if spec == "inverse":
            if train_labels is None:
                raise ConfigError("inverse class weights need the training split")
            weights = inverse_frequency_weights(train_labels, self.num_classes,
                                                self.ignore_index)
        elif spec == "uniform":
            weights = None
        else:
            try:
                weights = np.array([float(tok) for tok in spec.split(",")])
            except ValueError as exc:
                raise ConfigError(f"class_weights must be 'uniform', 'inverse', or "
                                  f"comma-separated floats, got {spec!r}") from exc
            if weights.shape != (self.num_classes,):
                raise ConfigError(f"class_weights lists {weights.size} values for "
                                  f"{self.num_classes} classes")
        return self._part(LossConfig, class_weights=weights)

    def train_settings(self, loss_cfg: LossConfig) -> TrainSettings:
        # the settings check ``epochs`` under its own name before the schedule takes it
        settings = self._part(TrainSettings, loss=loss_cfg, schedule=None)
        settings.schedule = self._part(CosineSchedule, total_epochs=self.epochs)
        return settings

    def resolved_text(self) -> str:
        return "".join(f"{key} = {_format_value(getattr(self, key))}\n" for key, _ in KEYS)


# Every key with the dataclass that owns it, in canonical order: the order of
# resolved.cfg and of checkpoint echoes
KEYS = tuple((key, owner) for owner, keys in (
    (TrainSettings, "seed epochs batch_size"), (RunConfig, "data_root model_name"),
    (UnetConfig, "num_classes"), (LossConfig, "ignore_index"),
    (UnetConfig, "depth base_channels attention_enabled reduction_ratio spatial_kernel "
                 "dropout_rate attention_composition"),
    (LossConfig, "alpha"), (RunConfig, "class_weights"), (LossConfig, "dice_smooth"),
    (CosineSchedule, "eta_max eta_min"),
    (TrainSettings, "weight_decay patience min_delta crop_h crop_w flip_p jitter_delta"),
) for key in keys.split())
# one dataclass field per key, in KEYS order, with its owner's type and default
RunConfig.__annotations__ = {key: owner.__annotations__[key] for key, owner in KEYS}
for _key, _owner in KEYS:
    setattr(RunConfig, _key, getattr(_owner, _key))
dataclass(RunConfig)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}" if float(f"{value:.9g}") == value else repr(value)
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
    try:
        text = str(path.read_bytes(), "utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 at byte {exc.start}") from exc
    return parse_config_text(text)
