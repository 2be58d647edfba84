"""Attention-gated Unet segmentation engine: tensors with reverse-mode
autodiff, NN kernels, hybrid channel/spatial attention, training, metrics,
dataset tooling, and a CLI."""

from .attention import channel_attention, hybrid_attention_block, spatial_attention
from .errors import (AusegError, ConfigError, ContractError, CorruptionError, DataError,
                     NumericError, ShapeError, TrainingError)
from .losses_metrics import (ConfusionMatrix, LossConfig, combined_loss, confusion_accumulate,
                             miou, pixel_accuracy)
from .tensor import Tape, Tensor, backward, grad_check
from .unet import UnetConfig, UnetModel, build_model, forward, predict_labels

__version__ = "0.1.0"
