"""Attention-gated Unet segmentation engine: tensors with reverse-mode
autodiff, NN kernels, hybrid channel/spatial attention, training, metrics,
dataset tooling, and a CLI."""

import ctypes

from .attention import channel_attention, hybrid_attention_block, spatial_attention
from .errors import (AusegError, ConfigError, ContractError, CorruptionError, DataError,
                     NumericError, ShapeError)
from .losses_metrics import LossConfig, combined_loss, confusion_accumulate, miou, pixel_accuracy
from .tensor import Tape, Tensor, backward, grad_check
from .unet import UnetConfig, UnetModel, build_model, forward, predict_labels

__version__ = "0.1.0"


def _keep_freed_heap() -> None:
    """Have glibc keep up to 64 MiB of freed heap instead of returning it to the
    system: a step frees and reallocates arrays of the same shapes, and each page
    given back is faulted in again by the next step. Only where arrays live
    changes, never their bits. Without glibc's ``mallopt`` this does nothing.

    Setting the pad also stops glibc from raising its mmap threshold as blocks
    are freed, so the threshold is pinned at 32 MiB, the most glibc would raise
    it to. A request above 32 MiB that the heap top cannot hold is mmapped and
    faulted in on every call, as it would be without the pad."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
        libc.mallopt(-2, 64 << 20)    # M_TOP_PAD
    except (AttributeError, OSError, TypeError):
        pass


_keep_freed_heap()
