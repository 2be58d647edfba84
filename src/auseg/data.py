"""Dataset IO (binary PPM/PGM), synthetic scene generation, augmentations,
and deterministic batching.

On-disk layout: ``<root>/<split>/<id>_img.ppm`` paired with
``<id>_lab.pgm``. Headers are single whitespace-delimited ``P6|P5 W H 255``
with no comment support; everything is parsed without third-party decoders.
The synthetic generator paints class-colored rectangles and circles over a
dark background -- labels are the exact painted geometry, so the task is
learnable from color alone.
"""
from __future__ import annotations

import colorsys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .losses_metrics import DEFAULT_IGNORE
from .tensor import Tensor
from .unet import LabelMap

IMG_SUFFIX = "_img.ppm"
LAB_SUFFIX = "_lab.pgm"
MAX_CLASSES = 32


@dataclass
class Sample:
    image: np.ndarray  # [C, H, W] float64 in [0, 1]
    label: LabelMap    # [H, W] int64
    id: str


@dataclass
class DatasetSpec:
    root: Path
    split: str
    num_classes: int
    ignore_index: int = DEFAULT_IGNORE


# ---------------------------------------------------------------------------
# PPM (P6) / PGM (P5) parsing and writing


def _parse_netpbm(raw: bytes, path, magic: bytes, channels: int) -> tuple[np.ndarray, int]:
    """Parse a binary PPM/PGM, returning the pixels and the byte offset of the data."""
    if raw[:2] != magic:
        raise DataError(f"{path}: expected magic {magic.decode()} at byte 0, "
                        f"got {raw[:2]!r}")
    pos = 2
    fields, starts = [], []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token:
            raise DataError(f"{path}: truncated header at byte {start}")
        if not token.isdigit():
            raise DataError(f"{path}: non-numeric header token {token!r} at byte {start}")
        fields.append(int(token))
        starts.append(start)
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DataError(f"{path}: degenerate extents {width}x{height} in header "
                        f"at byte {starts[0]}")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported, got {maxval} at byte {starts[2]}")
    if pos >= len(raw) or not raw[pos:pos + 1].isspace():
        raise DataError(f"{path}: expected single whitespace after maxval at byte {pos}")
    pos += 1
    expected = width * height * channels
    payload = raw[pos:]
    if len(payload) != expected:
        raise DataError(f"{path}: expected {expected} data bytes at byte {pos}, "
                        f"found {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width), pos
    return arr.reshape(height, width, channels), pos


def read_ppm(path) -> np.ndarray:
    """Binary P6 -> uint8 [H, W, 3]."""
    return _parse_netpbm(Path(path).read_bytes(), path, b"P6", 3)[0]


def write_ppm(path, image: np.ndarray) -> None:
    image = np.asarray(image, dtype=np.uint8)
    h, w, c = image.shape
    if c != 3:
        raise DataError(f"{path}: PPM needs 3 channels, got {c}")
    Path(path).write_bytes(b"P6\n%d %d\n255\n" % (w, h) + image.tobytes())


def write_pgm(path, label: np.ndarray) -> None:
    label = np.asarray(label, dtype=np.uint8)
    h, w = label.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + label.tobytes())


def load_sample(image_path, label_path, spec: DatasetSpec) -> Sample:
    """Parse one image/label pair, scaling the image to [0, 1]."""
    rgb = read_ppm(image_path)
    lab, data_offset = _parse_netpbm(Path(label_path).read_bytes(), label_path, b"P5", 1)
    if rgb.shape[:2] != lab.shape:
        raise DataError(f"extent mismatch: {image_path} is {rgb.shape[1]}x{rgb.shape[0]} "
                        f"but {label_path} is {lab.shape[1]}x{lab.shape[0]}")
    bad = (lab >= spec.num_classes) & (lab != spec.ignore_index)
    if np.any(bad):
        idx = int(np.argwhere(bad.reshape(-1))[0][0])
        raise DataError(f"{label_path}: label value {int(lab.reshape(-1)[idx])} >= "
                        f"{spec.num_classes} and != ignore {spec.ignore_index} "
                        f"at byte {data_offset + idx}")
    image = rgb.astype(np.float64).transpose(2, 0, 1) / 255.0
    stem = Path(image_path).name
    if stem.endswith(IMG_SUFFIX):
        stem = stem[: -len(IMG_SUFFIX)]
    return Sample(image=image, label=lab.astype(np.int64), id=stem)


def load_split(spec: DatasetSpec) -> list[Sample]:
    """Load every pair under ``root/split``, sorted by id; unpaired files error."""
    directory = Path(spec.root) / spec.split
    if not directory.is_dir():
        raise DataError(f"dataset split directory not found: {directory}")
    images = {p.name[: -len(IMG_SUFFIX)]: p for p in directory.glob(f"*{IMG_SUFFIX}")}
    labels = {p.name[: -len(LAB_SUFFIX)]: p for p in directory.glob(f"*{LAB_SUFFIX}")}
    missing_lab = sorted(set(images) - set(labels))
    missing_img = sorted(set(labels) - set(images))
    if missing_lab or missing_img:
        raise DataError(f"unpaired files in {directory}: images without labels "
                        f"{missing_lab}, labels without images {missing_img}")
    if not images:
        raise DataError(f"no samples found in {directory}")
    return [load_sample(images[sid], labels[sid], spec) for sid in sorted(images)]


def save_sample(directory, sample: Sample) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rgb = np.clip(np.round(sample.image * 255.0), 0, 255).astype(np.uint8).transpose(1, 2, 0)
    write_ppm(directory / f"{sample.id}{IMG_SUFFIX}", rgb)
    write_pgm(directory / f"{sample.id}{LAB_SUFFIX}", sample.label.astype(np.uint8))


# ---------------------------------------------------------------------------
# synthetic dataset


def class_color(cls: int) -> tuple[float, float, float]:
    """Deterministic, well-separated palette; class 0 is a dark background."""
    if cls == 0:
        return (0.12, 0.12, 0.12)
    hue = (cls * 0.61803398875) % 1.0
    return colorsys.hsv_to_rgb(hue, 0.85, 0.9)


def synth_generate(n: int, h: int, w: int, k: int, rng: np.random.Generator,
                   noise_sigma: float = 0.05, id_prefix: str = "synth") -> list[Sample]:
    """Generate n scenes: k-1 shapes (rectangles/circles), one class each."""
    if k < 2:
        raise ConfigError(f"need at least 2 classes, got {k}")
    if k > MAX_CLASSES:
        raise ConfigError(f"palette supports at most {MAX_CLASSES} classes, got {k}")
    if h < 16 or w < 16:
        raise ConfigError(f"extents must be >= 16, got {h}x{w}")
    ys, xs = np.ogrid[0:h, 0:w]
    half_lo, half_hi = max(2, min(h, w) // 10), max(3, min(h, w) // 4)
    palette = np.array([class_color(cls) for cls in range(k)]).T  # [3, k]
    samples = []
    for i in range(n):
        label = np.zeros((h, w), dtype=np.int64)
        for cls in range(1, k):
            cy = int(rng.integers(half_hi, h - half_hi))
            cx = int(rng.integers(half_hi, w - half_hi))
            if rng.random() < 0.5:
                ay = int(rng.integers(half_lo, half_hi + 1))
                ax = int(rng.integers(half_lo, half_hi + 1))
                mask = (np.abs(ys - cy) <= ay) & (np.abs(xs - cx) <= ax)
            else:
                radius = int(rng.integers(half_lo, half_hi + 1))
                mask = (ys - cy) ** 2 + (xs - cx) ** 2 <= radius ** 2
            label[mask] = cls
        image = np.take(palette, label, axis=1)  # [3, H, W], C-contiguous
        if noise_sigma > 0:
            image = image + rng.normal(0.0, noise_sigma, size=image.shape)
        image = np.clip(image, 0.0, 1.0)
        samples.append(Sample(image=image, label=label, id=f"{id_prefix}{i:04d}"))
    return samples


# ---------------------------------------------------------------------------
# augmentations (image and label always move together)


def check_crop(ch: int, cw: int, h: int, w: int) -> None:
    if ch > h or cw > w:
        raise ConfigError(f"crop {ch}x{cw} larger than image {h}x{w}")


def random_crop(s: Sample, ch: int, cw: int, rng: np.random.Generator) -> Sample:
    _, h, w = s.image.shape
    check_crop(ch, cw, h, w)
    top = int(rng.integers(0, h - ch + 1))
    left = int(rng.integers(0, w - cw + 1))
    return Sample(image=s.image[:, top:top + ch, left:left + cw].copy(),
                  label=s.label[top:top + ch, left:left + cw].copy(), id=s.id)


def horizontal_flip(s: Sample, rng: np.random.Generator, p: float = 0.5) -> Sample:
    if rng.random() >= p:
        return s
    return Sample(image=s.image[:, :, ::-1].copy(), label=s.label[:, ::-1].copy(), id=s.id)


def color_jitter(s: Sample, max_delta: float, rng: np.random.Generator) -> Sample:
    """Additive per-channel brightness shift, clamped; the label is untouched."""
    if not 0.0 <= max_delta <= 0.5:
        raise ConfigError(f"max_delta must lie in [0, 0.5], got {max_delta}")
    delta = rng.uniform(-max_delta, max_delta, size=(s.image.shape[0], 1, 1))
    return Sample(image=np.clip(s.image + delta, 0.0, 1.0), label=s.label, id=s.id)


Augmentation = Callable[[Sample, np.random.Generator], Sample]


def batch_iter(samples: Sequence[Sample], batch_size: int, shuffle: bool,
               rng: np.random.Generator | None = None,
               augmentations: Sequence[Augmentation] = ()) -> Iterator[tuple[Tensor, LabelMap]]:
    """Yield (images [N,C,H,W], labels [N,H,W]) batches for one epoch.

    Shuffling and per-sample augmentation draws consume ``rng`` in a fixed
    order, so (seed, data, config) fully determine every batch. The final
    short batch is emitted.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if (shuffle or augmentations) and rng is None:
        raise ConfigError("shuffle/augmentations require an rng")
    order = rng.permutation(len(samples)) if shuffle else np.arange(len(samples))
    for start in range(0, len(samples), batch_size):
        chunk = [samples[int(i)] for i in order[start:start + batch_size]]
        out = []
        for s in chunk:
            for aug in augmentations:
                s = aug(s, rng)
            out.append(s)
        extents = {(s.image.shape[1], s.image.shape[2]) for s in out}
        if len(extents) > 1:
            raise DataError(f"heterogeneous extents within batch: {sorted(extents)}")
        images = Tensor(np.stack([s.image for s in out]))
        labels = np.stack([s.label for s in out])
        yield images, labels
