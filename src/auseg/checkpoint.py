"""Bit-exact binary checkpoint container.

Layout: magic ``AUSEG\\x01``; u32-LE length + UTF-8 config echo; then per
parameter: u32-LE name length, name bytes, u32-LE rank, u32-LE extents,
raw little-endian float64 data; finally CRC32 (u32-LE) of all preceding
bytes. save -> load -> save round-trips byte-identically.
"""
from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CorruptionError
from .tensor import MAX_RANK

MAGIC = b"AUSEG\x01"
MAX_NAME = 4096


def _write(fh, config_text: str, params: dict[str, np.ndarray]) -> None:
    """Stream the layout to binary file ``fh`` with a running CRC, each array
    from its own buffer: no copy of the whole file is held."""
    cfg = config_text.encode("utf-8")
    chunks = [MAGIC + struct.pack("<I", len(cfg)) + cfg]
    for name, arr in params.items():
        nb = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f8")
        chunks += [struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape),
                   memoryview(arr).cast("B")]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
        fh.write(chunk)
    fh.write(struct.pack("<I", crc))


def deserialize(blob: bytes) -> tuple[str, dict[str, np.ndarray]]:
    if len(blob) < len(MAGIC) + 8:
        raise CorruptionError(f"checkpoint too short ({len(blob)} bytes)")
    stored = struct.unpack("<I", blob[-4:])[0]
    body = memoryview(blob)[:-4]
    actual = zlib.crc32(body)
    if stored != actual:
        raise CorruptionError(f"checkpoint CRC mismatch: stored {stored:#010x}, "
                              f"computed {actual:#010x}")
    if blob[:len(MAGIC)] != MAGIC:
        raise CorruptionError(f"bad checkpoint magic {blob[:len(MAGIC)]!r}")
    pos = len(MAGIC)

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(body):
            raise CorruptionError(f"checkpoint truncated while reading {what} at byte {pos}")
        chunk = body[pos:pos + n]
        pos += n
        return chunk

    def take_u32(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    def take_text(n: int, what: str) -> str:
        start, raw = pos, take(n, what)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            bad = start + exc.start
        raise CorruptionError(f"checkpoint {what} is not UTF-8 at byte {bad}")

    config_text = take_text(take_u32("config length"), "config echo")
    params: dict[str, np.ndarray] = {}
    while pos < len(body):
        name_len = take_u32("name length")
        if name_len > MAX_NAME:
            raise CorruptionError(f"implausible parameter name length {name_len}")
        name = take_text(name_len, "name")
        if name in params:
            raise CorruptionError(f"duplicate parameter {name!r} in checkpoint")
        rank = take_u32("rank")
        if rank > MAX_RANK:
            raise CorruptionError(f"parameter {name!r} has unsupported rank {rank}")
        shape = tuple(take_u32("extent") for _ in range(rank))
        count = 1
        for extent in shape:
            if extent < 1:
                raise CorruptionError(f"parameter {name!r} has non-positive extent {extent}")
            count *= extent
        data = take(count * 8, f"data of {name!r}")
        params[name] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
    return config_text, params


def save_checkpoint(path, config_text: str, params: dict[str, np.ndarray]) -> None:
    """Write atomically: a synced temp file in the same directory replaces ``path``,
    so a crash mid-save leaves the previous file intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            _write(fh, config_text, params)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.is_file():
        raise CorruptionError(f"checkpoint not found: {path}")
    return deserialize(path.read_bytes())
