import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from auseg import checkpoint
from auseg.checkpoint import MAGIC, deserialize, load_checkpoint, save_checkpoint
from auseg.errors import CorruptionError
from auseg.training import init_rng
from auseg.unet import UnetConfig, build_model


def rng(seed=0):
    return np.random.default_rng(seed)


def sample_params(seed=0):
    r = rng(seed)
    return {
        "enc0.conv1.kernel": r.normal(size=(4, 3, 3, 3)),
        "enc0.conv1.bias": r.normal(size=4),
        "head.kernel": r.normal(size=(2, 4, 1, 1)),
    }


def saved_bytes(tmp_path, config_text, params) -> bytes:
    """The file ``save_checkpoint`` writes for ``config_text`` and ``params``."""
    path = tmp_path / "saved.ckpt"
    save_checkpoint(path, config_text, params)
    return path.read_bytes()


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        params = sample_params()
        blob = saved_bytes(tmp_path, "seed = 0\n", params)
        cfg, loaded = deserialize(blob)
        assert cfg == "seed = 0\n"
        blob2 = saved_bytes(tmp_path, cfg, loaded)
        assert blob2 == blob

    def test_values_bit_exact(self, tmp_path):
        params = sample_params(1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "x = 1\n", params)
        _, loaded = deserialize(path.read_bytes())
        assert list(loaded) == list(params)
        for name in params:
            assert loaded[name].tobytes() == params[name].tobytes()
            assert loaded[name].shape == params[name].shape

    def test_model_state_round_trip(self, tmp_path):
        model = build_model(UnetConfig(in_channels=3, num_classes=2, depth=1,
                                       base_channels=4, spatial_kernel=3), init_rng(3))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "cfg", model.state_arrays())
        _, loaded = load_checkpoint(path)
        model2 = build_model(UnetConfig(in_channels=3, num_classes=2, depth=1,
                                        base_channels=4, spatial_kernel=3), init_rng(999))
        model2.load_state_arrays(loaded)
        for name in model.params:
            assert model.params[name].data.tobytes() == model2.params[name].data.tobytes()

    def test_unicode_names_round_trip(self, tmp_path):
        params = {"enc0.kérnel": rng(4).normal(size=(2, 2))}
        _, loaded = deserialize(saved_bytes(tmp_path, "", params))
        assert list(loaded) == list(params)

    def test_magic_prefix(self, tmp_path):
        blob = saved_bytes(tmp_path, "", sample_params())
        assert blob.startswith(MAGIC)


def test_save_streams_without_copying_the_file(tmp_path):
    # 8 MiB of arrays: a save may hold one array's worth beyond them, never the whole file
    r = rng(7)
    state = {"a": r.normal(size=(64, 64, 8, 8)), "b": r.normal(size=(128, 64, 8, 8)),
             "c": r.normal(size=(64, 64, 8, 8))}
    path = tmp_path / "m.ckpt"
    tracemalloc.start()
    try:
        save_checkpoint(path, "cfg", state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < max(a.nbytes for a in state.values()) + 256 * 1024
    cfg, loaded = deserialize(path.read_bytes())
    assert cfg == "cfg" and list(loaded) == list(state)
    assert all(loaded[name].tobytes() == state[name].tobytes() for name in state)


class TestCorruption:
    def test_truncated_rejected(self, tmp_path):
        blob = saved_bytes(tmp_path, "cfg", sample_params())
        with pytest.raises(CorruptionError):
            deserialize(blob[:len(blob) // 2])

    def test_bit_flip_rejected(self, tmp_path):
        blob = bytearray(saved_bytes(tmp_path, "cfg", sample_params()))
        blob[20] ^= 0x40
        with pytest.raises(CorruptionError, match="CRC"):
            deserialize(bytes(blob))

    def test_bad_magic_rejected(self, tmp_path):
        blob = bytearray(saved_bytes(tmp_path, "cfg", sample_params()))
        blob[0] = ord("X")
        with pytest.raises(CorruptionError):
            deserialize(bytes(blob))

    def test_tiny_file_rejected(self):
        with pytest.raises(CorruptionError):
            deserialize(b"AU")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptionError):
            load_checkpoint(tmp_path / "nope.ckpt")

    @pytest.mark.parametrize("offset, what", [(len(MAGIC) + 4 + 2, "config echo"),
                                              (len(MAGIC) + 4 + 3 + 4 + 5, "name")])
    def test_non_utf8_text_rejected_with_byte_offset(self, tmp_path, offset, what):
        # "cfg" then the first name, "enc0.conv1.kernel"; the CRC is recomputed
        body = bytearray(saved_bytes(tmp_path, "cfg", sample_params())[:-4])
        body[offset] = 0xFF
        blob = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
        with pytest.raises(CorruptionError, match=f"{what} is not UTF-8 at byte {offset}$"):
            deserialize(blob)


class TestAtomicSave:
    def test_failed_save_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, "old", sample_params(0))
        before = path.read_bytes()
        assert list(tmp_path.iterdir()) == [path]

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, "new", sample_params(1))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
