import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auseg.data import (DatasetSpec, Sample, batch_iter, class_color, color_jitter,
                        horizontal_flip, load_sample, load_split, random_crop, read_ppm,
                        save_sample, synth_generate, write_pgm, write_ppm)
from auseg.errors import ConfigError, DataError


def rng(seed=0):
    return np.random.default_rng(seed)


def make_sample(seed=0, h=8, w=8, k=3):
    return synth_generate(1, max(16, h), max(16, w), k, rng(seed))[0]


def read_labels(path, h=2, w=2):
    """``path`` parsed as a label map by ``load_sample``, beside a black h x w image."""
    image = path.with_name("pair_img.ppm")
    write_ppm(image, np.zeros((h, w, 3), dtype=np.uint8))
    return load_sample(image, path, DatasetSpec(root=path.parent, split=".", num_classes=256)).label


class TestNetpbm:
    def test_round_trip_ppm(self, tmp_path):
        img = rng(1).integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_round_trip_pgm(self, tmp_path):
        lab = rng(2).integers(0, 4, size=(6, 4)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, lab)
        assert np.array_equal(read_labels(path, 6, 4), lab)

    def test_extremal_pixels(self, tmp_path):
        write_ppm(tmp_path / "w_img.ppm", np.full((2, 2, 3), 255, dtype=np.uint8))
        write_pgm(tmp_path / "w_lab.pgm", np.zeros((2, 2), dtype=np.uint8))
        spec = DatasetSpec(root=tmp_path, split=".", num_classes=2)
        s = load_sample(tmp_path / "w_img.ppm", tmp_path / "w_lab.pgm", spec)
        assert np.all(s.image == 1.0)
        assert np.all(s.label == 0)

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(DataError, match="byte 0"):
            read_ppm(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2")
        with pytest.raises(DataError, match="truncated header"):
            read_ppm(path)

    def test_non_numeric_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 x\n255\n....")
        with pytest.raises(DataError, match="non-numeric"):
            read_labels(path)

    def test_short_payload_reports_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(DataError, match="expected 4 data bytes at byte 11"):
            read_labels(path)

    def test_wrong_maxval(self, tmp_path):
        # the error names the first byte of the maxval token
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n15\n" + b"\x00" * 4)
        with pytest.raises(DataError, match="maxval 255 supported, got 15 at byte 7$"):
            read_labels(path)
        path.write_bytes(b"P5 2 2 65535\n" + b"\x00" * 8)
        with pytest.raises(DataError, match="got 65535 at byte 7$"):
            read_labels(path)

    def test_degenerate_extents_name_width_byte(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n  0 2\n255\n")
        with pytest.raises(DataError, match="degenerate extents 0x2 in header at byte 5$"):
            read_labels(path)


class TestLoadSample:
    def test_extent_mismatch_names_both_files(self, tmp_path):
        write_ppm(tmp_path / "a_img.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        write_pgm(tmp_path / "a_lab.pgm", np.zeros((4, 5), dtype=np.uint8))
        spec = DatasetSpec(root=tmp_path, split=".", num_classes=2)
        with pytest.raises(DataError) as err:
            load_sample(tmp_path / "a_img.ppm", tmp_path / "a_lab.pgm", spec)
        assert "a_img.ppm" in str(err.value) and "a_lab.pgm" in str(err.value)

    def test_label_out_of_range_reports_offset(self, tmp_path):
        write_ppm(tmp_path / "a_img.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        lab = np.zeros((2, 2), dtype=np.uint8)
        lab[1, 1] = 9
        write_pgm(tmp_path / "a_lab.pgm", lab)
        spec = DatasetSpec(root=tmp_path, split=".", num_classes=3)
        with pytest.raises(DataError, match="label value 9 .* at byte 14"):
            load_sample(tmp_path / "a_img.ppm", tmp_path / "a_lab.pgm", spec)

    def test_label_offset_with_non_canonical_header(self, tmp_path):
        # valid header with runs of whitespace: the data starts at byte 14, not 11
        write_ppm(tmp_path / "a_img.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        (tmp_path / "a_lab.pgm").write_bytes(b"P5  2   2\n255\n" + bytes([0, 0, 0, 9]))
        spec = DatasetSpec(root=tmp_path, split=".", num_classes=3)
        with pytest.raises(DataError, match="label value 9 .* at byte 17"):
            load_sample(tmp_path / "a_img.ppm", tmp_path / "a_lab.pgm", spec)

    def test_ignore_sentinel_allowed(self, tmp_path):
        write_ppm(tmp_path / "a_img.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        lab = np.full((2, 2), 255, dtype=np.uint8)
        lab[0, 0] = 1
        write_pgm(tmp_path / "a_lab.pgm", lab)
        spec = DatasetSpec(root=tmp_path, split=".", num_classes=2)
        s = load_sample(tmp_path / "a_img.ppm", tmp_path / "a_lab.pgm", spec)
        assert s.label[0, 1] == 255

    def test_synthetic_write_read_round_trip(self, tmp_path):
        sample = make_sample(seed=3)
        save_sample(tmp_path / "train", sample)
        spec = DatasetSpec(root=tmp_path, split="train", num_classes=3)
        loaded = load_split(spec)
        assert len(loaded) == 1
        assert loaded[0].id == sample.id
        assert np.array_equal(loaded[0].label, sample.label)
        # image quantized to 8 bits on disk
        assert np.max(np.abs(loaded[0].image - sample.image)) <= 0.5 / 255 + 1e-12

    def test_unpaired_files_rejected(self, tmp_path):
        d = tmp_path / "train"
        d.mkdir()
        write_ppm(d / "a_img.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        spec = DatasetSpec(root=tmp_path, split="train", num_classes=2)
        with pytest.raises(DataError, match="unpaired"):
            load_split(spec)


class TestSynth:
    def test_two_class_histogram(self):
        s = synth_generate(1, 16, 16, 2, rng(4))[0]
        values = np.unique(s.label)
        assert values.tolist() == [0, 1]

    def test_same_seed_identical(self):
        a = synth_generate(3, 16, 16, 3, rng(5))
        b = synth_generate(3, 16, 16, 3, rng(5))
        for x, y in zip(a, b):
            assert x.image.tobytes() == y.image.tobytes()
            assert x.label.tobytes() == y.label.tobytes()

    def test_nearest_centroid_on_noise_free_renders(self):
        samples = synth_generate(4, 32, 32, 4, rng(6), noise_sigma=0.0)
        palette = np.array([class_color(c) for c in range(4)])
        correct = total = 0
        for s in samples:
            pixels = s.image.reshape(3, -1).T
            dists = ((pixels[:, None, :] - palette[None]) ** 2).sum(axis=2)
            pred = np.argmin(dists, axis=1)
            correct += int((pred == s.label.reshape(-1)).sum())
            total += pred.size
        assert correct / total >= 0.90

    def test_image_range(self):
        for s in synth_generate(2, 16, 16, 3, rng(7)):
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_too_many_classes(self):
        with pytest.raises(ConfigError):
            synth_generate(1, 16, 16, 33, rng(8))

    def test_too_small(self):
        with pytest.raises(ConfigError):
            synth_generate(1, 8, 16, 3, rng(9))

    def test_k_below_two(self):
        with pytest.raises(ConfigError):
            synth_generate(1, 16, 16, 1, rng(10))


class TestAugmentations:
    def test_full_size_crop_identity(self):
        s = make_sample(seed=11)
        _, h, w = s.image.shape
        out = random_crop(s, h, w, rng(12))
        assert np.array_equal(out.image, s.image)
        assert np.array_equal(out.label, s.label)

    def test_crop_too_large(self):
        s = make_sample(seed=13)
        with pytest.raises(ConfigError):
            random_crop(s, 99, 4, rng(14))

    def test_flip_involution_forced(self):
        s = make_sample(seed=15)
        once = horizontal_flip(s, rng(16), p=1.0)
        twice = horizontal_flip(once, rng(17), p=1.0)
        assert np.array_equal(twice.image, s.image)
        assert np.array_equal(twice.label, s.label)

    def test_flip_probability_zero_identity(self):
        s = make_sample(seed=18)
        out = horizontal_flip(s, rng(19), p=0.0)
        assert out is s

    def test_jitter_zero_delta_identity(self):
        s = make_sample(seed=20)
        out = color_jitter(s, 0.0, rng(21))
        assert np.array_equal(out.image, s.image)

    def test_jitter_never_touches_label(self):
        s = make_sample(seed=22)
        out = color_jitter(s, 0.4, rng(23))
        assert np.array_equal(out.label, s.label)
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0

    def test_jitter_delta_bounds(self):
        s = make_sample(seed=24)
        with pytest.raises(ConfigError):
            color_jitter(s, 0.6, rng(25))


class TestBatchIter:
    def _samples(self, n, seed=26):
        return synth_generate(n, 16, 16, 3, rng(seed))

    def test_batch_sizes(self):
        batches = list(batch_iter(self._samples(10), 4, shuffle=False))
        assert [b[0].shape[0] for b in batches] == [4, 4, 2]
        assert batches[0][0].shape == (4, 3, 16, 16)
        assert batches[0][1].shape == (4, 16, 16)

    def test_same_seed_identical_batches(self):
        samples = self._samples(8)
        augs = [lambda s, r: horizontal_flip(s, r, 0.5),
                lambda s, r: color_jitter(s, 0.1, r)]
        a = [(im.data.tobytes(), lab.tobytes())
             for im, lab in batch_iter(samples, 3, True, rng(27), augs)]
        b = [(im.data.tobytes(), lab.tobytes())
             for im, lab in batch_iter(samples, 3, True, rng(27), augs)]
        assert a == b

    def test_shuffle_off_preserves_order(self):
        samples = self._samples(5)
        batches = list(batch_iter(samples, 2, shuffle=False))
        flat = np.concatenate([lab for _, lab in batches])
        expected = np.stack([s.label for s in samples])
        assert np.array_equal(flat, expected)

    def test_epoch_visits_every_sample_once(self):
        samples = self._samples(7)
        seen = []
        for images, labels in batch_iter(samples, 3, shuffle=True, rng=rng(28)):
            for row in labels:
                matches = [i for i, s in enumerate(samples) if np.array_equal(s.label, row)]
                seen.extend(matches[:1])
        assert sorted(seen) == list(range(7))

    def test_shuffle_without_rng_rejected(self):
        with pytest.raises(ConfigError):
            list(batch_iter(self._samples(4), 2, shuffle=True))


# ---------------------------------------------------------------------------
# property battery (hypothesis)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=250, deadline=None)
def test_prop_flip_involution(seed):
    r = np.random.default_rng(seed)
    s = Sample(image=r.uniform(0, 1, size=(3, 6, 7)), label=r.integers(0, 3, size=(6, 7)),
               id="s")
    twice = horizontal_flip(horizontal_flip(s, r, p=1.0), r, p=1.0)
    assert np.array_equal(twice.image, s.image)
    assert np.array_equal(twice.label, s.label)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))
@settings(max_examples=250, deadline=None)
def test_prop_crop_keeps_alignment(seed, ch, cw):
    r = np.random.default_rng(seed)
    label = r.integers(0, 5, size=(8, 8))
    # encode the label into the image so alignment is checkable after cropping
    image = np.repeat(label[None].astype(np.float64) / 8.0, 3, axis=0)
    out = random_crop(Sample(image=image, label=label, id="s"), ch, cw, r)
    assert out.image.shape == (3, ch, cw)
    assert np.array_equal(np.round(out.image[0] * 8.0).astype(np.int64), out.label)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=250, deadline=None)
def test_prop_jitter_label_invariant_and_range(seed, delta):
    r = np.random.default_rng(seed)
    s = Sample(image=r.uniform(0, 1, size=(3, 5, 5)), label=r.integers(0, 4, size=(5, 5)),
               id="s")
    out = color_jitter(s, delta, r)
    assert np.array_equal(out.label, s.label)
    assert out.image.min() >= 0.0 and out.image.max() <= 1.0


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_prop_epoch_coverage(seed, n, batch):
    r = np.random.default_rng(seed)
    samples = [Sample(image=np.full((1, 2, 2), i, dtype=np.float64),
                      label=np.zeros((2, 2), dtype=np.int64), id=str(i)) for i in range(n)]
    seen = []
    for images, _ in batch_iter(samples, batch, shuffle=True, rng=r):
        seen.extend(int(images.data[b, 0, 0, 0]) for b in range(images.shape[0]))
    assert sorted(seen) == list(range(n))


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=150, deadline=None)
def test_prop_seeded_batches_are_reproducible(seed):
    base = np.random.default_rng(seed ^ 0x5EED)
    samples = [Sample(image=base.uniform(0, 1, size=(2, 4, 4)),
                      label=base.integers(0, 3, size=(4, 4)), id=str(i)) for i in range(6)]
    augs = [lambda s, r: horizontal_flip(s, r, 0.5), lambda s, r: color_jitter(s, 0.2, r)]

    def run():
        out = []
        for im, lab in batch_iter(samples, 4, True, np.random.default_rng(seed), augs):
            out.append(im.data.tobytes() + lab.tobytes())
        return out

    assert run() == run()
