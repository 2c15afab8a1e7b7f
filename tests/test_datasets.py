import gzip
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedval import datasets
from fedval.config import config_from_dict
from fedval.datasets import (
    BackdoorSpec,
    Dataset,
    IdxFormatError,
    LabelFlipSpec,
    flip_labels,
    implant_backdoor,
    load_idx,
    partition_iid,
    partition_noniid_shards,
    synth_blobs,
    triggered_test_set,
)
from fedval.engine import TrainingConfig, participant_update, train_round
from fedval.experiments import prepare_experiment, prepare_validation
from fedval.models import ModelLayout, accuracy
from fedval.seeding import substream

from conftest import mean_label_entropy, reference_blobs


def write_idx_pair(tmp_path, images, labels, *, gz=False, image_magic=2051, label_magic=2049):
    """Serialize an image/label pair in the big-endian container layout."""
    count, rows, cols = images.shape
    image_bytes = struct.pack(">IIII", image_magic, count, rows, cols) + images.tobytes()
    label_bytes = struct.pack(">II", label_magic, len(labels)) + labels.tobytes()
    opener = gzip.open if gz else open
    suffix = ".gz" if gz else ""
    image_path = tmp_path / f"images.idx{suffix}"
    label_path = tmp_path / f"labels.idx{suffix}"
    with opener(image_path, "wb") as fh:
        fh.write(image_bytes)
    with opener(label_path, "wb") as fh:
        fh.write(label_bytes)
    return image_path, label_path


def reference_idx_parse(image_path, label_path):
    """Second, minimal parser used as an independent oracle."""
    raw = image_path.read_bytes()
    _, count, rows, cols = struct.unpack(">IIII", raw[:16])
    pixels = np.frombuffer(raw[16:], dtype=np.uint8).reshape(count, rows * cols)
    raw_labels = label_path.read_bytes()
    labels = np.frombuffer(raw_labels[8:], dtype=np.uint8)
    return pixels, labels


def digits_fixture(count=400, side=4, classes=10, seed=3):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(count, side, side), dtype=np.uint8)
    labels = (np.arange(count) % classes).astype(np.uint8)
    return images, labels


class TestBlobs:
    def test_deterministic(self):
        first = synth_blobs(50, 4, 3, 2.0, 9)
        second = synth_blobs(50, 4, 3, 2.0, 9)
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.labels, second.labels)

    def test_uniform_class_priors(self):
        data = synth_blobs(101, 4, 4, 2.0, 1)
        counts = np.bincount(data.labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_high_separation_is_linearly_separable(self):
        data = synth_blobs(90, 5, 3, 80.0, 2)
        layout = ModelLayout("logistic", 5, 3)
        cfg = TrainingConfig(layout, 1, 1.0, 25, 15, 0.5, seed=0)
        theta = participant_update(
            np.zeros(layout.param_count), data.features, data.labels, cfg,
            np.random.default_rng(0),
        )
        assert accuracy(layout, theta, data.features, data.labels) == 1.0

    @pytest.mark.parametrize("samples, classes", [(50, 3), (101, 4), (7, 7)])
    def test_matches_centers_plus_noise(self, samples, classes):
        """Bitwise the sum of each label's center and the noise, drawn from
        the same generator."""
        expected, labels = reference_blobs(samples, 6, classes, 2.5, 5)
        data = synth_blobs(samples, 6, classes, 2.5, 5)
        assert data.features.tobytes() == expected.tobytes()
        assert np.array_equal(data.labels, labels)

    def test_rejects_fewer_samples_than_classes(self):
        with pytest.raises(ValueError):
            synth_blobs(2, 4, 3, 1.0, 0)

    @pytest.mark.parametrize("skip, split", [(-1, None), (9, None), (0, 0), (3, 2), (0, 9)])
    def test_refuses_an_empty_part(self, skip, split):
        with pytest.raises(ValueError):
            synth_blobs(9, 4, 3, 1.0, 0, skip=skip, split=split)


@settings(max_examples=60, deadline=None)
@given(
    samples=st.integers(2, 61),
    features=st.integers(1, 9),
    classes=st.integers(2, 7),
    cut=st.data(),
    # 0 draws one row per chunk; 24 bytes three 1-feature rows.
    chunk_bytes=st.sampled_from([0, 24, datasets._CHUNK_BYTES]),
    seed=st.integers(0, 2**16),
)
def test_chunked_blobs_equal_one_draw(samples, features, classes, cut, chunk_bytes, seed):
    samples = max(samples, classes)
    skip = cut.draw(st.integers(0, samples - 1), label="skip")
    splits = st.none() if skip + 1 == samples else st.none() | st.integers(skip + 1, samples - 1)
    split = cut.draw(splits, label="split")
    expected, labels = reference_blobs(samples, features, classes, 1.7, seed)
    with mock.patch.object(datasets, "_CHUNK_BYTES", chunk_bytes):
        drawn = synth_blobs(samples, features, classes, 1.7, seed, skip=skip, split=split)
    parts = [drawn] if split is None else list(drawn)
    bounds = [skip, samples] if split is None else [skip, split, samples]
    for part, lo, hi in zip(parts, bounds, bounds[1:]):
        assert part.class_count == classes
        assert (part.features == expected[lo:hi]).all()
        assert part.features.tobytes() == expected[lo:hi].tobytes()
        assert (part.labels == labels[lo:hi]).all()
    if split is not None:
        # Separate arrays, so one split never keeps the other alive.
        assert not np.shares_memory(parts[0].features, parts[1].features)


def blobs_config(samples, features, classes, validation_samples):
    return config_from_dict({
        "seed": 13,
        "dataset": {
            "kind": "blobs", "samples": samples, "features": features,
            "classes": classes, "separation": 2.0,
            "validation_samples": validation_samples,
        },
        "partition": {"mode": "iid", "participants": 5},
        "corruption": {"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 2},
        "training": {
            "rounds": 1, "participant_fraction": 0.4, "local_epochs": 1,
            "batch_size": 8, "learning_rate": 0.5, "model": "logistic",
        },
        "valuation": {"method": "exact"},
    })


@pytest.mark.parametrize("chunk_bytes", [0, datasets._CHUNK_BYTES])
def test_replay_validation_equals_the_prepared_split(chunk_bytes):
    # 203 training rows skip a count that 4 classes do not divide.
    cfg = blobs_config(203, 7, 4, 61)
    with mock.patch.object(datasets, "_CHUNK_BYTES", chunk_bytes):
        _, validation = prepare_validation(cfg)
        prepared = prepare_experiment(cfg)
    assert validation.features.tobytes() == prepared.validation.features.tobytes()
    assert validation.labels.tobytes() == prepared.validation.labels.tobytes()
    assert prepared.train.features.shape == (203, 7) and validation.features.shape == (61, 7)


def traced_peak(fn):
    """The result of ``fn()`` and the peak bytes it allocated beyond what
    was allocated when it started, as tracemalloc (which numpy reports its
    array buffers to) saw them. A first, untraced call pays for one-time
    imports and caches."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """A 784-feature draw holds only the rows it keeps."""

    CFG = blobs_config(3000, 784, 10, 600)

    def test_prepared_experiment_holds_train_and_validation_once(self):
        prepared, peak = traced_peak(lambda: prepare_experiment(self.CFG))
        kept = sum(
            array.nbytes
            for data in (prepared.train, prepared.validation)
            for array in (data.features, data.labels)
        )
        assert peak <= 1.10 * kept

    def test_replay_validation_holds_only_validation_rows(self):
        (_, validation), peak = traced_peak(lambda: prepare_validation(self.CFG))
        assert validation.features.shape == (600, 784)
        kept = validation.features.nbytes + validation.labels.nbytes
        assert peak < kept + 2 * datasets._CHUNK_BYTES


class TestIdxLoader:
    def test_matches_reference_parser(self, tmp_path):
        images, labels = digits_fixture()
        image_path, label_path = write_idx_pair(tmp_path, images, labels)
        data = load_idx(image_path, label_path)
        ref_pixels, ref_labels = reference_idx_parse(image_path, label_path)
        assert np.array_equal(data.labels, ref_labels)
        np.testing.assert_allclose(data.features, ref_pixels / 255.0, atol=0)
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0

    def test_gzip_transparent(self, tmp_path):
        images, labels = digits_fixture(count=30)
        image_path, label_path = write_idx_pair(tmp_path, images, labels, gz=True)
        data = load_idx(image_path, label_path)
        assert len(data) == 30

    def test_truncated_header_reports_offset(self, tmp_path):
        images, labels = digits_fixture(count=10)
        image_path, label_path = write_idx_pair(tmp_path, images, labels)
        image_path.write_bytes(image_path.read_bytes()[:12])
        with pytest.raises(IdxFormatError, match="byte offset 0"):
            load_idx(image_path, label_path)

    def test_truncated_pixels_reports_offset(self, tmp_path):
        images, labels = digits_fixture(count=10)
        image_path, label_path = write_idx_pair(tmp_path, images, labels)
        image_path.write_bytes(image_path.read_bytes()[:-5])
        with pytest.raises(IdxFormatError, match="byte offset 16"):
            load_idx(image_path, label_path)

    def test_bad_magic_rejected(self, tmp_path):
        images, labels = digits_fixture(count=10)
        image_path, label_path = write_idx_pair(tmp_path, images, labels, image_magic=42)
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(image_path, label_path)

    def test_count_mismatch_rejected(self, tmp_path):
        images, labels = digits_fixture(count=10)
        image_path, label_path = write_idx_pair(tmp_path, images, labels[:9])
        with pytest.raises(IdxFormatError, match="9 labels"):
            load_idx(image_path, label_path)


class TestIidPartition:
    def test_reference_sizes(self):
        data = Dataset(np.zeros((60000, 1)), np.arange(60000) % 10, 10)
        plan = partition_iid(data, 100, 0)
        sizes = {len(plan.assignment[pid]) for pid in plan.participants()}
        assert sizes == {600}

    def test_single_participant_gets_everything(self):
        data = synth_blobs(40, 3, 2, 1.0, 0)
        plan = partition_iid(data, 1, 0)
        assert len(plan.assignment[0]) == 40

    def test_partition_is_exact(self):
        data = synth_blobs(103, 3, 2, 1.0, 0)
        for seed in range(5):
            plan = partition_iid(data, 7, seed)
            combined = np.concatenate([plan.assignment[p] for p in plan.participants()])
            assert len(combined) == 103
            assert len(np.unique(combined)) == 103

    def test_more_participants_than_samples_rejected(self):
        data = synth_blobs(5, 3, 2, 1.0, 0)
        with pytest.raises(ValueError):
            partition_iid(data, 6, 0)


class TestShardPartition:
    def test_reference_geometry(self):
        data = Dataset(np.zeros((60000, 1)), np.arange(60000) % 10, 10)
        plan = partition_noniid_shards(data, 100, 2, 0)
        assert all(len(plan.assignment[p]) == 600 for p in plan.participants())

    def test_divisibility_enforced(self):
        data = synth_blobs(401, 3, 4, 1.0, 0)
        with pytest.raises(ValueError, match="does not divide"):
            partition_noniid_shards(data, 10, 2, 0)

    def test_label_span_per_participant_is_bounded(self):
        data = synth_blobs(800, 3, 8, 1.0, 4)
        plan = partition_noniid_shards(data, 20, 2, 1)
        shard_size = 800 // 40
        sorted_labels = np.sort(data.labels)
        max_classes_per_shard = max(
            len(np.unique(sorted_labels[s * shard_size : (s + 1) * shard_size]))
            for s in range(40)
        )
        for pid in plan.participants():
            shard_labels = data.labels[plan.assignment[pid]]
            assert len(np.unique(shard_labels)) <= 2 * max_classes_per_shard

    def test_partition_is_exact(self):
        data = synth_blobs(600, 3, 5, 1.0, 0)
        plan = partition_noniid_shards(data, 10, 3, 2)
        combined = np.concatenate([plan.assignment[p] for p in plan.participants()])
        assert len(np.unique(combined)) == 600

    def test_skew_lowers_label_entropy_on_blobs(self):
        data = synth_blobs(1000, 4, 5, 1.0, 6)
        iid = partition_iid(data, 20, 7)
        skewed = partition_noniid_shards(data, 20, 2, 7)
        assert mean_label_entropy(data, skewed) < mean_label_entropy(data, iid)

    def test_skew_lowers_label_entropy_on_digit_images(self, tmp_path):
        images, labels = digits_fixture(count=400)
        image_path, label_path = write_idx_pair(tmp_path, images, labels)
        data = load_idx(image_path, label_path)
        iid = partition_iid(data, 10, 3)
        skewed = partition_noniid_shards(data, 10, 2, 3)
        assert mean_label_entropy(data, skewed) < mean_label_entropy(data, iid)


class TestLabelFlips:
    def _setup(self, classes=4, seed=0):
        data = synth_blobs(200, 3, classes, 1.0, seed)
        plan = partition_iid(data, 10, seed + 1)
        return data, plan

    def test_exact_flip_count(self):
        data, plan = self._setup()
        spec = LabelFlipSpec(frozenset({2, 5}), 0.3)
        flipped = flip_labels(data, plan, spec, 3)
        for pid in (2, 5):
            idx = plan.assignment[pid]
            changed = int((flipped.labels[idx] != data.labels[idx]).sum())
            assert changed == int(len(idx) * 0.3)

    def test_unaffected_shards_untouched(self):
        data, plan = self._setup()
        spec = LabelFlipSpec(frozenset({2, 5}), 0.3)
        flipped = flip_labels(data, plan, spec, 3)
        for pid in plan.participants():
            if pid in (2, 5):
                continue
            idx = plan.assignment[pid]
            assert np.array_equal(flipped.labels[idx], data.labels[idx])
        assert np.array_equal(flipped.features, data.features)

    def test_binary_flip_is_complement(self):
        data, plan = self._setup(classes=2)
        spec = LabelFlipSpec(frozenset({1}), 1.0)
        flipped = flip_labels(data, plan, spec, 4)
        idx = plan.assignment[1]
        assert np.array_equal(flipped.labels[idx], 1 - data.labels[idx])

    def test_deterministic(self):
        data, plan = self._setup()
        spec = LabelFlipSpec(frozenset({0}), 0.5)
        assert np.array_equal(
            flip_labels(data, plan, spec, 9).labels,
            flip_labels(data, plan, spec, 9).labels,
        )

    def test_affected_must_exist(self):
        data, plan = self._setup()
        with pytest.raises(ValueError, match="affected"):
            flip_labels(data, plan, LabelFlipSpec(frozenset({99}), 0.5), 0)


class TestBackdoor:
    def _setup(self):
        data = synth_blobs(256, 6, 4, 1.0, 11)
        plan = partition_iid(data, 4, 12)
        return data, plan

    def test_quota_per_batch_window(self):
        data, plan = self._setup()
        spec = BackdoorSpec(
            affected=frozenset({1}), trigger_indices=(4, 5), trigger_value=9.0,
            target_label=0, mix_per_batch=5, batch_size=16,
        )
        poisoned = implant_backdoor(data, plan, spec, 1)
        idx = plan.assignment[1]
        assert len(idx) == 64  # 4 whole windows of 16
        stamped = int((poisoned.features[idx][:, 4] == 9.0).sum())
        assert stamped == 5 * 4
        assert (poisoned.labels[idx] == 0).sum() >= 5 * 4

    def test_empty_trigger_changes_only_labels(self):
        data, plan = self._setup()
        spec = BackdoorSpec(
            affected=frozenset({2}), trigger_indices=(), trigger_value=9.0,
            target_label=1, mix_per_batch=4, batch_size=16,
        )
        poisoned = implant_backdoor(data, plan, spec, 1)
        assert np.array_equal(poisoned.features, data.features)
        idx = plan.assignment[2]
        assert (poisoned.labels[idx] == 1).sum() >= 4

    def test_unaffected_untouched(self):
        data, plan = self._setup()
        spec = BackdoorSpec(
            affected=frozenset({1}), trigger_indices=(0,), trigger_value=9.0,
            target_label=0, mix_per_batch=4, batch_size=16,
        )
        poisoned = implant_backdoor(data, plan, spec, 1)
        for pid in (0, 2, 3):
            idx = plan.assignment[pid]
            assert np.array_equal(poisoned.features[idx], data.features[idx])
            assert np.array_equal(poisoned.labels[idx], data.labels[idx])

    def test_triggered_test_set_targets_everything(self):
        data, _ = self._setup()
        spec = BackdoorSpec(
            affected=frozenset({1}), trigger_indices=(2, 3), trigger_value=7.5,
            target_label=3, mix_per_batch=4, batch_size=16,
        )
        probe = triggered_test_set(data, spec)
        assert (probe.labels == 3).all()
        assert (probe.features[:, 2] == 7.5).all()
        assert (probe.features[:, 3] == 7.5).all()
        untouched = [c for c in range(6) if c not in (2, 3)]
        assert np.array_equal(probe.features[:, untouched], data.features[:, untouched])

    def test_out_of_bounds_trigger_rejected(self):
        data, plan = self._setup()
        spec = BackdoorSpec(
            affected=frozenset({1}), trigger_indices=(17,), trigger_value=1.0,
            target_label=0, mix_per_batch=4, batch_size=16,
        )
        with pytest.raises(ValueError, match="trigger"):
            implant_backdoor(data, plan, spec, 1)

    def test_trigger_at_the_feature_width_rejected_by_both(self):
        data, plan = self._setup()
        spec = BackdoorSpec(
            affected=frozenset({1}), trigger_indices=(0, data.features.shape[1]),
            trigger_value=1.0, target_label=0, mix_per_batch=4, batch_size=16,
        )
        message = "trigger indices fall outside the feature dimensions"
        with pytest.raises(ValueError, match=message):
            implant_backdoor(data, plan, spec, 1)
        with pytest.raises(ValueError, match=message):
            triggered_test_set(data, spec)


class TestIndexShards:
    def test_index_shards_cover_the_plan_and_train_like_copied_rows(self):
        data = synth_blobs(62, 3, 3, 1.0, 0)
        plan = partition_iid(data, 6, 0)
        pids = plan.participants()
        rows = np.concatenate([plan.assignment[pid] for pid in pids])
        assert np.array_equal(np.sort(rows), np.arange(len(data)))
        # Shards of 11 and 10 rows train in two lockstep groups.
        layout = ModelLayout("logistic", 3, 3)
        cfg = TrainingConfig(layout, 1, 1.0, 2, 4, 0.5, seed=3)
        theta = np.linspace(-1.0, 1.0, layout.param_count)
        updates = train_round(theta, data, plan.assignment, pids, cfg, 0)
        for pid, update in zip(pids, updates):
            shard = plan.assignment[pid]
            copied = participant_update(
                theta, data.features[shard].copy(), data.labels[shard].copy(), cfg,
                substream(cfg.seed, "local", 0, pid),
            )
            assert update.tobytes() == copied.tobytes()
