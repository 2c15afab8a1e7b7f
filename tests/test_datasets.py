import gzip
import struct
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedval import datasets, engine, experiments
from fedval.cli import main
from fedval.config import BackdoorConfig, LabelFlipConfig, config_from_dict
from fedval.datasets import (
    Dataset,
    IdxFormatError,
    flip_labels,
    implant_backdoor,
    partition_iid,
    partition_noniid_shards,
    read_idx,
    stamp_trigger,
    synth_blobs,
    triggered_test_set,
)
from fedval.engine import (
    participant_update,
    rerun_with_selections,
    round_selections,
    run_federated_training,
    train_round,
)
from fedval.experiments import prepare_experiment, prepare_validation
from fedval.models import ModelLayout, accuracy
from fedval.seeding import substream

from conftest import HeldRows, mean_label_entropy, reference_blobs, training
from test_blas_threads import cli_env
from test_config_cli import base_doc


def load_idx(images_path, labels_path):
    """Every image of an IDX pair, pixels scaled to [0, 1]."""
    return read_idx(images_path, labels_path).rows(slice(None))


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
        cfg = training(layout, 1, 1.0, 25, 15, 0.5, seed=0)
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

    # A dropped prefix of ``skip`` rows is the held range skip..split.
    @pytest.mark.parametrize("skip, split", [(-1, None), (9, None), (0, 0), (3, 2), (0, 9)])
    def test_refuses_an_empty_part(self, skip, split):
        held = np.arange(skip, 9 if split is None else split)
        with pytest.raises(ValueError):
            synth_blobs(9, 4, 3, 1.0, 0, held=held, split=split)

    @pytest.mark.parametrize("held", [[2, 2, 5], [5, 2], [0, 9]], ids=["repeat", "order", "past"])
    def test_refuses_held_rows_outside_the_part_or_out_of_order(self, held):
        with pytest.raises(ValueError, match="held must name"):
            synth_blobs(9, 4, 3, 1.0, 0, held=np.array(held))


@settings(max_examples=80, deadline=None)
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
    # Held sets of scattered rows and of runs, so chunk edges fall inside
    # held runs, between them and on their ends.
    samples = max(samples, classes)
    split = cut.draw(st.none() | st.integers(1, samples - 1), label="split")
    end = samples if split is None else split
    held = cut.draw(
        st.sets(st.integers(0, end - 1), min_size=1).map(sorted)
        | st.tuples(st.integers(0, end - 1), st.integers(0, end - 1)).map(
            lambda ends: list(range(min(ends), max(ends) + 1))
        ),
        label="held",
    )
    expected, labels = reference_blobs(samples, features, classes, 1.7, seed)
    with mock.patch.object(datasets, "_CHUNK_BYTES", chunk_bytes):
        drawn = synth_blobs(
            samples, features, classes, 1.7, seed, held=np.array(held), split=split
        )
    parts = [drawn] if split is None else [drawn[0], drawn[2]()]
    rows = [held] if split is None else [held, list(range(split, samples))]
    for part, index in zip(parts, rows):
        assert part.class_count == classes
        assert (part.features == expected[index]).all()
        assert part.features.tobytes() == expected[index].tobytes()
        assert (part.labels == labels[index]).all()
    if split is not None:
        # Separate arrays, so one split never keeps the other alive.
        assert not np.shares_memory(parts[0].features, parts[1].features)


@settings(max_examples=80, deadline=None)
@given(
    samples=st.integers(3, 61),
    features=st.integers(1, 9),
    classes=st.integers(2, 7),
    cut=st.data(),
    chunk_bytes=st.sampled_from([0, 24, datasets._CHUNK_BYTES]),
    seed=st.integers(0, 2**16),
)
def test_deferred_blobs_rows_redraw_as_one_draw(samples, features, classes, cut, chunk_bytes, seed):
    # Each row of the first part is held, in one of up to three deferred
    # groups, or dropped; each group's redraw writes its rows, ascending,
    # into shuffled slots of a wider array.
    samples = max(samples, classes + 1)
    split = cut.draw(st.integers(1, samples - 1), label="split")
    kinds = cut.draw(
        st.lists(st.integers(-1, 3), min_size=split, max_size=split)
        .filter(lambda kinds: 0 in kinds),
        label="kinds",
    )
    kinds = np.array(kinds)
    held = np.flatnonzero(kinds == 0)
    deferred = [np.flatnonzero(kinds == g) for g in (1, 2, 3) if (kinds == g).any()]
    expected, labels = reference_blobs(samples, features, classes, 1.7, seed)
    out = np.full((len(held), features), np.nan)
    with mock.patch.object(datasets, "_CHUNK_BYTES", chunk_bytes):
        head, redraws, tail = synth_blobs(
            samples, features, classes, 1.7, seed, held=held, split=split, out=out,
            deferred=deferred,
        )
    assert head.features is out
    assert out.tobytes() == expected[held].tobytes()
    assert (head.labels == labels[held]).all()
    assert len(redraws) == len(deferred)
    # Redrawn in another order than they were recorded, after the tail.
    assert tail().features.tobytes() == expected[split:].tobytes()
    for rows, redraw in reversed(list(zip(deferred, redraws))):
        arena = np.full((len(rows) + 3, features), np.nan)
        slots = np.random.default_rng(seed).permutation(len(arena))[: len(rows)]
        redraw(arena, slots)
        assert arena[slots].tobytes() == expected[rows].tobytes()
        assert np.isnan(np.delete(arena, slots, axis=0)).all()


def scheduled_rows(cfg, labels, training_config):
    """The partition of a training split with ``labels`` as ``cfg``
    configures it, and the ascending rows of the participants that some
    round of ``training_config``'s schedule selects."""
    seed = substream(cfg.seed, "partition")
    participants = cfg.partition.participants
    if cfg.partition.mode == "iid":
        plan = partition_iid(labels, participants, seed)
    else:
        plan = partition_noniid_shards(
            labels, participants, cfg.partition.shards_per_participant, seed
        )
    scheduled = set().union(*round_selections(training_config, range(participants)))
    return plan, np.sort(np.concatenate([plan.assignment[pid] for pid in sorted(scheduled)]))


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


# 203 training rows skip a count that 4 classes do not divide. 784
# features fill a _CHUNK_BYTES chunk with 167 rows, so 250 training rows
# end mid-chunk and 167 and 334 on a chunk boundary.
@pytest.mark.parametrize("samples, features, classes, validation_samples, chunk_bytes", [
    pytest.param(203, 7, 4, 61, chunk_bytes, id=str(chunk_bytes))
    for chunk_bytes in (0, datasets._CHUNK_BYTES)
] + [
    pytest.param(samples, 784, 10, 120, datasets._CHUNK_BYTES, id=f"{samples}x784")
    for samples in (250, 334, 167)
])
def test_replay_validation_equals_the_prepared_split(
    samples, features, classes, validation_samples, chunk_bytes
):
    cfg = blobs_config(samples, features, classes, validation_samples)
    with mock.patch.object(datasets, "_CHUNK_BYTES", chunk_bytes):
        _, validation = prepare_validation(cfg)
        prepared = prepare_experiment(cfg)
        # The prepared validation rows are drawn here, on first read.
        assert prepared.validation is prepared.validation
    assert validation.features.tobytes() == prepared.validation.features.tobytes()
    assert validation.labels.tobytes() == prepared.validation.labels.tobytes()
    _, held = scheduled_rows(cfg, np.arange(samples) % classes, prepared.training)
    assert np.array_equal(prepared.rows.held, held)
    # One round: the arena holds exactly its rows.
    assert prepared.rows.features.shape == (len(held), features)
    assert validation.features.shape == (validation_samples, features)


def idx_config(image_path, label_path, validation_samples):
    return config_from_dict({
        "seed": 13,
        "dataset": {
            "kind": "idx", "images": str(image_path), "labels": str(label_path),
            "validation_samples": validation_samples,
        },
        "partition": {"mode": "iid", "participants": 5},
        "training": {
            "rounds": 1, "participant_fraction": 0.4, "local_epochs": 1,
            "batch_size": 8, "learning_rate": 0.5, "model": "logistic",
        },
        "valuation": {"method": "exact"},
    })


def test_idx_split_scales_the_rows_of_one_permutation(tmp_path):
    images, labels = digits_fixture(count=300, side=5)
    cfg = idx_config(*write_idx_pair(tmp_path, images, labels), 40)
    training_config, validation = prepare_validation(cfg)
    prepared = prepare_experiment(cfg)
    pixels = images.reshape(300, 25)
    order = substream(13, "data").permutation(300)
    _, held = scheduled_rows(cfg, labels[order[40:]], prepared.training)
    # One round, so its rows are all the scheduled ones, scaled in order.
    train, _ = prepared.rows.open_round(0)
    expected = {"validation": order[:40], "train": order[40:][held]}
    for name, data in (("validation", validation), ("validation", prepared.validation),
                       ("train", train)):
        rows = expected[name]
        assert data.features.tobytes() == (pixels[rows] / 255.0).tobytes()
        assert np.array_equal(data.labels, labels[rows])
    assert training_config == prepared.training
    layout = training_config.layout
    assert (layout.n_features, layout.n_classes) == (25, 10)


# Eight participants, two selected in each of two rounds: at most four
# are ever selected, so the rest hold no rows.
HELD_CORRUPTIONS = {
    "clean": None,
    "flip": {"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 6},
    "backdoor": {
        "kind": "backdoor", "trigger_indices": [1, 3], "trigger_value": 5.0,
        "target_label": 0, "mix_per_batch": 3, "poison_batch_size": 8, "affected_count": 6,
    },
}


def held_rows_case(tmp_path, kind, mode, corruption, *, rounds=2, fraction=0.25, seed=5):
    """A config, its prepared experiment for one pass, and the full
    training set and its partition: every row of the training split drawn
    or scaled, partitioned and corrupted, with no row left out, and its
    features before the corruption."""
    if kind == "blobs":
        dataset = {
            "kind": "blobs", "samples": 320, "features": 6, "classes": 4,
            "separation": 2.0, "validation_samples": 80,
        }
    else:
        images, labels = digits_fixture(count=400, classes=4)
        image_path, label_path = write_idx_pair(tmp_path, images, labels)
        dataset = {
            "kind": "idx", "images": str(image_path), "labels": str(label_path),
            "validation_samples": 80,
        }
    partition = {"mode": mode, "participants": 8}
    if mode == "shards":
        partition["shards_per_participant"] = 2
    doc = {
        "seed": seed, "dataset": dataset, "partition": partition,
        "training": {
            "rounds": rounds, "participant_fraction": fraction, "local_epochs": 2,
            "batch_size": 8, "learning_rate": 0.5, "model": "logistic",
        },
    }
    if HELD_CORRUPTIONS[corruption] is not None:
        doc["corruption"] = HELD_CORRUPTIONS[corruption]
    cfg = config_from_dict(doc)
    prepared = prepare_experiment(cfg)
    data_seed = substream(cfg.seed, "data")
    if kind == "blobs":
        full, _, _ = synth_blobs(400, 6, 4, 2.0, data_seed, split=320)
    else:
        full = read_idx(image_path, label_path).rows(data_seed.permutation(400)[80:])
    clean = full.features.copy()
    plan, _ = scheduled_rows(cfg, full.labels, prepared.training)
    if prepared.corruption is not None:
        corrupt_every_row(full, plan, prepared.corruption, substream(cfg.seed, "corrupt"))
    return cfg, prepared, full, plan, clean


def lifetimes(schedule):
    """Each scheduled participant's first and last position in ``schedule``."""
    first, last = {}, {}
    for position, selected in enumerate(schedule):
        for pid in selected:
            first.setdefault(pid, position)
            last[pid] = position
    return first, last


HELD_CASES = pytest.mark.parametrize("kind, mode, corruption", [
    (kind, mode, corruption)
    for kind in ("blobs", "idx") for mode in ("iid", "shards") for corruption in HELD_CORRUPTIONS
])


@HELD_CASES
def test_prepared_experiment_holds_exactly_the_first_round_rows(tmp_path, kind, mode, corruption):
    _, prepared, full, plan, clean = held_rows_case(tmp_path, kind, mode, corruption)
    rows = prepared.rows
    schedule = round_selections(prepared.training, plan.participants())
    first_rows = np.sort(np.concatenate([plan.assignment[pid] for pid in schedule[0]]))
    # Both rounds hold two 40-row shards, so no later participant has room
    # in the arena before its first round.
    assert np.array_equal(rows.entering[0], first_rows)
    # The arena fits the most rows any round holds, and only the first
    # round's are drawn, in row order, before training; the trigger is
    # stamped as they enter.
    first, last = lifetimes(schedule)
    alive = [
        sum(len(plan.assignment[pid]) for pid in first if first[pid] <= t <= last[pid])
        for t in range(len(schedule))
    ]
    assert rows.features.shape == (max(alive), full.features.shape[1])
    assert rows.features[: len(first_rows)].tobytes() == clean[first_rows].tobytes()
    assert not rows.features[len(first_rows) :].any()


@HELD_CASES
def test_prepared_training_holds_exactly_the_scheduled_rows(tmp_path, kind, mode, corruption):
    # The store holds the corrupted labels of exactly the scheduled rows,
    # and each scheduled participant's features, bitwise the full rows in
    # shard order, from its first round to its last; no other
    # participant ever holds a row.
    _, prepared, full, plan, _ = held_rows_case(tmp_path, kind, mode, corruption)
    rows = prepared.rows
    schedule = round_selections(prepared.training, plan.participants())
    first, last = lifetimes(schedule)
    scheduled = set(first)
    assert len(scheduled) < len(plan.participants())
    held = np.sort(np.concatenate([plan.assignment[pid] for pid in sorted(scheduled)]))
    assert np.array_equal(rows.held, held)
    assert rows.labels.tobytes() == full.labels[held].tobytes()
    assert rows.participants() == plan.participants()
    for t in range(len(schedule)):
        data, shards = rows.open_round(t)
        assert set(shards) == {pid for pid in scheduled if first[pid] <= t <= last[pid]}
        for pid, slots in shards.items():
            shard = plan.assignment[pid]
            assert data.features[slots].tobytes() == full.features[shard].tobytes()
            assert data.labels[slots].tobytes() == full.labels[shard].tobytes()
        rows.close_round()
    assert rows.features is None
    with pytest.raises(ValueError, match="already released"):
        rows.open_round(0)
    if prepared.corruption is not None:
        # Affected participants outside the schedule still advance the
        # corruption's generator before those in it.
        affected = set(prepared.corruption.affected)
        assert min(affected - scheduled) < max(affected & scheduled)


def grid_rules(t, selected):
    """Keep rules of a small retrain grid: everyone, a lower half, and an
    upper half that drops round 0's first participant."""
    half = max(1, len(selected) // 2)
    return [selected, selected[:half], selected[half - 1 :] if t else selected[1:] or selected]


@HELD_CASES
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rounds=st.integers(1, 5),
    fraction=st.sampled_from([0.125, 0.25, 0.5, 0.75]),
    seed=st.integers(0, 2**16),
)
def test_prepared_rows_train_as_the_full_rows(
    tmp_path, kind, mode, corruption, rounds, fraction, seed
):
    # One training pass, and a summarize-style run: a pass, then a retrain
    # grid that holds the rows to its end, against the full rows.
    cfg, prepared, full, plan, _ = held_rows_case(
        tmp_path, kind, mode, corruption, rounds=rounds, fraction=fraction, seed=seed
    )
    training = prepared.training
    reference = run_federated_training(HeldRows(full, plan.assignment), training)
    retrained = prepare_experiment(cfg, passes=2)
    # The grid holds every scheduled row to its end, so each has room from
    # round 0 on and is drawn in the one pass.
    assert len(retrained.rows.entering) == 1
    selections = [record.selected for record in reference]
    keeps = [
        lambda t, selected, i=i: grid_rules(t, selected)[i] for i in range(3)
    ]
    expected_finals = rerun_with_selections(
        HeldRows(full, plan.assignment), training, selections, keeps
    )
    for run in (prepared, retrained):
        trained = run.train_once()
        assert len(trained) == len(reference) == rounds
        for ours, theirs in zip(trained, reference):
            assert ours.selected == theirs.selected
            for name in ("global_before", "updates", "global_after"):
                assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()
    assert prepared.rows.features is None
    assert prepared.rows.held is prepared.rows.labels is None
    assert retrained.rows.features is not None
    finals = rerun_with_selections(retrained.rows, training, selections, keeps)
    assert [final.tobytes() for final in finals] == [final.tobytes() for final in expected_finals]
    assert retrained.rows.features is None


def test_idx_backdoor_target_beyond_the_loaded_classes_refused(tmp_path, capsys):
    images, labels = digits_fixture(count=300, side=5)
    image_path, label_path = write_idx_pair(tmp_path, images, labels)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "seed": 13,
        "dataset": {
            "kind": "idx", "images": str(image_path), "labels": str(label_path),
            "validation_samples": 40,
        },
        "partition": {"mode": "iid", "participants": 5},
        "corruption": {
            "kind": "backdoor", "trigger_indices": [0], "trigger_value": 1.0,
            "target_label": 12, "affected_count": 1,
        },
        "training": {
            "rounds": 1, "participant_fraction": 0.4, "local_epochs": 1,
            "batch_size": 8, "learning_rate": 0.5, "model": "logistic",
        },
        "valuation": {"method": "exact"},
    }))
    with mock.patch.object(experiments, "implant_backdoor", side_effect=AssertionError):
        rc = main(["backdoor-detect", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "corruption.target_label:" in err
    assert "(10)" in err and "got 12" in err


@pytest.mark.parametrize(
    "stray, class_count, refusal",
    [
        ("train", 4, "holds label 9, but class_count is 4"),
        ("valid", 4, "holds label 9, but class_count is 4"),
        # Without the key, the training labels fix the class count.
        ("valid", None, "holds label 9, but the training labels {train} hold 4 classes; "
         "set dataset.class_count to cover both"),
    ],
    ids=["train", "valid", "valid-unset"],
)
def test_idx_label_beyond_class_count_names_its_file(
    tmp_path, capsys, stray, class_count, refusal
):
    images, labels = digits_fixture(count=300, side=5)
    pairs = {}
    for name in ("train", "valid"):
        (tmp_path / name).mkdir()
        kept = labels if name == stray else labels % 4
        pairs[name] = write_idx_pair(tmp_path / name, images, kept)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "seed": 13,
        "dataset": {
            "kind": "idx", "images": str(pairs["train"][0]), "labels": str(pairs["train"][1]),
            "validation_images": str(pairs["valid"][0]),
            "validation_labels": str(pairs["valid"][1]), "class_count": class_count,
        },
        "partition": {"mode": "iid", "participants": 5},
        "training": {
            "rounds": 1, "participant_fraction": 0.4, "local_epochs": 1,
            "batch_size": 8, "learning_rate": 0.5, "model": "logistic",
        },
    }))
    out = tmp_path / "out"
    assert main(["train-and-value", "--config", str(config), "--out", str(out)]) == 1
    refusal = refusal.format(train=pairs["train"][1])
    assert f"error: {pairs[stray][1]}: {refusal}\n" in capsys.readouterr().err
    assert not (out / "values.csv").exists()


def test_idx_validation_images_of_another_size_refused_before_training(tmp_path, capsys):
    images, labels = digits_fixture(count=300, side=5)
    small, small_labels = digits_fixture(count=60, side=4)
    pairs = {}
    for name, pair in (("train", (images, labels)), ("valid", (small, small_labels))):
        (tmp_path / name).mkdir()
        pairs[name] = write_idx_pair(tmp_path / name, *pair)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "seed": 13,
        "dataset": {
            "kind": "idx", "images": str(pairs["train"][0]), "labels": str(pairs["train"][1]),
            "validation_images": str(pairs["valid"][0]),
            "validation_labels": str(pairs["valid"][1]),
        },
        "partition": {"mode": "iid", "participants": 5},
        "training": {
            "rounds": 2, "participant_fraction": 0.4, "local_epochs": 1,
            "batch_size": 8, "learning_rate": 0.5, "model": "logistic",
        },
    }))
    out = tmp_path / "out"
    assert main(["train-and-value", "--config", str(config), "--out", str(out)]) == 1
    assert (
        f"error: {pairs['valid'][0]}: holds images of 16 pixels, but the training "
        f"images {pairs['train'][0]} hold 25\n"
    ) in capsys.readouterr().err
    assert not list(out.glob("rounds/*.fvr"))


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

    def test_prepared_experiment_holds_only_training_rows(self):
        # The validation rows are drawn on first read, after this peak.
        prepared, peak = traced_peak(lambda: prepare_experiment(self.CFG))
        rows = prepared.rows
        # The arena and its slot labels, and the scheduled rows' indices
        # and labels.
        kept = rows.features.nbytes + 8 * len(rows.features) + rows.held.nbytes + rows.labels.nbytes
        assert peak <= 1.10 * kept
        assert prepared.validation.features.shape == (600, 784)

    def test_training_holds_at_most_the_largest_rounds_rows(self):
        # Two rounds of two of four 500-row participants, (0, 2) then
        # (1, 2): 0 leaves before 1 enters, so three participants are
        # scheduled but at most two are held at once.
        cfg = config_from_dict({
            "seed": 1,
            "dataset": {
                "kind": "blobs", "samples": 2000, "features": 784, "classes": 10,
                "separation": 2.0, "validation_samples": 200,
            },
            "partition": {"mode": "iid", "participants": 4},
            "training": {
                "rounds": 2, "participant_fraction": 0.5, "local_epochs": 1,
                "batch_size": 50, "learning_rate": 0.5, "model": "logistic",
            },
        })
        prepared = prepare_experiment(cfg)
        training = prepared.training
        schedule = round_selections(training, prepared.plan.participants())
        assert schedule == [(0, 2), (1, 2)]
        shards = prepared.plan.assignment
        round_rows = max(sum(len(shards[pid]) for pid in selected) for selected in schedule)
        # One lockstep slice of one row, one chunk of the blobs draw, and
        # each round's incoming model, updates and outgoing model.
        slice_bytes = engine._row_bytes(training)
        records = sum(len(selected) + 2 for selected in schedule) * training.layout.param_count * 8
        bound = round_rows * 784 * 8 + slice_bytes + datasets._CHUNK_BYTES + records
        with mock.patch.object(engine, "_SLICE_BYTES", slice_bytes):
            records, peak = traced_peak(lambda: prepare_experiment(cfg).train_once())
        assert [record.selected for record in records] == schedule
        assert peak < bound

    def test_replay_validation_holds_only_validation_rows(self):
        (_, validation), peak = traced_peak(lambda: prepare_validation(self.CFG))
        assert validation.features.shape == (600, 784)
        kept = validation.features.nbytes + validation.labels.nbytes
        assert peak < kept + 2 * datasets._CHUNK_BYTES


    def test_idx_replay_validation_holds_only_validation_rows(self, tmp_path):
        images, labels = digits_fixture(count=6000, side=28)
        cfg = idx_config(*write_idx_pair(tmp_path, images, labels), 1000)
        (_, validation), peak = traced_peak(lambda: prepare_validation(cfg))
        assert validation.features.shape == (1000, 784)
        kept = validation.features.nbytes + validation.labels.nbytes
        # The file's bytes are read once, unscaled; no training row is scaled.
        assert peak <= kept + images.nbytes + (1 << 20)


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
        plan = partition_iid(np.arange(60000) % 10, 100, 0)
        sizes = {len(plan.assignment[pid]) for pid in plan.participants()}
        assert sizes == {600}

    def test_single_participant_gets_everything(self):
        data = synth_blobs(40, 3, 2, 1.0, 0)
        plan = partition_iid(data.labels, 1, 0)
        assert len(plan.assignment[0]) == 40

    def test_partition_is_exact(self):
        data = synth_blobs(103, 3, 2, 1.0, 0)
        for seed in range(5):
            plan = partition_iid(data.labels, 7, seed)
            combined = np.concatenate([plan.assignment[p] for p in plan.participants()])
            assert len(combined) == 103
            assert len(np.unique(combined)) == 103

    def test_more_participants_than_samples_rejected(self):
        data = synth_blobs(5, 3, 2, 1.0, 0)
        with pytest.raises(ValueError):
            partition_iid(data.labels, 6, 0)


@pytest.mark.parametrize("pieces", [
    [range(0, 8), [12]],  # n distinct indices, one outside 0..n-1
    [range(0, 8), [7]],
    [range(0, 8)],
    [range(0, 10)],
], ids=["outside", "repeated", "short", "long"])
def test_check_partition_refuses_a_non_partition(pieces):
    assignment = {pid: np.array(piece) for pid, piece in enumerate(pieces)}
    with pytest.raises(AssertionError, match="not a partition"):
        datasets._check_partition(assignment, 9)


def test_training_and_valuing_never_imports_numpy_ma(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(base_doc()))
    script = (
        "import sys; from fedval.cli import main; "
        f"rc = main(['train-and-value', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]); "
        "print(rc, 'numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=cli_env(), check=True,
        capture_output=True, text=True,
    )
    assert done.stdout.split() == ["0", "False"]


class TestShardPartition:
    def test_reference_geometry(self):
        plan = partition_noniid_shards(np.arange(60000) % 10, 100, 2, 0)
        assert all(len(plan.assignment[p]) == 600 for p in plan.participants())

    def test_divisibility_enforced(self):
        data = synth_blobs(401, 3, 4, 1.0, 0)
        with pytest.raises(ValueError, match="does not divide"):
            partition_noniid_shards(data.labels, 10, 2, 0)

    def test_label_span_per_participant_is_bounded(self):
        data = synth_blobs(800, 3, 8, 1.0, 4)
        plan = partition_noniid_shards(data.labels, 20, 2, 1)
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
        plan = partition_noniid_shards(data.labels, 10, 3, 2)
        combined = np.concatenate([plan.assignment[p] for p in plan.participants()])
        assert len(np.unique(combined)) == 600

    def test_skew_lowers_label_entropy_on_blobs(self):
        data = synth_blobs(1000, 4, 5, 1.0, 6)
        iid = partition_iid(data.labels, 20, 7)
        skewed = partition_noniid_shards(data.labels, 20, 2, 7)
        assert mean_label_entropy(data, skewed) < mean_label_entropy(data, iid)

    def test_skew_lowers_label_entropy_on_digit_images(self, tmp_path):
        images, labels = digits_fixture(count=400)
        image_path, label_path = write_idx_pair(tmp_path, images, labels)
        data = load_idx(image_path, label_path)
        iid = partition_iid(data.labels, 10, 3)
        skewed = partition_noniid_shards(data.labels, 10, 2, 3)
        assert mean_label_entropy(data, skewed) < mean_label_entropy(data, iid)


def corrupt_every_row(data, plan, spec, seed):
    """``spec``'s corruption applied in place to every row of ``data``."""
    every = np.arange(len(data))
    if isinstance(spec, LabelFlipConfig):
        flip_labels(data.labels, data.class_count, plan, spec, seed, every)
    else:
        poisoned = implant_backdoor(data.labels, data.class_count, plan, spec, seed, every)
        stamp_trigger(data.features, poisoned, spec)


def corrupted(corrupt, data, plan, spec, seed):
    """A copy of ``data`` with ``corrupt`` applied to every row of it."""
    copy = Dataset(data.features.copy(), data.labels.copy(), data.class_count)
    assert corrupt is {LabelFlipConfig: flip_labels, BackdoorConfig: implant_backdoor}[type(spec)]
    corrupt_every_row(copy, plan, spec, seed)
    return copy


class TestLabelFlips:
    def _setup(self, classes=4, seed=0):
        data = synth_blobs(200, 3, classes, 1.0, seed)
        plan = partition_iid(data.labels, 10, seed + 1)
        return data, plan

    def test_exact_flip_count(self):
        data, plan = self._setup()
        spec = LabelFlipConfig(0.3, affected=(2, 5))
        flipped = corrupted(flip_labels, data, plan, spec, 3)
        for pid in (2, 5):
            idx = plan.assignment[pid]
            changed = int((flipped.labels[idx] != data.labels[idx]).sum())
            assert changed == int(len(idx) * 0.3)

    def test_unaffected_shards_untouched(self):
        data, plan = self._setup()
        spec = LabelFlipConfig(0.3, affected=(2, 5))
        flipped = corrupted(flip_labels, data, plan, spec, 3)
        for pid in plan.participants():
            if pid in (2, 5):
                continue
            idx = plan.assignment[pid]
            assert np.array_equal(flipped.labels[idx], data.labels[idx])
        assert np.array_equal(flipped.features, data.features)

    def test_binary_flip_is_complement(self):
        data, plan = self._setup(classes=2)
        spec = LabelFlipConfig(1.0, affected=(1,))
        flipped = corrupted(flip_labels, data, plan, spec, 4)
        idx = plan.assignment[1]
        assert np.array_equal(flipped.labels[idx], 1 - data.labels[idx])

    def test_deterministic(self):
        data, plan = self._setup()
        spec = LabelFlipConfig(0.5, affected=(0,))
        assert np.array_equal(
            corrupted(flip_labels, data, plan, spec, 9).labels,
            corrupted(flip_labels, data, plan, spec, 9).labels,
        )

    def test_affected_must_exist(self):
        data, plan = self._setup()
        with pytest.raises(ValueError, match="affected"):
            flip_labels(
                data.labels, 4, plan, LabelFlipConfig(0.5, affected=(99,)), 0, np.arange(200)
            )


class TestBackdoor:
    def _setup(self):
        data = synth_blobs(256, 6, 4, 1.0, 11)
        plan = partition_iid(data.labels, 4, 12)
        return data, plan

    def test_quota_per_batch_window(self):
        data, plan = self._setup()
        spec = BackdoorConfig(
            affected=(1,), trigger_indices=(4, 5), trigger_value=9.0,
            target_label=0, mix_per_batch=5, poison_batch_size=16,
        )
        poisoned = corrupted(implant_backdoor, data, plan, spec, 1)
        idx = plan.assignment[1]
        assert len(idx) == 64  # 4 whole windows of 16
        stamped = int((poisoned.features[idx][:, 4] == 9.0).sum())
        assert stamped == 5 * 4
        assert (poisoned.labels[idx] == 0).sum() >= 5 * 4

    def test_empty_trigger_changes_only_labels(self):
        data, plan = self._setup()
        spec = BackdoorConfig(
            affected=(2,), trigger_indices=(), trigger_value=9.0,
            target_label=1, mix_per_batch=4, poison_batch_size=16,
        )
        poisoned = corrupted(implant_backdoor, data, plan, spec, 1)
        assert np.array_equal(poisoned.features, data.features)
        idx = plan.assignment[2]
        assert (poisoned.labels[idx] == 1).sum() >= 4

    def test_unaffected_untouched(self):
        data, plan = self._setup()
        spec = BackdoorConfig(
            affected=(1,), trigger_indices=(0,), trigger_value=9.0,
            target_label=0, mix_per_batch=4, poison_batch_size=16,
        )
        poisoned = corrupted(implant_backdoor, data, plan, spec, 1)
        for pid in (0, 2, 3):
            idx = plan.assignment[pid]
            assert np.array_equal(poisoned.features[idx], data.features[idx])
            assert np.array_equal(poisoned.labels[idx], data.labels[idx])

    def test_triggered_test_set_targets_everything(self):
        data, _ = self._setup()
        spec = BackdoorConfig(
            affected=(1,), trigger_indices=(2, 3), trigger_value=7.5,
            target_label=3, mix_per_batch=4, poison_batch_size=16,
        )
        probe = triggered_test_set(data, spec)
        assert (probe.labels == 3).all()
        assert (probe.features[:, 2] == 7.5).all()
        assert (probe.features[:, 3] == 7.5).all()
        untouched = [c for c in range(6) if c not in (2, 3)]
        assert np.array_equal(probe.features[:, untouched], data.features[:, untouched])

    def test_out_of_bounds_trigger_rejected(self):
        data, plan = self._setup()
        spec = BackdoorConfig(
            affected=(1,), trigger_indices=(17,), trigger_value=1.0,
            target_label=0, mix_per_batch=4, poison_batch_size=16,
        )
        with pytest.raises(ValueError, match="trigger"):
            stamp_trigger(data.features, np.arange(256), spec)

    def test_target_beyond_the_classes_rejected(self):
        data, plan = self._setup()
        spec = BackdoorConfig(
            affected=(1,), trigger_indices=(0,), trigger_value=1.0,
            target_label=4, mix_per_batch=4, poison_batch_size=16,
        )
        with pytest.raises(ValueError, match="target_label must be below"):
            implant_backdoor(data.labels, data.class_count, plan, spec, 1, np.arange(256))

    def test_trigger_at_the_feature_width_rejected_by_both(self):
        data, plan = self._setup()
        spec = BackdoorConfig(
            affected=(1,), trigger_indices=(0, data.features.shape[1]),
            trigger_value=1.0, target_label=0, mix_per_batch=4, poison_batch_size=16,
        )
        message = "trigger indices fall outside the feature dimensions"
        with pytest.raises(ValueError, match=message):
            stamp_trigger(data.features, np.arange(256), spec)
        with pytest.raises(ValueError, match=message):
            triggered_test_set(data, spec)


@pytest.mark.parametrize("corrupt, section", [
    (flip_labels, LabelFlipConfig(0.5, affected_count=2)),
    (implant_backdoor, BackdoorConfig((0,), 1.0, 0, affected_count=2)),
])
def test_unresolved_section_refused(corrupt, section):
    data = synth_blobs(64, 3, 2, 1.0, 0)
    plan = partition_iid(data.labels, 4, 1)
    with pytest.raises(ValueError, match=r"^corruption\.affected: unresolved"):
        corrupt(data.labels, data.class_count, plan, section, 0, np.arange(64))


class TestIndexShards:
    def test_index_shards_cover_the_plan_and_train_like_copied_rows(self):
        data = synth_blobs(62, 3, 3, 1.0, 0)
        plan = partition_iid(data.labels, 6, 0)
        pids = plan.participants()
        rows = np.concatenate([plan.assignment[pid] for pid in pids])
        assert np.array_equal(np.sort(rows), np.arange(len(data)))
        # Shards of 11 and 10 rows train in two lockstep groups.
        layout = ModelLayout("logistic", 3, 3)
        cfg = training(layout, 1, 1.0, 2, 4, 0.5, seed=3)
        theta = np.linspace(-1.0, 1.0, layout.param_count)
        updates = train_round(theta, data, plan.assignment, pids, cfg, 0)
        for pid, update in zip(pids, updates):
            shard = plan.assignment[pid]
            copied = participant_update(
                theta, data.features[shard].copy(), data.labels[shard].copy(), cfg,
                substream(cfg.seed, "local", 0, pid),
            )
            assert update.tobytes() == copied.tobytes()
