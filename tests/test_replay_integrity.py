"""Replay refuses snapshot directories that are not one contiguous run,
and builds only what valuing recorded rounds needs."""

import shutil

import pytest

from fedval.cli import main
from fedval.config import ConfigError, config_from_dict
from fedval.engine import SnapshotFormatError, check_initial_model, load_round_records
from fedval.experiments import prepare_experiment, prepare_validation

from test_config_cli import base_doc, write_config


def train(tmp_path, doc, name, *extra):
    path = write_config(tmp_path, doc, name=f"{name}.yaml")
    out = tmp_path / name
    assert main(["train-and-value", "--config", str(path), "--out", str(out), *extra]) == 0
    return path, out / "rounds"


@pytest.fixture
def three_rounds(tmp_path):
    doc = base_doc()
    doc["training"]["rounds"] = 3
    return train(tmp_path, doc, "run")[1]


def test_spliced_seeds_refused_by_value_replay(tmp_path, capsys):
    config, first = train(tmp_path, base_doc(), "seed7", "--seed", "7")
    _, second = train(tmp_path, base_doc(), "seed99", "--seed", "99")
    spliced = tmp_path / "spliced"
    spliced.mkdir()
    shutil.copy(first / "round_00000.fvr", spliced)
    shutil.copy(second / "round_00001.fvr", spliced)
    rc = main([
        "value-replay", "--config", str(config), "--method", "loo",
        "--snapshots", str(spliced), "--out", str(tmp_path / "replay"),
    ])
    assert rc == 1
    assert "round_00001.fvr" in capsys.readouterr().err
    assert not (tmp_path / "replay" / "values.csv").exists()


@pytest.mark.parametrize("command", ["value-replay", "summarize"])
def test_snapshots_of_another_seed_refused(tmp_path, capsys, command):
    # Rounds 0-1 of one intact run, replayed under a config whose seed
    # draws a different random initial model.
    doc = base_doc()
    doc["training"]["init_scale"] = 0.1
    _, rounds = train(tmp_path, doc, "seed7")
    doc["seed"] = 99
    config = write_config(tmp_path, doc, name="seed99.yaml")
    out = tmp_path / "replay"
    rc = main([
        command, "--config", str(config), "--snapshots", str(rounds), "--out", str(out),
    ])
    assert rc == 1
    assert "round_00000.fvr: incoming model is not the initial model" in (
        capsys.readouterr().err
    )
    assert not (out / "values.csv").exists()
    assert not (out / "summarization.csv").exists()


def test_snapshots_of_the_configured_run_accepted(tmp_path):
    doc = base_doc()
    doc["training"]["init_scale"] = 0.1
    config, rounds = train(tmp_path, doc, "seed7")
    records, _ = load_round_records(rounds)
    prepared = prepare_experiment(config_from_dict(doc))
    check_initial_model(records, prepared.training)
    assert main([
        "summarize", "--config", str(config), "--snapshots", str(rounds),
        "--out", str(tmp_path / "summary"),
    ]) == 0


def test_gap_in_round_indices_named(three_rounds):
    (three_rounds / "round_00001.fvr").unlink()
    with pytest.raises(SnapshotFormatError, match=r"round_00002\.fvr.*contiguous"):
        load_round_records(three_rounds)


def test_missing_first_round_named(three_rounds):
    (three_rounds / "round_00000.fvr").unlink()
    with pytest.raises(SnapshotFormatError, match=r"round_00001\.fvr.*contiguous"):
        load_round_records(three_rounds)


def test_header_round_index_must_match_file_name(three_rounds):
    victim = three_rounds / "round_00001.fvr"
    raw = victim.read_bytes()
    assert raw.count(b'"round_index": 1') == 1
    victim.write_bytes(raw.replace(b'"round_index": 1', b'"round_index": 2'))
    with pytest.raises(SnapshotFormatError, match=r"round_00001\.fvr.*round_index 2"):
        load_round_records(three_rounds)


def test_unchained_round_named(tmp_path, three_rounds):
    # Rounds 0 and 2 of the same run: renamed consistently, but round 1's
    # outcome was never round 2's incoming model.
    target = tmp_path / "renamed"
    target.mkdir()
    shutil.copy(three_rounds / "round_00000.fvr", target)
    raw = (three_rounds / "round_00002.fvr").read_bytes()
    (target / "round_00001.fvr").write_bytes(
        raw.replace(b'"round_index": 2', b'"round_index": 1')
    )
    with pytest.raises(SnapshotFormatError, match=r"round_00001\.fvr.*previous round"):
        load_round_records(target)


def test_intact_run_loads(three_rounds):
    records, _ = load_round_records(three_rounds)
    assert [r.round_index for r in records] == [0, 1, 2]
    for earlier, later in zip(records, records[1:]):
        assert earlier.global_after.tobytes() == later.global_before.tobytes()


def test_mlp_with_zero_init_rejected():
    doc = base_doc()
    doc["training"].update(model="mlp", hidden_units=4)
    with pytest.raises(ConfigError, match=r"training\.init_scale.*output bias"):
        config_from_dict(doc)
    doc["training"]["init_scale"] = 0.1
    assert config_from_dict(doc).training.init_scale == 0.1


@pytest.mark.parametrize(
    "corruption",
    [
        {"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 2},
        {
            "kind": "backdoor", "trigger_indices": [2, 3], "trigger_value": 5.0,
            "target_label": 0, "mix_per_batch": 5, "poison_batch_size": 10,
            "affected_count": 2,
        },
    ],
    ids=["blobs-label-flip", "backdoor"],
)
def test_replay_validation_matches_full_preparation(corruption):
    cfg = config_from_dict(base_doc(corruption=corruption))
    layout, validation = prepare_validation(cfg)
    prepared = prepare_experiment(cfg)
    assert layout == prepared.layout
    assert validation.features.tobytes() == prepared.validation.features.tobytes()
    assert validation.labels.tobytes() == prepared.validation.labels.tobytes()
    assert validation.class_count == prepared.validation.class_count


def test_value_replay_skips_partition_and_corruption(tmp_path, monkeypatch):
    import fedval.experiments as experiments

    doc = base_doc(corruption={"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 2})
    config, rounds = train(tmp_path, doc, "trained")

    def unused(*args, **kwargs):
        raise AssertionError("value-replay needs no training partition")

    for name in ("partition_iid", "flip_labels", "split_shards"):
        monkeypatch.setattr(experiments, name, unused)
    out = tmp_path / "replay"
    assert main([
        "value-replay", "--config", str(config), "--snapshots", str(rounds),
        "--out", str(out),
    ]) == 0
    assert (out / "values.csv").read_bytes() == (rounds.parent / "values.csv").read_bytes()
