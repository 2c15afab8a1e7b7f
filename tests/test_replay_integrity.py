"""Replay refuses snapshot directories that are not one contiguous run,
and builds only what valuing recorded rounds needs."""

import json
import re
import shutil
import warnings

import numpy as np
import pytest

from fedval.cli import main
from fedval.config import ConfigError, config_from_dict
from fedval.engine import (
    SNAPSHOT_MAGIC,
    SnapshotFormatError,
    check_initial_model,
    load_round_records,
    save_round_records,
)
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


@pytest.mark.parametrize("command", ["value-replay"])
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
    err = capsys.readouterr().err
    assert "round_00000.fvr: incoming model is not the initial model" in err
    # The refused snapshot directory is named, not just the file.
    assert f"{rounds / 'round_00000.fvr'}: incoming model" in err
    assert not (out / "values.csv").exists()


@pytest.mark.parametrize("command", ["value-replay"])
def test_snapshots_of_another_layout_refused(tmp_path, capsys, command):
    # 21 features x 2 classes and 10 features x 4 classes both give a
    # 44-parameter logistic model, and both start from zeros.
    doc = base_doc()
    doc["dataset"].update(features=21, classes=2)
    _, rounds = train(tmp_path, doc, "wide")
    doc["dataset"].update(features=10, classes=4)
    config = write_config(tmp_path, doc, name="narrow.yaml")
    out = tmp_path / "replay"
    rc = main([
        command, "--config", str(config), "--snapshots", str(rounds), "--out", str(out),
    ])
    assert rc == 1
    assert "snapshot layout does not match" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert not (out / "values.csv").exists()


def test_snapshots_of_the_configured_run_accepted(tmp_path):
    doc = base_doc()
    doc["training"]["init_scale"] = 0.1
    config, rounds = train(tmp_path, doc, "seed7")
    records, _ = load_round_records(rounds)
    prepared = prepare_experiment(config_from_dict(doc))
    check_initial_model(records, prepared.training, rounds)
    assert main([
        "value-replay", "--config", str(config), "--snapshots", str(rounds),
        "--out", str(tmp_path / "replay"),
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


def rewrite_header(path, edit):
    """Replace the snapshot header at ``path`` by ``edit(header)``,
    leaving the arrays as they are."""
    raw = path.read_bytes()
    header_end = raw.index(b"\n", len(SNAPSHOT_MAGIC)) + 1
    header = edit(json.loads(raw[len(SNAPSHOT_MAGIC):header_end]))
    path.write_bytes(
        SNAPSHOT_MAGIC + json.dumps(header).encode() + b"\n" + raw[header_end:]
    )


def test_repeated_participant_in_header_refused(tmp_path, capsys):
    # Every id in place of the first: the update matrix still has a row
    # per entry, so only the header check stands between this file and
    # a round that credits one participant.
    config, rounds = train(tmp_path, base_doc(), "run")
    victim = rounds / "round_00000.fvr"
    first = load_round_records(rounds)[0][0].selected[0]
    rewrite_header(victim, lambda h: {**h, "selected": [first] * len(h["selected"])})
    replay_refused(
        tmp_path, capsys, config, rounds,
        f"error: {victim}: header selected repeats participant {first}",
    )


@pytest.mark.parametrize("command", ["value-replay"])
def test_permuted_header_ids_refused(tmp_path, capsys, command):
    # The round's own ids with the third moved first: every update row
    # stays, so without the order check bit b of a mask would credit
    # another participant with row b.
    config, rounds = train(tmp_path, base_doc(), "run")
    victim = rounds / "round_00000.fvr"
    rewrite_header(victim, lambda h: {
        **h, "selected": [h["selected"][2], *h["selected"][:2], *h["selected"][3:]]
    })
    out = tmp_path / "replay"
    rc = main([
        command, "--config", str(config), "--snapshots", str(rounds), "--out", str(out),
    ])
    assert rc == 1
    assert (
        f"error: {victim}: header selected must list participant ids in ascending order"
        in capsys.readouterr().err
    )
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert not (out / "values.csv").exists()


@pytest.mark.parametrize("edit", [
    pytest.param(lambda h: {k: v for k, v in h.items() if k != "layout"}, id="no_layout"),
    pytest.param(lambda h: list(h.items()), id="list_header"),
    pytest.param(lambda h: {**h, "layout": "logistic"}, id="layout_not_object"),
    pytest.param(
        lambda h: {**h, "layout": {**h["layout"], "n_features": "four"}},
        id="layout_field_ill_typed",
    ),
    pytest.param(lambda h: {**h, "selected": 5}, id="selected_not_list"),
    pytest.param(
        lambda h: {**h, "selected": [str(p) for p in h["selected"]]},
        id="selected_not_ids",
    ),
])
def test_malformed_header_named(tmp_path, capsys, edit):
    config, rounds = train(tmp_path, base_doc(), "run")
    victim = rounds / "round_00001.fvr"
    rewrite_header(victim, edit)
    replay_refused(tmp_path, capsys, config, rounds, f"error: {victim}: ")


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


def test_aggregate_one_ulp_from_the_mean_named(tmp_path):
    # One round, so no later incoming model shows the change.
    doc = base_doc()
    doc["training"]["rounds"] = 1
    _, rounds = train(tmp_path, doc, "run")
    [record], layout = load_round_records(rounds)
    record.global_after[0] = np.nextafter(record.global_after[0], np.inf)
    save_round_records([record], layout, rounds)
    victim = rounds / "round_00000.fvr"
    with pytest.raises(
        SnapshotFormatError, match=re.escape(f"{victim}: stored aggregate disagrees")
    ):
        load_round_records(rounds)


def rewrite_selected(path, selected):
    """Rewrite a snapshot's header ``selected``, keeping its models and
    the leading ``len(selected)`` rows of its update matrix."""
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        header = json.loads(fh.readline())
        before, stacked, after = (np.load(fh) for _ in range(3))
    header["selected"] = selected
    with open(path, "wb") as fh:
        fh.write(magic + json.dumps(header, sort_keys=True).encode() + b"\n")
        for array in (before, stacked[: len(selected)], after):
            np.save(fh, array)


def test_empty_selection_named_before_any_mean(three_rounds):
    victim = three_rounds / "round_00001.fvr"
    rewrite_selected(victim, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            SnapshotFormatError,
            match=re.escape(f"{victim}: header selected names no participants"),
        ):
            load_round_records(three_rounds)


@pytest.mark.parametrize("command", ["value-replay"])
def test_participant_ids_outside_the_config_refused(tmp_path, capsys, command):
    # Six configured participants have ids 0..5; the arrays stay intact.
    config, rounds = train(tmp_path, base_doc(), "run")
    victim = rounds / "round_00000.fvr"
    rewrite_selected(victim, [100, 101, 102])
    out = tmp_path / "replay"
    rc = main([
        command, "--config", str(config), "--snapshots", str(rounds), "--out", str(out),
    ])
    assert rc == 1
    assert f"error: {victim}: participant 100 is not one of the configured ids 0..5" in (
        capsys.readouterr().err
    )
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert not (out / "values.csv").exists()


@pytest.mark.parametrize("command", ["value-replay"])
@pytest.mark.parametrize("configured", [1, 3])
def test_round_count_other_than_configured_refused(tmp_path, capsys, command, configured):
    # 3 configured rounds over 2 recorded is a run whose training failed.
    doc = base_doc()
    _, rounds = train(tmp_path, doc, "run")
    doc["training"]["rounds"] = configured
    config = write_config(tmp_path, doc, name="other.yaml")
    out = tmp_path / "replay"
    rc = main([
        command, "--config", str(config), "--snapshots", str(rounds), "--out", str(out),
    ])
    assert rc == 1
    assert f"error: {rounds}: holds 2 rounds, but training.rounds is {configured}" in (
        capsys.readouterr().err
    )
    assert not (out / "values.csv").exists()


def test_intact_run_loads(three_rounds):
    records, _ = load_round_records(three_rounds)
    assert [r.round_index for r in records] == [0, 1, 2]
    for earlier, later in zip(records, records[1:]):
        assert earlier.global_after.tobytes() == later.global_before.tobytes()


def replay_refused(tmp_path, capsys, config, rounds, message):
    out = tmp_path / "replay"
    rc = main([
        "value-replay", "--config", str(config), "--method", "loo",
        "--snapshots", str(rounds), "--out", str(out),
    ])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (out / "values.csv").exists()


@pytest.mark.parametrize("array", ["global_after", "update"])
def test_non_finite_snapshot_named(tmp_path, capsys, array):
    config, rounds = train(tmp_path, base_doc(), "run")
    records, layout = load_round_records(rounds)
    last = records[-1]
    if array == "global_after":
        last.global_after[0] = np.nan
    else:
        last.updates[0, 0] = np.nan
    save_round_records([last], layout, rounds)
    replay_refused(
        tmp_path, capsys, config, rounds,
        "round_00001.fvr: stored arrays hold non-finite values",
    )


@pytest.mark.parametrize("cut", ["inside_header", "after_header", "inside_last_array"])
def test_truncated_snapshot_named(tmp_path, capsys, cut):
    config, rounds = train(tmp_path, base_doc(), "run")
    victim = rounds / "round_00001.fvr"
    raw = victim.read_bytes()
    header_end = raw.index(b"\n", len(SNAPSHOT_MAGIC)) + 1
    keep = {
        "inside_header": header_end - 10,
        "after_header": header_end,
        "inside_last_array": len(raw) - 8,
    }[cut]
    victim.write_bytes(raw[:keep])
    replay_refused(tmp_path, capsys, config, rounds, str(victim) + ": ")


def test_value_replay_records_refused_snapshots_in_manifest(tmp_path, capsys):
    config, rounds = train(tmp_path, base_doc(), "run")
    victim = rounds / "round_00001.fvr"
    victim.write_bytes(victim.read_bytes()[:200])
    out = tmp_path / "replay"
    rc = main([
        "value-replay", "--config", str(config), "--snapshots", str(rounds),
        "--out", str(out),
    ])
    assert rc == 1
    assert str(victim) + ": " in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert str(victim) in manifest["details"]["error"]
    assert not (out / "values.csv").exists()


@pytest.mark.parametrize("command", ["value-replay"])
def test_selection_other_than_the_schedule_refused(tmp_path, capsys, command):
    # Round 1 credits three other configured ids; the chain, the stored
    # aggregate and the initial model all still check out.
    config, rounds = train(tmp_path, base_doc(), "run")
    records, _ = load_round_records(rounds)
    scheduled = list(records[1].selected)
    others = sorted(set(range(6)) - set(scheduled))
    assert len(others) == len(scheduled) == 3
    victim = rounds / "round_00001.fvr"
    rewrite_selected(victim, others)
    out = tmp_path / "replay"
    rc = main([
        command, "--config", str(config), "--snapshots", str(rounds), "--out", str(out),
    ])
    assert rc == 1
    assert (
        f"error: {victim}: round 1 selected {others}, but the configured schedule "
        f"selects {scheduled}\n"
    ) in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert not (out / "values.csv").exists()


@pytest.mark.parametrize("command", ["value-replay"])
def test_refused_snapshots_cost_no_data_preparation(tmp_path, capsys, monkeypatch, command):
    import fedval.experiments as experiments

    config, rounds = train(tmp_path, base_doc(), "run")
    victim = rounds / "round_00001.fvr"
    victim.write_bytes(victim.read_bytes()[:200])

    def unused(*args, **kwargs):
        raise AssertionError(f"{command} prepared data before loading the snapshots")

    monkeypatch.setattr(experiments, "synth_blobs", unused)
    rc = main([
        command, "--config", str(config), "--snapshots", str(rounds),
        "--out", str(tmp_path / "replay"),
    ])
    assert rc == 1
    assert str(victim) + ": " in capsys.readouterr().err


def test_failed_snapshot_write_leaves_no_file(three_rounds, tmp_path, monkeypatch):
    records, layout = load_round_records(three_rounds)
    real_save = np.save
    saved = []

    def save_then_fail(fh, array, **kwargs):
        saved.append(array)
        if len(saved) == 3:
            raise OSError("disk full")
        real_save(fh, array, **kwargs)

    monkeypatch.setattr(np, "save", save_then_fail)
    target = tmp_path / "partial"
    with pytest.raises(OSError, match="disk full"):
        save_round_records(records[:1], layout, target)
    assert list(target.iterdir()) == []


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
    training, validation = prepare_validation(cfg)
    prepared = prepare_experiment(cfg)
    assert training == prepared.training
    assert validation.features.tobytes() == prepared.validation.features.tobytes()
    assert validation.labels.tobytes() == prepared.validation.labels.tobytes()
    assert validation.class_count == prepared.validation.class_count


def test_value_replay_skips_partition_and_corruption(tmp_path, monkeypatch):
    import fedval.experiments as experiments

    doc = base_doc(corruption={"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 2})
    config, rounds = train(tmp_path, doc, "trained")

    def unused(*args, **kwargs):
        raise AssertionError("value-replay needs no training partition")

    for name in ("partition_iid", "flip_labels"):
        monkeypatch.setattr(experiments, name, unused)
    out = tmp_path / "replay"
    assert main([
        "value-replay", "--config", str(config), "--snapshots", str(rounds),
        "--out", str(out),
    ]) == 0
    assert (out / "values.csv").read_bytes() == (rounds.parent / "values.csv").read_bytes()
