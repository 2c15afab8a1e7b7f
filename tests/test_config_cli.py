import argparse
import json
import re
from pathlib import Path

import pytest
import yaml

import fedval
from fedval.cli import build_parser, main
from fedval.config import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    parse_config,
)
from fedval.engine import load_round_records
from fedval.estimators import ApproxParams, group_testing_plan, permutation_sample_count


def base_doc(**overrides):
    doc = {
        "seed": 7,
        "dataset": {
            "kind": "blobs", "samples": 240, "features": 4, "classes": 3,
            "separation": 3.0, "validation_samples": 120,
        },
        "partition": {"mode": "iid", "participants": 6},
        "training": {
            "rounds": 2, "participant_fraction": 0.5, "local_epochs": 1,
            "batch_size": 10, "learning_rate": 0.8, "model": "logistic",
        },
        "valuation": {"method": "exact"},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


class TestParsing:
    def test_roundtrip_identity(self, tmp_path):
        path = write_config(tmp_path, base_doc(
            corruption={"kind": "label_flip", "flip_ratio": 0.3, "affected": [1, 2]},
        ))
        cfg = parse_config(path)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_fraction_bound_rejected(self):
        doc = base_doc()
        doc["training"]["participant_fraction"] = 1.2
        with pytest.raises(ConfigError, match="participant_fraction"):
            config_from_dict(doc)

    def test_unknown_key_rejected_with_path(self):
        doc = base_doc()
        doc["training"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match=r"training.*momentum"):
            config_from_dict(doc)

    def test_threads_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match=r"unknown keys \['threads'\]"):
            config_from_dict(base_doc(threads=2))

    def test_missing_approx_accepted_for_exact(self):
        cfg = config_from_dict(base_doc(valuation={"method": "exact"}))
        assert cfg.valuation.approx is None

    def test_missing_approx_rejected_for_estimators(self):
        with pytest.raises(ConfigError, match="approx"):
            config_from_dict(base_doc(valuation={"method": "permutation"}))

    def test_zero_learning_rate_rejected(self):
        doc = base_doc()
        doc["training"]["learning_rate"] = 0.0
        with pytest.raises(ConfigError, match="learning_rate"):
            config_from_dict(doc)

    def test_unbounded_metric_rejected_when_valuing(self):
        # Utilities are accuracies and the metric key is gone, so a config
        # that sets it is refused with or without valuation.
        doc = base_doc()
        doc["training"]["metric"] = "neg_loss"
        with pytest.raises(ConfigError, match=r"training: unknown keys \['metric'\]"):
            config_from_dict(doc)
        doc["valuation"] = {"method": "loo"}
        with pytest.raises(ConfigError, match=r"training: unknown keys \['metric'\]"):
            config_from_dict(doc)

    def test_affected_exclusivity(self):
        with pytest.raises(ConfigError, match="affected"):
            config_from_dict(base_doc(
                corruption={
                    "kind": "label_flip", "flip_ratio": 0.3,
                    "affected": [1], "affected_count": 2,
                },
            ))

    def test_participants_cannot_exceed_samples(self):
        doc = base_doc()
        doc["partition"]["participants"] = 500
        with pytest.raises(ConfigError, match="participants"):
            config_from_dict(doc)

    def test_defaults_are_resolved(self):
        cfg = config_from_dict(base_doc())
        assert cfg.experiment.random_repeats == 3
        assert cfg.valuation.normalized is False
        assert cfg.training.lr_decay == 1.0


COMMANDS = {"train-and-value", "value-replay", "noisy-detect", "backdoor-detect", "summarize"}
README = Path(__file__).resolve().parents[1] / "README.md"


def test_command_surface_matches_readme():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) == COMMANDS
    documented = re.findall(r"^fedval (\S+)", README.read_text(), flags=re.MULTILINE)
    assert set(documented) == COMMANDS


class TestCli:
    def test_train_value_and_replay_are_bit_identical(self, tmp_path):
        path = write_config(tmp_path, base_doc())
        first = tmp_path / "run1"
        assert main([
            "train-and-value", "--config", str(path), "--out", str(first),
        ]) == 0
        assert (first / "values.csv").exists()
        assert (first / "rounds").is_dir()
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["command"] == "train-and-value"

        replay = tmp_path / "run2"
        assert main([
            "value-replay", "--config", str(path),
            "--snapshots", str(first / "rounds"), "--out", str(replay),
        ]) == 0
        assert (replay / "values.csv").read_bytes() == (first / "values.csv").read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, base_doc())
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train-and-value", "--config", str(path), "--out", str(out)]) == 0
            runs.append((out / "values.csv").read_bytes())
        assert runs[0] == runs[1]

    def test_missing_snapshots_exits_nonzero_without_output(self, tmp_path, capsys):
        path = write_config(tmp_path, base_doc())
        out = tmp_path / "replay"
        rc = main([
            "value-replay", "--config", str(path),
            "--snapshots", str(tmp_path / "nowhere"), "--out", str(out),
        ])
        assert rc != 0
        assert not out.exists()
        assert "snapshot" in capsys.readouterr().err

    @pytest.mark.parametrize("corruption, path", [
        ({"affected": [1, 6]}, "corruption.affected[1]"),
        ({"affected_count": 7}, "corruption.affected_count"),
    ])
    def test_affected_outside_partition_refused_without_output(
        self, tmp_path, capsys, corruption, path
    ):
        doc = base_doc(corruption={"kind": "label_flip", "flip_ratio": 0.3, **corruption})
        config = write_config(tmp_path, doc)
        out = tmp_path / "detect"
        assert main(["noisy-detect", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert f"{config}.{path}:" in capsys.readouterr().err

    def test_seed_override_changes_results(self, tmp_path):
        path = write_config(tmp_path, base_doc())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train-and-value", "--config", str(path), "--out", str(out_a)]) == 0
        assert main([
            "train-and-value", "--config", str(path), "--out", str(out_b),
            "--seed", "99",
        ]) == 0
        assert (out_a / "values.csv").read_bytes() != (out_b / "values.csv").read_bytes()

    def test_method_override_and_normalized(self, tmp_path):
        doc = base_doc(valuation={
            "method": "exact",
            "approx": {"epsilon": 0.3, "delta": 0.3},
        })
        path = write_config(tmp_path, doc)
        out = tmp_path / "perm"
        assert main([
            "train-and-value", "--config", str(path), "--out", str(out),
            "--method", "permutation", "--normalized",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["details"]["valuation_method"] == "permutation"
        assert manifest["details"]["normalized"] is True
        assert manifest["details"]["permutation_sample_counts"]

    def test_seed_override_obeys_the_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, base_doc())
        out = tmp_path / "negative"
        rc = main([
            "train-and-value", "--config", str(path), "--out", str(out), "--seed", "-1",
        ])
        assert rc == 1
        assert not out.exists()
        assert "--seed -1: seed: must be at least 0" in capsys.readouterr().err

    def test_estimator_override_needs_approx(self, tmp_path, capsys):
        path = write_config(tmp_path, base_doc())
        out = tmp_path / "gt"
        rc = main([
            "train-and-value", "--config", str(path), "--out", str(out), "--method", "gt",
        ])
        assert rc == 1
        assert not out.exists()
        assert "approx" in capsys.readouterr().err

    @pytest.mark.parametrize("command, corruption", [
        ("noisy-detect", {"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 2}),
        ("backdoor-detect", {
            "kind": "backdoor", "trigger_indices": [2, 3], "trigger_value": 5.0,
            "target_label": 0, "mix_per_batch": 5, "poison_batch_size": 10,
            "affected_count": 2,
        }),
        ("summarize", None),
    ])
    def test_protocol_manifests_record_the_method(self, tmp_path, command, corruption):
        # Detection refuses the setting (test_detection_refuses_normalized).
        summarize = command == "summarize"
        doc = base_doc(
            valuation={"method": "permutation", "approx": APPROX, "normalized": summarize},
            experiment={"dismiss_fractions": [0.0, 0.5], "random_repeats": 1},
        )
        if corruption is not None:
            doc["corruption"] = corruption
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        details = manifest_details(out)
        assert details["valuation_method"] == "permutation"
        # Only summarize ranks by the setting; detection reports both forms.
        assert details.get("normalized") is (True if summarize else None)

    def test_noisy_detect_outputs(self, tmp_path):
        path = write_config(tmp_path, base_doc(
            corruption={"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 2},
        ))
        out = tmp_path / "detect"
        assert main(["noisy-detect", "--config", str(path), "--out", str(out)]) == 0
        curves = (out / "detection_curves.csv").read_text().splitlines()
        assert curves[0] == "method,inspected_fraction,detected_fraction"
        aucs = (out / "detection_auc.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in aucs[1:]} == {
            "fed_sv", "fed_sv_norm", "fed_loo", "fed_loo_norm", "random"
        }

    def test_backdoor_detect_outputs(self, tmp_path):
        path = write_config(tmp_path, base_doc(
            corruption={
                "kind": "backdoor", "trigger_indices": [2, 3], "trigger_value": 5.0,
                "target_label": 0, "mix_per_batch": 5, "poison_batch_size": 10,
                "affected_count": 2,
            },
        ))
        out = tmp_path / "backdoor"
        assert main(["backdoor-detect", "--config", str(path), "--out", str(out)]) == 0
        attack = (out / "attack.csv").read_text().splitlines()
        assert attack[0] == "attack_success_rate,clean_accuracy"
        assert len(attack) == 2

    def test_summarize_outputs(self, tmp_path):
        path = write_config(tmp_path, base_doc(
            experiment={"dismiss_fractions": [0.0, 0.3], "random_repeats": 2},
        ))
        out = tmp_path / "summ"
        assert main(["summarize", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "summarization.csv").read_text().splitlines()
        assert lines[0] == "method,dismiss_fraction,accuracy"
        assert len(lines) == 1 + 3 * 2  # three methods, two fractions

    def test_method_alias_accepted(self, tmp_path):
        doc = base_doc(valuation={
            "method": "exact", "approx": {"epsilon": 0.3, "delta": 0.3},
        })
        path = write_config(tmp_path, doc)
        out = tmp_path / "alias"
        assert main([
            "train-and-value", "--config", str(path), "--out", str(out),
            "--method", "perm",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["details"]["valuation_method"] == "permutation"

    def test_shipped_configs_parse(self):
        shipped = sorted(Path(__file__).resolve().parents[1].glob("configs/*.yaml"))
        assert len(shipped) >= 4
        for path in shipped:
            parse_config(path)

    def test_manifest_digest_matches_config_bytes(self, tmp_path):
        import hashlib

        path = write_config(tmp_path, base_doc())
        out = tmp_path / "digest"
        assert main(["train-and-value", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_invalid_config_reports_error(self, tmp_path, capsys):
        doc = base_doc()
        doc["training"]["participant_fraction"] = 0.0
        path = write_config(tmp_path, doc)
        rc = main(["train-and-value", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "participant_fraction" in capsys.readouterr().err

    def test_failed_run_flags_partial_outputs(self, tmp_path):
        doc = base_doc(
            dataset={
                "kind": "idx", "images": str(tmp_path / "missing.idx"),
                "labels": str(tmp_path / "missing2.idx"), "validation_samples": 10,
            },
            partition={"mode": "iid", "participants": 6},
        )
        path = write_config(tmp_path, doc)
        out = tmp_path / "broken"
        rc = main(["train-and-value", "--config", str(path), "--out", str(out)])
        assert rc == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["details"]["partial_outputs"] is True


APPROX = {"epsilon": 0.3, "delta": 0.3}


def plan_fields(plan):
    return {"t1": plan.t1, "t2": plan.t2, "z": plan.z}


def manifest_details(out):
    return json.loads((out / "manifest.json").read_text())["details"]


class TestEstimatorPlans:
    @pytest.mark.parametrize("method", ["permutation", "group_testing"])
    def test_manifest_plans_follow_each_round_size(self, tmp_path, method):
        path = write_config(tmp_path, base_doc(
            valuation={"method": method, "approx": APPROX},
        ))
        out = tmp_path / method
        assert main(["train-and-value", "--config", str(path), "--out", str(out)]) == 0
        records, _ = load_round_records(out / "rounds")
        params = ApproxParams(**APPROX)
        details = manifest_details(out)
        if method == "permutation":
            assert "group_testing_plans" not in details
            assert details["permutation_sample_counts"] == [
                [r.round_index, permutation_sample_count(params, len(r.selected))]
                for r in records
            ]
        else:
            assert "permutation_sample_counts" not in details
            assert details["group_testing_plans"] == [
                [r.round_index, plan_fields(group_testing_plan(len(r.selected), params))]
                for r in records
            ]

    def test_single_participant_rounds_have_no_plan_and_exact_values(self, tmp_path):
        doc = base_doc(valuation={"method": "group_testing", "approx": APPROX})
        doc["training"]["participant_fraction"] = 0.1
        path = write_config(tmp_path, doc)
        estimated = tmp_path / "gt"
        exact = tmp_path / "exact"
        assert main([
            "train-and-value", "--config", str(path), "--out", str(estimated),
        ]) == 0
        assert main([
            "train-and-value", "--config", str(path), "--out", str(exact),
            "--method", "exact",
        ]) == 0
        assert all(len(r.selected) == 1 for r in load_round_records(estimated / "rounds")[0])
        assert "group_testing_plans" not in manifest_details(estimated)
        assert (estimated / "values.csv").read_bytes() == (exact / "values.csv").read_bytes()

    def test_replay_records_the_training_plans(self, tmp_path):
        path = write_config(tmp_path, base_doc(
            valuation={"method": "exact", "approx": APPROX},
        ))
        trained = tmp_path / "trained"
        replayed = tmp_path / "replayed"
        assert main([
            "train-and-value", "--config", str(path), "--out", str(trained),
            "--method", "group_testing",
        ]) == 0
        assert main([
            "value-replay", "--config", str(path), "--snapshots", str(trained / "rounds"),
            "--out", str(replayed), "--method", "gt",
        ]) == 0
        plans = manifest_details(trained)["group_testing_plans"]
        assert plans
        assert manifest_details(replayed)["group_testing_plans"] == plans


SHIPPED = Path(__file__).resolve().parents[1] / "configs"
PROTOCOLS = ("noisy-detect", "backdoor-detect", "summarize")


def shipped_doc(name, **edits):
    """A shipped config's document with each (dotted path, value) set."""
    doc = yaml.safe_load((SHIPPED / name).read_text())
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        node = doc
        for part in parents:
            node = node[part]
        node[key] = value
    return doc


class TestRefusedSettings:
    """Settings that did nothing, or voided the estimator guarantee, are
    refused before anything is written."""

    def test_range_bound_refused_naming_approx(self, tmp_path, capsys):
        doc = shipped_doc("train_value_small.yaml", **{"valuation.approx.range_bound": 0.01})
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["train-and-value", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert f"{config}.valuation.approx: unknown keys ['range_bound']" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command, flag", [
        *((command, "--verbose") for command in ("train-and-value", "value-replay", *PROTOCOLS)),
        ("noisy-detect", "--normalized"),
        ("backdoor-detect", "--normalized"),
        ("summarize", "--snapshots=."),
        ("train-and-value", "--method=random"),
        ("value-replay", "--method=random"),
    ])
    def test_flags_a_command_does_not_read_are_refused(self, tmp_path, command, flag):
        out = tmp_path / "out"
        snapshots = ["--snapshots", str(tmp_path)] if command == "value-replay" else []
        with pytest.raises(SystemExit) as caught:
            main([command, "--config", str(SHIPPED / "train_value_small.yaml"),
                  "--out", str(out), *snapshots, flag])
        assert caught.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", PROTOCOLS)
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_protocols_refuse_methods_other_than_shapley(self, tmp_path, capsys, command, how):
        backdoor = command == "backdoor-detect"
        name = "backdoor_detection.yaml" if backdoor else "noisy_detection_iid.yaml"
        out = tmp_path / "out"
        if how == "flag":
            # argparse offers the protocols only Shapley methods.
            with pytest.raises(SystemExit) as caught:
                main([command, "--config", str(SHIPPED / name), "--method", "loo",
                      "--out", str(out)])
            assert caught.value.code == 2
            assert not out.exists()
            assert "invalid choice: 'loo'" in capsys.readouterr().err
            return
        doc = shipped_doc(name, **{"valuation.method": "loo"})
        argv = [command, "--config", str(write_config(tmp_path, doc))]
        assert main([*argv, "--out", str(out)]) == 1
        assert not out.exists()
        assert "valuation.method:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", PROTOCOLS[:2])
    def test_detection_refuses_normalized(self, tmp_path, capsys, command):
        """Detection writes both the raw and the _norm curves, so a
        normalized setting would be silently ignored."""
        backdoor = command == "backdoor-detect"
        name = "backdoor_detection.yaml" if backdoor else "noisy_detection_iid.yaml"
        doc = shipped_doc(name, **{"valuation.normalized": True})
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 1
        assert not out.exists()
        assert "valuation.normalized:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, path", [
        ("target_label", 7, "corruption.target_label"),
        ("trigger_indices", [8, 12], "corruption.trigger_indices[1]"),
    ])
    def test_backdoor_outside_the_dataset_refused_at_parse(
        self, tmp_path, capsys, key, value, path
    ):
        doc = shipped_doc("backdoor_detection.yaml", **{f"corruption.{key}": value})
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["backdoor-detect", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert f"{config}.{path}:" in capsys.readouterr().err


def test_every_exported_name_resolves():
    for name in fedval.__all__:
        assert getattr(fedval, name) is not None, name
