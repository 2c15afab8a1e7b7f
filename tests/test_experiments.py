import re
import weakref

import numpy as np
import pytest
import yaml

from fedval import cli, engine, experiments
from fedval.cli import main
from fedval.config import ConfigError, config_from_dict
from fedval.engine import VALUATION_METHODS, round_selections
from fedval.experiments import (
    detection_curve,
    prepare_experiment,
    random_values,
    run_backdoor_detection,
    run_noisy_detection,
    run_summarization,
)
from fedval.values import ValueVector, build_report

from conftest import read_value_records


def tiny_doc(**overrides):
    doc = {
        "seed": 42,
        "dataset": {
            "kind": "blobs", "samples": 360, "features": 5, "classes": 3,
            "separation": 3.0, "validation_samples": 240,
        },
        "partition": {"mode": "iid", "participants": 6},
        "training": {
            "rounds": 3, "participant_fraction": 0.5, "local_epochs": 1,
            "batch_size": 15, "learning_rate": 0.8, "model": "logistic",
        },
        "valuation": {"method": "exact"},
    }
    doc.update(overrides)
    return doc


LABEL_FLIP = {"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 2}
BACKDOOR = {
    "kind": "backdoor", "trigger_indices": [3, 4], "trigger_value": 6.0,
    "target_label": 0, "mix_per_batch": 8, "poison_batch_size": 16, "affected_count": 2,
}


class TestDetectionCurve:
    def test_perfect_ranking_saturates_early(self):
        values = ValueVector({0: -1.0, 1: -2.0, 2: 0.5, 3: 0.6, 4: 0.7})
        curve = detection_curve(values, {0, 1}, range(5))
        assert curve.detected_fractions[2] == 1.0
        assert curve.inspected_fractions[2] == pytest.approx(2 / 5)
        assert curve.auc == pytest.approx(0.8, abs=1e-12)

    def test_starts_at_origin_and_ends_complete(self, rng):
        values = random_values(range(9), rng)
        curve = detection_curve(values, {3, 4}, range(9))
        assert curve.inspected_fractions[0] == 0.0
        assert curve.detected_fractions[0] == 0.0
        assert curve.inspected_fractions[-1] == 1.0
        assert curve.detected_fractions[-1] == 1.0
        assert np.all(np.diff(curve.inspected_fractions) >= 0)
        assert np.all(np.diff(curve.detected_fractions) >= 0)

    def test_worst_ranking_detects_only_at_the_end(self):
        values = ValueVector({0: 0.1, 1: 0.2, 2: 0.9})
        curve = detection_curve(values, {2}, range(3))
        assert list(curve.detected_fractions) == [0.0, 0.0, 0.0, 1.0]

    def test_random_baseline_calibrates_to_half(self):
        total = 0.0
        shuffles = 100
        for seed in range(shuffles):
            values = random_values(range(20), np.random.default_rng(seed))
            total += detection_curve(values, set(range(6)), range(20)).auc
        assert abs(total / shuffles - 0.5) <= 0.05

    def test_ties_break_by_ascending_id(self):
        values = ValueVector({0: 0.5, 1: 0.5, 2: 0.5})
        curve = detection_curve(values, {0}, range(3))
        # id 0 inspected first under tie-breaking.
        assert curve.detected_fractions[1] == 1.0

    def test_empty_ground_truth_refused(self):
        with pytest.raises(ValueError):
            detection_curve(ValueVector({0: 1.0}), set(), range(1))


class TestRoundNorms:
    def test_zero_and_singleton_rounds(self):
        report = build_report(
            [ValueVector({0: 0.0, 1: 0.0}, 0), ValueVector({2: -0.25}, 1)],
            [0.0, -0.1],
            0.5,
        )
        assert report.round_value_norms == [0.0, 0.25]


class TestNoisyDetection:
    def test_produces_all_methods_and_beats_nothing_structurally(self):
        cfg = config_from_dict(tiny_doc(
            corruption={"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 2},
        ))
        outcome = run_noisy_detection(cfg)
        assert set(outcome.curves) == {
            "fed_sv", "fed_sv_norm", "fed_loo", "fed_loo_norm", "random"
        }
        assert len(outcome.affected) == 2
        for curve in outcome.curves.values():
            assert curve.detected_fractions[-1] == 1.0

    def test_requires_label_flip(self):
        cfg = config_from_dict(tiny_doc())
        with pytest.raises(ValueError, match="label_flip"):
            run_noisy_detection(cfg)

    def test_reference_geometry_twenty_noisy_of_hundred(self):
        # The reference protocol shape: 100 participants, 10 selected per
        # round, 20 noisy. Shortened to two rounds to stay cheap.
        cfg = config_from_dict({
            "seed": 5,
            "dataset": {
                "kind": "blobs", "samples": 3000, "features": 6, "classes": 3,
                "separation": 3.0, "validation_samples": 600,
            },
            "partition": {"mode": "iid", "participants": 100},
            "corruption": {"kind": "label_flip", "flip_ratio": 0.25, "affected_count": 20},
            "training": {
                "rounds": 2, "participant_fraction": 0.1, "local_epochs": 1,
                "batch_size": 10, "learning_rate": 0.8, "model": "logistic",
            },
            "valuation": {"method": "exact"},
        })
        outcome = run_noisy_detection(cfg)
        assert len(outcome.affected) == 20
        assert len(outcome.curves["fed_sv"].inspected_fractions) == 101

    def test_explicit_affected_list_is_respected(self):
        cfg = config_from_dict(tiny_doc(
            corruption={"kind": "label_flip", "flip_ratio": 0.5, "affected": [1, 4]},
        ))
        outcome = run_noisy_detection(cfg)
        assert outcome.affected == (1, 4)


class TestBackdoorDetection:
    def test_reports_attack_success(self):
        cfg = config_from_dict(tiny_doc(corruption=BACKDOOR))
        outcome = run_backdoor_detection(cfg)
        assert outcome.attack_success_rate is not None
        assert 0.0 <= outcome.attack_success_rate <= 1.0
        assert 0.0 <= outcome.clean_accuracy <= 1.0

    def test_validation_rows_drawn_after_training(self, monkeypatch):
        # The triggered test set is built from them once training returns,
        # so they are not held through training.
        events = []
        real_blobs, real_train = experiments.synth_blobs, experiments.run_federated_training

        def blobs(*args, **kwargs):
            train, fills, draw = real_blobs(*args, **kwargs)

            def recorded():
                events.append("validation drawn")
                return draw()

            return train, fills, recorded

        def train(*args, **kwargs):
            records = real_train(*args, **kwargs)
            events.append("training returned")
            return records

        monkeypatch.setattr(experiments, "synth_blobs", blobs)
        monkeypatch.setattr(experiments, "run_federated_training", train)
        run_backdoor_detection(config_from_dict(tiny_doc(corruption=BACKDOOR)))
        assert events[:2] == ["training returned", "validation drawn"]

    def test_zero_strength_trigger_leaves_no_signal(self):
        # Trigger stamps nothing and the target label matches nothing new:
        # adversaries behave like everyone else, so curves hover near the
        # diagonal over seeds.
        aucs = []
        for seed in range(5):
            cfg = config_from_dict(tiny_doc(
                seed=seed,
                corruption={
                    "kind": "backdoor", "trigger_indices": [], "trigger_value": 0.0,
                    "target_label": 0, "mix_per_batch": 1, "poison_batch_size": 10**6,
                    "affected_count": 2,
                },
            ))
            outcome = run_backdoor_detection(cfg)
            aucs.append(outcome.curves["fed_sv"].auc)
        assert abs(float(np.mean(aucs)) - 0.5) <= 0.25

    def test_requires_backdoor(self):
        cfg = config_from_dict(tiny_doc())
        with pytest.raises(ValueError, match="backdoor"):
            run_backdoor_detection(cfg)

    def test_normalization_helps_on_skewed_partition(self):
        # With an effective trigger on the shard partition, normalizing
        # per-round values does not hurt detection (seed-averaged).
        raw, norm = [], []
        for seed in range(2024, 2029):
            cfg = config_from_dict({
                "seed": seed,
                "dataset": {
                    "kind": "blobs", "samples": 4000, "features": 10, "classes": 4,
                    "separation": 3.0, "validation_samples": 2000,
                },
                "partition": {
                    "mode": "shards", "participants": 20, "shards_per_participant": 2,
                },
                "corruption": {
                    "kind": "backdoor", "trigger_indices": [8, 9], "trigger_value": 6.0,
                    "target_label": 0, "mix_per_batch": 20, "poison_batch_size": 64,
                    "affected_count": 6,
                },
                "training": {
                    "rounds": 10, "participant_fraction": 0.5, "local_epochs": 2,
                    "batch_size": 20, "learning_rate": 1.0, "model": "logistic",
                },
                "valuation": {"method": "exact"},
            })
            outcome = run_backdoor_detection(cfg)
            raw.append(outcome.curves["fed_sv"].auc)
            norm.append(outcome.curves["fed_sv_norm"].auc)
        assert float(np.mean(norm)) >= float(np.mean(raw))


class TestSummarization:
    def test_zero_dismissal_reproduces_baseline_exactly(self):
        cfg = config_from_dict(tiny_doc(
            corruption={"kind": "label_flip", "flip_ratio": 0.5, "affected_count": 2},
            experiment={"dismiss_fractions": [0.0, 0.5]},
        ))
        result = run_summarization(cfg)
        for method in ("fed_sv", "fed_loo", "random"):
            assert result.accuracy[method][0] == result.baseline_accuracy

    def test_heavy_dismissal_retains_someone(self):
        cfg = config_from_dict(tiny_doc(
            experiment={"dismiss_fractions": [0.9]},
        ))
        result = run_summarization(cfg)
        for series in result.accuracy.values():
            assert len(series) == 1
            assert 0.0 <= series[0] <= 1.0

    def test_requires_a_valuation_method(self):
        choices = re.escape(str(list(VALUATION_METHODS)))
        with pytest.raises(
            ConfigError, match=rf"valuation\.method: must be one of {choices}, got 'none'"
        ):
            config_from_dict(tiny_doc(valuation={"method": "none"}))


class TestPreparation:
    def test_validation_split_shares_geometry(self):
        cfg = config_from_dict(tiny_doc())
        prepared = prepare_experiment(cfg)
        shards = prepared.plan.assignment.values()
        # Six shards of 60 rows; only the scheduled participants' rows
        # enter the store.
        scheduled = set().union(*round_selections(prepared.training, range(6)))
        assert sum(len(rows) for rows in shards) == 360
        assert sum(len(rows) for rows in prepared.rows.entering) == 60 * len(scheduled)
        assert prepared.validation.features.shape[0] == 240
        assert prepared.validation.class_count == prepared.training.layout.n_classes == 3
        for t in range(prepared.training.rounds):
            train, held = prepared.rows.open_round(t)
            labels = train.labels[np.concatenate(list(held.values()))]
            assert set(labels.tolist()) <= set(range(prepared.validation.class_count))
            prepared.rows.close_round()

    def test_normalized_flag_rescales_report(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(
            tiny_doc(valuation={"method": "exact", "normalized": True})
        ))
        assert main(["train-and-value", "--config", str(config), "--out", str(tmp_path)]) == 0
        report = read_value_records(tmp_path / "values.csv")
        for norm in report.round_value_norms:
            assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0


@pytest.mark.parametrize("command, corruption", [
    ("train-and-value", LABEL_FLIP), ("noisy-detect", LABEL_FLIP), ("backdoor-detect", BACKDOOR),
], ids=["train-and-value", "noisy-detect", "backdoor-detect"])
def test_training_rows_released_before_valuation(tmp_path, monkeypatch, command, corruption):
    # None of these commands retrains, so no stage after training reads its rows.
    watched, alive_at_oracle = [], []
    real_prepare = experiments.prepare_experiment

    def prepare(cfg):
        prepared = real_prepare(cfg)
        watched.append(weakref.ref(prepared.rows.features))
        return prepared

    real_init = engine.RoundOracle.__init__

    def init(self, *args, **kwargs):
        alive_at_oracle.append([ref() is not None for ref in watched])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(experiments, "prepare_experiment", prepare)
    monkeypatch.setattr(cli, "prepare_experiment", prepare)
    monkeypatch.setattr(engine.RoundOracle, "__init__", init)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(tiny_doc(corruption=corruption)))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert alive_at_oracle == [[False]]
