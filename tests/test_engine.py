import numpy as np
import pytest

from fedval.datasets import partition_iid, split_shards, synth_blobs
from fedval.engine import (
    HistoryMismatchError,
    RoundRecord,
    SnapshotFormatError,
    TrainingConfig,
    TrainingError,
    aggregate_subset,
    evaluate_utility,
    load_round_records,
    make_round_oracle,
    participant_update,
    rerun_with_selections,
    round_size,
    run_federated_training,
    save_round_records,
    train_round,
    value_rounds,
)
from fedval.estimators import ApproxParams
from fedval.models import ModelLayout, loss_and_gradient
from fedval.values import exact_federated_round_shapley


def small_setup(seed=7, participants=6, classes=3, samples=480):
    data = synth_blobs(samples + 240, 5, classes, 3.0, seed)
    train_X, train_y = data.features[:samples], data.labels[:samples]
    val = (data.features[samples:], data.labels[samples:])
    from fedval.datasets import Dataset

    train = Dataset(train_X, train_y, classes)
    plan = partition_iid(train, participants, seed + 1)
    shards = split_shards(train, plan)
    layout = ModelLayout("logistic", 5, classes)
    cfg = TrainingConfig(
        layout=layout,
        rounds=3,
        participant_fraction=0.5,
        local_epochs=1,
        batch_size=16,
        learning_rate=0.5,
        seed=seed,
    )
    return layout, cfg, shards, val


class TestConfigAndSelection:
    def test_round_size_takes_ceiling_with_floor_of_one(self):
        assert round_size(0.5, 20) == 10
        assert round_size(0.3, 10) == 3
        assert round_size(0.2, 10) == 2
        assert round_size(0.01, 10) == 1
        assert round_size(1.0, 7) == 7

    def test_rejects_bad_fraction(self):
        layout = ModelLayout("logistic", 2, 2)
        with pytest.raises(ValueError):
            TrainingConfig(layout, 1, 1.2, 1, 8, 0.1, seed=0)

    def test_rejects_bad_decay(self):
        layout = ModelLayout("logistic", 2, 2)
        with pytest.raises(ValueError):
            TrainingConfig(layout, 1, 0.5, 1, 8, 0.1, seed=0, lr_decay=0.0)


class TestParticipantUpdate:
    def test_zero_rate_returns_global(self, rng):
        layout = ModelLayout("logistic", 4, 2)
        cfg = TrainingConfig(layout, 1, 1.0, 2, 4, 0.0, seed=0)
        theta = rng.normal(size=layout.param_count)
        features = rng.normal(size=(10, 4))
        labels = rng.integers(0, 2, size=10)
        updated = participant_update(theta, features, labels, cfg, np.random.default_rng(0))
        assert np.array_equal(updated, theta)

    def test_single_sample_single_step_matches_gradient(self, rng):
        layout = ModelLayout("logistic", 4, 3)
        rate = 0.3
        cfg = TrainingConfig(layout, 1, 1.0, 1, 1, rate, seed=0)
        theta = rng.normal(size=layout.param_count)
        features = rng.normal(size=(1, 4))
        labels = np.array([2])
        updated = participant_update(theta, features, labels, cfg, np.random.default_rng(1))
        # Finite-difference oracle for the step direction.
        step = 1e-5
        numeric = np.zeros_like(theta)
        for i in range(theta.size):
            bumped = theta.copy()
            bumped[i] += step
            up, _ = loss_and_gradient(layout, bumped, features, labels)
            bumped[i] -= 2 * step
            down, _ = loss_and_gradient(layout, bumped, features, labels)
            numeric[i] = (up - down) / (2 * step)
        np.testing.assert_allclose(updated, theta - rate * numeric, atol=1e-8)

    def test_deterministic_given_seed(self, rng):
        layout = ModelLayout("logistic", 4, 2)
        cfg = TrainingConfig(layout, 1, 1.0, 3, 4, 0.2, seed=0)
        theta = rng.normal(size=layout.param_count)
        features = rng.normal(size=(20, 4))
        labels = rng.integers(0, 2, size=20)
        first = participant_update(theta, features, labels, cfg, np.random.default_rng(5))
        second = participant_update(theta, features, labels, cfg, np.random.default_rng(5))
        assert np.array_equal(first, second)

    def test_empty_shard_refused(self):
        layout = ModelLayout("logistic", 4, 2)
        cfg = TrainingConfig(layout, 1, 1.0, 1, 4, 0.2, seed=0)
        with pytest.raises(ValueError, match="empty shard"):
            participant_update(
                np.zeros(layout.param_count),
                np.empty((0, 4)),
                np.empty(0, dtype=int),
                cfg,
                np.random.default_rng(0),
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_round_and_participant(self, rng):
        layout = ModelLayout("mlp", 4, 2, hidden_units=3)
        cfg = TrainingConfig(layout, 1, 1.0, 1, 4, 1e300, seed=0)
        theta = rng.normal(size=layout.param_count)
        with pytest.raises(TrainingError, match=r"round 2.*participant 9"):
            participant_update(
                theta,
                rng.normal(size=(8, 4)),
                rng.integers(0, 2, size=8),
                cfg,
                np.random.default_rng(0),
                round_index=2,
                participant_id=9,
            )


class TestTrainRound:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_lockstep_names_the_diverging_participant(self, rng):
        layout = ModelLayout("logistic", 4, 2)
        cfg = TrainingConfig(layout, 5, 1.0, 1, 4, 0.5, seed=3)
        labels = rng.integers(0, 2, size=8)
        # Equal shard sizes, so both train in one lockstep group; only
        # participant 5's features overflow the logits.
        shards = {
            3: (rng.normal(size=(8, 4)), labels),
            5: (rng.normal(size=(8, 4)) * 1e308, labels),
        }
        with pytest.raises(TrainingError, match=r"round 4, participant 5$"):
            train_round(np.zeros(layout.param_count), shards, (3, 5), cfg, 4)
        update = train_round(np.zeros(layout.param_count), shards, (3,), cfg, 4)[3]
        assert np.isfinite(update).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_diverging_participant_in_id_order_is_named(self, rng):
        layout = ModelLayout("logistic", 4, 2)
        cfg = TrainingConfig(layout, 1, 1.0, 1, 4, 0.5, seed=3)
        shards = {
            pid: (rng.normal(size=(size, 4)) * scale, rng.integers(0, 2, size=size))
            for pid, size, scale in ((1, 8, 1.0), (2, 6, 1e308), (4, 8, 1e308))
        }
        with pytest.raises(TrainingError, match=r"participant 2$"):
            train_round(np.zeros(layout.param_count), shards, (1, 2, 4), cfg, 0)


class TestAggregation:
    def _record(self, rng):
        dim = 4
        updates = {pid: rng.normal(size=dim) for pid in (1, 3, 5)}
        before = rng.normal(size=dim)
        after = np.mean([updates[pid] for pid in (1, 3, 5)], axis=0)
        return RoundRecord(0, before, (1, 3, 5), updates, after)

    def test_singleton_subset(self, rng):
        record = self._record(rng)
        assert np.array_equal(aggregate_subset(record, [3]), record.updates[3])

    def test_full_subset_matches_global_after(self, rng):
        record = self._record(rng)
        assert np.array_equal(aggregate_subset(record, (1, 3, 5)), record.global_after)

    def test_empty_subset_returns_global_before(self, rng):
        record = self._record(rng)
        assert np.array_equal(aggregate_subset(record, ()), record.global_before)

    def test_mean_of_two(self):
        updates = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        record = RoundRecord(
            0, np.zeros(2), (0, 1), updates, np.array([0.5, 0.5])
        )
        assert np.array_equal(aggregate_subset(record, (0, 1)), [0.5, 0.5])

    def test_unknown_participant_rejected(self, rng):
        record = self._record(rng)
        with pytest.raises(ValueError, match=r"\[2\]"):
            aggregate_subset(record, [2])


class TestUtility:
    def test_constant_predictor_on_balanced_set(self):
        layout = ModelLayout("logistic", 3, 2)
        features = np.ones((10, 3))
        labels = np.array([0, 1] * 5)
        assert evaluate_utility(layout, np.zeros(layout.param_count), features, labels) == 0.5

    def test_separable_blobs_reach_perfect_accuracy(self):
        data = synth_blobs(60, 4, 2, 60.0, 3)
        layout = ModelLayout("logistic", 4, 2)
        cfg = TrainingConfig(layout, 1, 1.0, 30, 10, 0.5, seed=0)
        theta = participant_update(
            np.zeros(layout.param_count), data.features, data.labels, cfg,
            np.random.default_rng(0),
        )
        assert evaluate_utility(layout, theta, data.features, data.labels) == 1.0

    def test_accuracy_equals_explicit_count(self, rng):
        layout = ModelLayout("logistic", 3, 3)
        theta = rng.normal(size=layout.param_count)
        features = rng.normal(size=(25, 3))
        labels = rng.integers(0, 3, size=25)
        from fedval.models import predict

        explicit = sum(predict(layout, theta, features) == labels) / 25
        assert evaluate_utility(layout, theta, features, labels) == explicit

    def test_empty_validation_rejected(self):
        layout = ModelLayout("logistic", 3, 2)
        with pytest.raises(ValueError):
            evaluate_utility(
                layout, np.zeros(layout.param_count), np.empty((0, 3)), np.empty(0, int)
            )

    def test_bounded_metric_required_by_oracle(self, rng):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        with pytest.raises(ValueError, match="bounded"):
            make_round_oracle(layout, run.records, *val, metric="neg_loss")


class TestRoundOracle:
    def test_full_and_empty_blocks(self):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        oracle = make_round_oracle(layout, run.records, *val)
        record = run.records[1]
        history = [run.records[0].selected]
        full = oracle.evaluate([*history, record.selected])
        assert full == evaluate_utility(layout, record.global_after, *val)
        empty = oracle.evaluate([*history, ()])
        assert empty == evaluate_utility(layout, record.global_before, *val)
        assert oracle.evaluate(()) == evaluate_utility(
            layout, run.records[0].global_before, *val
        )

    def test_matches_direct_composition(self, rng):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        oracle = make_round_oracle(layout, run.records, *val)
        record = run.records[2]
        history = [r.selected for r in run.records[:2]]
        for _ in range(10):
            size = int(rng.integers(0, len(record.selected) + 1))
            subset = rng.choice(record.selected, size=size, replace=False)
            expected = evaluate_utility(
                layout, aggregate_subset(record, subset), *val
            )
            assert oracle.evaluate([*history, subset]) == expected

    def test_unrealized_history_rejected(self):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        oracle = make_round_oracle(layout, run.records, *val)
        wrong_prefix = tuple(set(run.records[0].selected) ^ set(shards))
        if not wrong_prefix:
            wrong_prefix = (max(shards) + 1,)
        with pytest.raises(HistoryMismatchError):
            oracle.evaluate([wrong_prefix, run.records[1].selected])
        with pytest.raises(HistoryMismatchError):
            oracle.evaluate([r.selected for r in run.records] + [()])

    def test_stray_participant_rejected(self):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        oracle = make_round_oracle(layout, run.records, *val)
        outsider = max(shards) + 1
        with pytest.raises(HistoryMismatchError, match=str(outsider)):
            oracle.evaluate([(outsider,)])


class TestFederatedTraining:
    def test_single_round_exact_composition(self):
        layout, cfg, shards, val = small_setup()
        cfg = TrainingConfig(
            layout=layout, rounds=1, participant_fraction=1.0, local_epochs=1,
            batch_size=16, learning_rate=0.5, seed=3,
        )
        run = run_federated_training(shards, cfg, val, valuation="exact")
        oracle = make_round_oracle(layout, run.records, *val)
        direct = exact_federated_round_shapley(
            oracle, (), run.records[0].selected, round_index=0
        )
        assert run.report is not None
        assert run.report.per_round[0].values == direct.values

    def test_valuation_never_alters_trajectory(self):
        layout, cfg, shards, val = small_setup()
        baseline = run_federated_training(shards, cfg, val, valuation="none")
        for method in ("exact", "loo", "random"):
            other = run_federated_training(shards, cfg, val, valuation=method)
            assert np.array_equal(baseline.final_params, other.final_params)

    def test_telescoping_total(self):
        data = synth_blobs(700, 5, 3, 3.0, 21)
        from fedval.datasets import Dataset

        train = Dataset(data.features[:500], data.labels[:500], 3)
        val = (data.features[500:], data.labels[500:])
        plan = partition_iid(train, 10, 22)
        shards = split_shards(train, plan)
        layout = ModelLayout("logistic", 5, 3)
        cfg = TrainingConfig(layout, 3, 0.3, 1, 16, 0.5, seed=23)
        run = run_federated_training(shards, cfg, val, valuation="exact")
        report = run.report
        total = sum(report.total.values.values())
        oracle = make_round_oracle(layout, run.records, *val)
        final = oracle.evaluate([r.selected for r in run.records])
        assert abs(total - (final - report.initial_utility)) <= 1e-9

    def test_fedavg_consistency(self):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        for record in run.records:
            recomputed = np.mean([record.updates[p] for p in record.selected], axis=0)
            assert np.abs(recomputed - record.global_after).max() <= 1e-9
            assert len(record.selected) == round_size(
                cfg.participant_fraction, len(shards)
            )

    def test_seed_determinism_end_to_end(self):
        layout, cfg, shards, val = small_setup()
        first = run_federated_training(shards, cfg, val)
        second = run_federated_training(shards, cfg, val)
        for a, b in zip(first.records, second.records):
            assert a.selected == b.selected
            assert np.array_equal(a.global_before, b.global_before)
            assert np.array_equal(a.global_after, b.global_after)
            for pid in a.selected:
                assert np.array_equal(a.updates[pid], b.updates[pid])

    def test_estimator_methods_run(self):
        layout, cfg, shards, val = small_setup()
        approx = ApproxParams(epsilon=0.3, delta=0.3)
        run = run_federated_training(shards, cfg, val, valuation="permutation", approx=approx)
        assert run.report is not None
        run = run_federated_training(shards, cfg, val, valuation="group_testing", approx=approx)
        assert run.report is not None

    def test_missing_approx_rejected(self):
        layout, cfg, shards, val = small_setup()
        with pytest.raises(ValueError, match="approximation parameters"):
            run_federated_training(shards, cfg, val, valuation="permutation")

    def test_single_participant_round_group_testing_falls_back(self):
        layout, cfg, shards, val = small_setup(participants=3)
        cfg = TrainingConfig(
            layout=layout, rounds=2, participant_fraction=0.1, local_epochs=1,
            batch_size=16, learning_rate=0.5, seed=4,
        )
        approx = ApproxParams(epsilon=0.3, delta=0.3)
        run = run_federated_training(shards, cfg, val, valuation="group_testing", approx=approx)
        loo = value_rounds(run.records, layout, *val, "loo", seed=cfg.seed)
        for round_est, round_loo in zip(run.report.per_round, loo.per_round):
            assert round_est.values == round_loo.values  # single marginal either way


class TestReplay:
    def test_rerun_reproduces_final_params(self):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        selections = [record.selected for record in run.records]
        replayed = rerun_with_selections(shards, cfg, selections)
        assert np.array_equal(replayed, run.final_params)

    def test_dismissal_changes_trajectory(self):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        selections = [record.selected for record in run.records]
        dropped = rerun_with_selections(
            shards, cfg, selections, keep=lambda t, sel: sel[1:]
        )
        assert not np.array_equal(dropped, run.final_params)

    def test_empty_retention_rejected(self):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        selections = [record.selected for record in run.records]
        with pytest.raises(ValueError, match="retain no participants"):
            rerun_with_selections(shards, cfg, selections, keep=lambda t, sel: ())


class TestPartialProgress:
    def test_training_failure_persists_completed_rounds(self, tmp_path, monkeypatch):
        import fedval.engine as engine_module

        layout, cfg, shards, val = small_setup()
        real_round = engine_module.train_round

        def failing_round(global_params, shards, participants, cfg, round_index):
            if round_index == 2:
                raise TrainingError("training diverged at round 2, participant 0")
            return real_round(global_params, shards, participants, cfg, round_index)

        monkeypatch.setattr(engine_module, "train_round", failing_round)
        with pytest.raises(TrainingError):
            run_federated_training(shards, cfg, val, snapshot_dir=tmp_path / "rounds")
        records, _ = load_round_records(tmp_path / "rounds")
        assert [r.round_index for r in records] == [0, 1]

    def test_oracle_failure_reports_sampling_progress(self):
        calls = {"n": 0}

        class FlakyOracle:
            range_bound = 1.0

            def evaluate(self, blocks):
                calls["n"] += 1
                if calls["n"] > 5:
                    raise RuntimeError("backend gone")
                return 0.5

        from fedval.estimators import permutation_sampling_round

        with pytest.raises(RuntimeError, match=r"after \d+ of 50 sampled orderings"):
            permutation_sampling_round(FlakyOracle(), (), range(8), 50, 0)


class TestSnapshots:
    def test_roundtrip_bitwise(self, tmp_path):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        save_round_records(run.records, layout, tmp_path / "rounds")
        records, loaded_layout = load_round_records(tmp_path / "rounds")
        assert loaded_layout == layout
        assert len(records) == len(run.records)
        for a, b in zip(records, run.records):
            assert a.round_index == b.round_index
            assert a.selected == b.selected
            assert np.array_equal(a.global_before, b.global_before)
            assert np.array_equal(a.global_after, b.global_after)
            for pid in b.selected:
                assert np.array_equal(a.updates[pid], b.updates[pid])

    def test_replayed_valuation_identical(self, tmp_path):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val, valuation="exact")
        save_round_records(run.records, layout, tmp_path / "rounds")
        records, loaded_layout = load_round_records(tmp_path / "rounds")
        replayed = value_rounds(records, loaded_layout, *val, "exact", seed=cfg.seed)
        assert [v.values for v in replayed.per_round] == [
            v.values for v in run.report.per_round
        ]

    def test_bad_magic_rejected(self, tmp_path):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        save_round_records(run.records, layout, tmp_path / "rounds")
        victim = sorted((tmp_path / "rounds").glob("*.fvr"))[0]
        victim.write_bytes(b"junk" + victim.read_bytes()[4:])
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_round_records(tmp_path / "rounds")

    def test_tampered_aggregate_rejected(self, tmp_path):
        layout, cfg, shards, val = small_setup()
        run = run_federated_training(shards, cfg, val)
        run.records[1].global_after[0] += 0.5
        save_round_records(run.records, layout, tmp_path / "rounds")
        with pytest.raises(SnapshotFormatError, match="disagrees"):
            load_round_records(tmp_path / "rounds")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="no round snapshots"):
            load_round_records(tmp_path / "absent")
