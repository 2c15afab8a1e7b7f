from dataclasses import replace

import numpy as np
import pytest

from fedval.datasets import Dataset, partition_iid, synth_blobs
from fedval.engine import (
    HistoryMismatchError,
    RoundOracle,
    RoundRecord,
    SnapshotFormatError,
    TrainingError,
    aggregate_subset,
    evaluate_utility,
    load_round_records,
    participant_update,
    rerun_with_selections,
    round_size,
    run_federated_training,
    save_round_records,
    train_round,
    value_rounds,
)
from fedval.estimators import ApproxParams, permutation_sampling_round
from fedval.models import ModelLayout, loss_and_gradient
from fedval.values import exact_federated_round_shapley, value_record_lines

from conftest import HeldRows, index_shards, record_evaluations, training


def small_setup(seed=7, participants=6, classes=3, samples=480):
    data = synth_blobs(samples + 240, 5, classes, 3.0, seed)
    train = Dataset(data.features[:samples], data.labels[:samples], classes)
    val = (data.features[samples:], data.labels[samples:])
    shards = partition_iid(train.labels, participants, seed + 1).assignment
    layout = ModelLayout("logistic", 5, classes)
    cfg = training(
        layout,
        rounds=3,
        participant_fraction=0.5,
        local_epochs=1,
        batch_size=16,
        learning_rate=0.5,
        seed=seed,
    )
    return layout, cfg, train, shards, val


class TestConfigAndSelection:
    def test_round_size_takes_ceiling_with_floor_of_one(self):
        assert round_size(0.5, 20) == 10
        assert round_size(0.3, 10) == 3
        assert round_size(0.2, 10) == 2
        assert round_size(0.01, 10) == 1
        assert round_size(1.0, 7) == 7


class TestParticipantUpdate:
    def test_single_sample_single_step_matches_gradient(self, rng):
        layout = ModelLayout("logistic", 4, 3)
        rate = 0.3
        cfg = training(layout, 1, 1.0, 1, 1, rate, seed=0)
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
        cfg = training(layout, 1, 1.0, 3, 4, 0.2, seed=0)
        theta = rng.normal(size=layout.param_count)
        features = rng.normal(size=(20, 4))
        labels = rng.integers(0, 2, size=20)
        first = participant_update(theta, features, labels, cfg, np.random.default_rng(5))
        second = participant_update(theta, features, labels, cfg, np.random.default_rng(5))
        assert np.array_equal(first, second)

    def test_empty_shard_refused(self):
        layout = ModelLayout("logistic", 4, 2)
        cfg = training(layout, 1, 1.0, 1, 4, 0.2, seed=0)
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
        cfg = training(layout, 1, 1.0, 1, 4, 1e300, seed=0, init_scale=0.1)
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
        cfg = training(layout, 5, 1.0, 1, 4, 0.5, seed=3)
        labels = rng.integers(0, 2, size=8)
        # Equal shard sizes, so both train in one lockstep group; only
        # participant 5's features overflow the logits.
        data, shards = index_shards(
            {3: (rng.normal(size=(8, 4)), labels), 5: (rng.normal(size=(8, 4)), labels)}, 2, rng
        )
        data.features[shards[5]] *= 1e308
        with pytest.raises(TrainingError, match=r"round 4, participant 5$"):
            train_round(np.zeros(layout.param_count), data, shards, (3, 5), cfg, 4)
        update = train_round(np.zeros(layout.param_count), data, shards, (3,), cfg, 4)[0]
        assert np.isfinite(update).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_diverging_participant_in_id_order_is_named(self, rng):
        layout = ModelLayout("logistic", 4, 2)
        cfg = training(layout, 1, 1.0, 1, 4, 0.5, seed=3)
        data, shards = index_shards(
            {
                pid: (rng.normal(size=(size, 4)), rng.integers(0, 2, size=size))
                for pid, size in ((1, 8), (2, 6), (4, 8))
            },
            2,
            rng,
        )
        for pid in (2, 4):
            data.features[shards[pid]] *= 1e308
        with pytest.raises(TrainingError, match=r"participant 2$"):
            train_round(np.zeros(layout.param_count), data, shards, (1, 2, 4), cfg, 0)


class TestAggregation:
    def _record(self, rng):
        dim = 4
        # Rows follow the selection: row 1 is participant 3.
        updates = rng.normal(size=(3, dim))
        before = rng.normal(size=dim)
        after = updates.mean(axis=0)
        return RoundRecord(0, before, (1, 3, 5), updates, after)

    def test_singleton_subset(self, rng):
        record = self._record(rng)
        assert np.array_equal(aggregate_subset(record, [3]), record.updates[1])

    def test_full_subset_matches_global_after(self, rng):
        record = self._record(rng)
        assert np.array_equal(aggregate_subset(record, (1, 3, 5)), record.global_after)

    def test_empty_subset_returns_global_before(self, rng):
        record = self._record(rng)
        assert np.array_equal(aggregate_subset(record, ()), record.global_before)

    def test_mean_of_two(self):
        updates = np.array([[1.0, 0.0], [0.0, 1.0]])
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
        cfg = training(layout, 1, 1.0, 30, 10, 0.5, seed=0)
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
        from fedval.models import logits

        explicit = sum(logits(layout, theta, features).argmax(axis=1) == labels) / 25
        assert evaluate_utility(layout, theta, features, labels) == explicit

    def test_empty_validation_rejected(self):
        layout = ModelLayout("logistic", 3, 2)
        with pytest.raises(ValueError):
            evaluate_utility(
                layout, np.zeros(layout.param_count), np.empty((0, 3)), np.empty(0, int)
            )


class TestRoundOracle:
    def test_full_and_empty_blocks(self):
        layout, cfg, train, shards, val = small_setup()
        records = run_federated_training(HeldRows(train, shards), cfg)
        oracle = RoundOracle(layout, records, *val)
        record = records[1]
        full = oracle.evaluate(1, (1 << len(record.selected)) - 1)
        assert full == evaluate_utility(layout, record.global_after, *val)
        empty = oracle.evaluate(1, 0)
        assert empty == evaluate_utility(layout, record.global_before, *val)
        assert oracle.evaluate(0, 0) == evaluate_utility(
            layout, records[0].global_before, *val
        )

    def test_matches_direct_composition(self, rng):
        layout, cfg, train, shards, val = small_setup()
        records = run_federated_training(HeldRows(train, shards), cfg)
        oracle = RoundOracle(layout, records, *val)
        record = records[2]
        ids = sorted(record.selected)
        for _ in range(10):
            size = int(rng.integers(0, len(record.selected) + 1))
            subset = rng.choice(record.selected, size=size, replace=False)
            expected = evaluate_utility(
                layout, aggregate_subset(record, subset), *val
            )
            mask = sum(1 << ids.index(pid) for pid in subset)
            assert oracle.evaluate(2, mask) == expected

    def test_unrealized_history_rejected(self):
        layout, cfg, train, shards, val = small_setup()
        records = run_federated_training(HeldRows(train, shards), cfg)
        oracle = RoundOracle(layout, records, *val)
        beyond = len(records)
        with pytest.raises(HistoryMismatchError, match=f"round {beyond} was not recorded"):
            oracle.evaluate(beyond, 0)
        with pytest.raises(HistoryMismatchError, match="round -1 was not recorded"):
            oracle.evaluate(-1, 0)

    def test_stray_participant_rejected(self):
        layout, cfg, train, shards, val = small_setup()
        records = run_federated_training(HeldRows(train, shards), cfg)
        oracle = RoundOracle(layout, records, *val)
        m = len(records[0].selected)
        for mask in (1 << m, -1):
            with pytest.raises(HistoryMismatchError, match="participants of round 0"):
                oracle.evaluate(0, mask)

    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_batch_checked_before_any_evaluation(self, arch, monkeypatch):
        layout, _, records, val = recorded_run(arch)
        oracle = RoundOracle(layout, records, *val)
        m = len(records[0].selected)
        full = (1 << m) - 1
        evaluated = record_evaluations(monkeypatch)
        with pytest.raises(HistoryMismatchError, match="participants of round 0"):
            oracle.evaluate_many(0, [0, 1, full, 1 << m])
        # The first bad mask in call order is named, whatever its size.
        for batch, bad in [([1, 1 << (m + 1), 1 << m], 1 << (m + 1)), ([1, 1 << 70, -1], 1 << 70)]:
            with pytest.raises(HistoryMismatchError, match=f"mask {bad:#x} selects"):
                oracle.evaluate_many(0, batch)
        assert evaluated == []
        # Nothing was cached: the valid masks are all computed afterwards.
        oracle.evaluate_many(0, [full, 1, 0])
        assert evaluated == ["endpoint", "endpoint", [1]]
        # The oracle's own refusal reaches the value function's caller.
        with pytest.raises(HistoryMismatchError, match=f"round {len(records)} was not recorded"):
            permutation_sampling_round(oracle, len(records), records[0].selected, 5, 0)

    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_mismatched_validation_shapes_refused(self, arch):
        layout, _, records, (features, labels) = recorded_run(arch)
        rows = features[:50]
        with pytest.raises(
            ValueError, match=r"labels have shape \(1,\), features have shape \(50, 5\)"
        ):
            RoundOracle(layout, records, rows, np.array([0]))
        with pytest.raises(
            ValueError, match=r"features have shape \(50, 4\); the layout needs \(n, 5\)"
        ):
            RoundOracle(layout, records, rows[:, :4], labels[:50])
        for label in (-1, layout.n_classes):
            stray = labels[:50].copy()
            stray[7] = label
            with pytest.raises(ValueError, match=rf"labels must lie in \[0, {layout.n_classes}\)"):
                RoundOracle(layout, records, rows, stray)

    def test_records_out_of_bit_order_refused(self):
        layout, _, records, val = recorded_run("logistic")
        last = records[-1]
        descending = replace(last, selected=last.selected[::-1])
        with pytest.raises(ValueError, match=rf"round 2: selected \[{descending.selected[0]}, "):
            RoundOracle(layout, [*records[:-1], descending], *val)
        m = len(last.selected)
        extra_row = replace(last, updates=np.vstack([last.updates, last.updates[:1]]))
        with pytest.raises(
            ValueError, match=rf"round 2: updates have shape \({m + 1}, {layout.param_count}\), not"
        ):
            RoundOracle(layout, [*records[:-1], extra_row], *val)


def recorded_run(arch):
    layout, cfg, train, shards, val = small_setup()
    if arch == "mlp":
        cfg = replace(cfg, model="mlp", hidden_units=4, init_scale=0.1)
        layout = cfg.layout
    return layout, cfg, run_federated_training(HeldRows(train, shards), cfg), val


class TestSharedOracle:
    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    @pytest.mark.parametrize("shapley", ["exact", "permutation"])
    def test_sv_then_loo_match_fresh_oracles(self, arch, shapley):
        layout, cfg, records, val = recorded_run(arch)
        approx = ApproxParams(epsilon=0.3, delta=0.3)

        def value(oracle, method):
            return value_record_lines(
                value_rounds(oracle, method, approx=approx, seed=cfg.seed)
            )

        shared = RoundOracle(layout, records, *val)
        assert value(shared, shapley) == value(RoundOracle(layout, records, *val), shapley)
        assert value(shared, "loo") == value(RoundOracle(layout, records, *val), "loo")

    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_loo_after_exact_is_all_cache_hits(self, arch, monkeypatch):
        layout, cfg, records, val = recorded_run(arch)
        oracle = RoundOracle(layout, records, *val)
        value_rounds(oracle, "exact", seed=cfg.seed)
        evaluated = record_evaluations(monkeypatch)
        value_rounds(oracle, "loo", seed=cfg.seed)
        assert evaluated == []


class TestFederatedTraining:
    def test_single_round_exact_composition(self):
        layout, cfg, train, shards, val = small_setup()
        cfg = training(
            layout, rounds=1, participant_fraction=1.0, local_epochs=1,
            batch_size=16, learning_rate=0.5, seed=3,
        )
        records = run_federated_training(HeldRows(train, shards), cfg)
        report = value_rounds(RoundOracle(layout, records, *val), "exact", seed=cfg.seed)
        direct = exact_federated_round_shapley(RoundOracle(layout, records, *val), 0)
        assert report.per_round[0].values == direct.values

    def test_telescoping_total(self):
        data = synth_blobs(700, 5, 3, 3.0, 21)
        train = Dataset(data.features[:500], data.labels[:500], 3)
        val = (data.features[500:], data.labels[500:])
        shards = partition_iid(train.labels, 10, 22).assignment
        layout = ModelLayout("logistic", 5, 3)
        cfg = training(layout, 3, 0.3, 1, 16, 0.5, seed=23)
        records = run_federated_training(HeldRows(train, shards), cfg)
        oracle = RoundOracle(layout, records, *val)
        report = value_rounds(oracle, "exact", seed=cfg.seed)
        total = sum(report.total.values.values())
        last = records[-1]
        final = oracle.evaluate(last.round_index, (1 << len(last.selected)) - 1)
        assert abs(total - (final - report.initial_utility)) <= 1e-9

    def test_fedavg_consistency(self):
        layout, cfg, train, shards, val = small_setup()
        for record in run_federated_training(HeldRows(train, shards), cfg):
            assert record.global_after.tobytes() == record.updates.mean(axis=0).tobytes()
            assert len(record.selected) == round_size(
                cfg.participant_fraction, len(shards)
            )

    def test_seed_determinism_end_to_end(self):
        layout, cfg, train, shards, val = small_setup()
        first = run_federated_training(HeldRows(train, shards), cfg)
        second = run_federated_training(HeldRows(train, shards), cfg)
        for a, b in zip(first, second):
            assert a.selected == b.selected
            assert np.array_equal(a.global_before, b.global_before)
            assert np.array_equal(a.global_after, b.global_after)
            assert np.array_equal(a.updates, b.updates)

    def test_estimator_methods_run(self):
        layout, cfg, train, shards, val = small_setup()
        approx = ApproxParams(epsilon=0.3, delta=0.3)
        oracle = RoundOracle(layout, run_federated_training(HeldRows(train, shards), cfg), *val)
        for method in ("permutation", "group_testing"):
            report = value_rounds(oracle, method, approx=approx, seed=cfg.seed)
            assert len(report.per_round) == cfg.rounds

    def test_missing_approx_rejected(self):
        layout, cfg, train, shards, val = small_setup()
        oracle = RoundOracle(layout, run_federated_training(HeldRows(train, shards), cfg), *val)
        with pytest.raises(ValueError, match="approximation parameters"):
            value_rounds(oracle, "permutation", seed=cfg.seed)

    def test_single_participant_round_group_testing_falls_back(self):
        layout, cfg, train, shards, val = small_setup(participants=3)
        cfg = training(
            layout, rounds=2, participant_fraction=0.1, local_epochs=1,
            batch_size=16, learning_rate=0.5, seed=4,
        )
        approx = ApproxParams(epsilon=0.3, delta=0.3)
        oracle = RoundOracle(layout, run_federated_training(HeldRows(train, shards), cfg), *val)
        estimated = value_rounds(oracle, "group_testing", approx=approx, seed=cfg.seed)
        loo = value_rounds(oracle, "loo", seed=cfg.seed)
        for round_est, round_loo in zip(estimated.per_round, loo.per_round):
            assert round_est.values == round_loo.values  # single marginal either way


class TestReplay:
    def test_rerun_reproduces_final_params(self):
        layout, cfg, train, shards, val = small_setup()
        records = run_federated_training(HeldRows(train, shards), cfg)
        selections = [record.selected for record in records]
        [replayed] = rerun_with_selections(HeldRows(train, shards), cfg, selections, [selections])
        assert np.array_equal(replayed, records[-1].global_after)

    def test_dismissal_changes_trajectory(self):
        layout, cfg, train, shards, val = small_setup()
        records = run_federated_training(HeldRows(train, shards), cfg)
        selections = [record.selected for record in records]
        [dropped] = rerun_with_selections(HeldRows(train, shards), cfg, selections, [[sel[1:] for sel in selections]])
        assert not np.array_equal(dropped, records[-1].global_after)

    def test_empty_retention_rejected(self):
        layout, cfg, train, shards, val = small_setup()
        selections = [record.selected for record in run_federated_training(HeldRows(train, shards), cfg)]
        with pytest.raises(ValueError, match="retain no participants"):
            rerun_with_selections(HeldRows(train, shards), cfg, selections, [[() for _ in selections]])


class TestPartialProgress:
    def test_training_failure_persists_completed_rounds(self, tmp_path, monkeypatch):
        import fedval.engine as engine_module

        layout, cfg, train, shards, val = small_setup()
        real_round = engine_module.train_round

        def failing_round(global_params, data, shards, participants, cfg, round_index):
            if round_index == 2:
                raise TrainingError("training diverged at round 2, participant 0")
            return real_round(global_params, data, shards, participants, cfg, round_index)

        monkeypatch.setattr(engine_module, "train_round", failing_round)
        with pytest.raises(TrainingError):
            run_federated_training(HeldRows(train, shards), cfg, snapshot_dir=tmp_path / "rounds")
        records, _ = load_round_records(tmp_path / "rounds")
        assert [r.round_index for r in records] == [0, 1]


class TestSnapshots:
    def test_roundtrip_bitwise(self, tmp_path):
        layout, cfg, train, shards, val = small_setup()
        trained = run_federated_training(HeldRows(train, shards), cfg)
        save_round_records(trained, layout, tmp_path / "rounds")
        records, loaded_layout = load_round_records(tmp_path / "rounds")
        assert loaded_layout == layout
        assert len(records) == len(trained)
        for a, b in zip(records, trained):
            assert a.round_index == b.round_index
            assert a.selected == b.selected
            assert np.array_equal(a.global_before, b.global_before)
            assert np.array_equal(a.global_after, b.global_after)
            assert np.array_equal(a.updates, b.updates)

    def test_replayed_valuation_identical(self, tmp_path):
        layout, cfg, train, shards, val = small_setup()
        trained = run_federated_training(HeldRows(train, shards), cfg)
        report = value_rounds(RoundOracle(layout, trained, *val), "exact", seed=cfg.seed)
        save_round_records(trained, layout, tmp_path / "rounds")
        records, loaded_layout = load_round_records(tmp_path / "rounds")
        replayed = value_rounds(
            RoundOracle(loaded_layout, records, *val), "exact", seed=cfg.seed
        )
        assert [v.values for v in replayed.per_round] == [
            v.values for v in report.per_round
        ]

    def test_bad_magic_rejected(self, tmp_path):
        layout, cfg, train, shards, val = small_setup()
        save_round_records(run_federated_training(HeldRows(train, shards), cfg), layout, tmp_path / "rounds")
        victim = sorted((tmp_path / "rounds").glob("*.fvr"))[0]
        victim.write_bytes(b"junk" + victim.read_bytes()[4:])
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_round_records(tmp_path / "rounds")

    def test_tampered_aggregate_rejected(self, tmp_path):
        layout, cfg, train, shards, val = small_setup()
        records = run_federated_training(HeldRows(train, shards), cfg)
        records[1].global_after[0] += 0.5
        save_round_records(records, layout, tmp_path / "rounds")
        with pytest.raises(SnapshotFormatError, match="disagrees"):
            load_round_records(tmp_path / "rounds")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="no round snapshots"):
            load_round_records(tmp_path / "absent")
