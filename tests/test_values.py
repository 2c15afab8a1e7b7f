import pytest

from fedval.games import random_table_game
from fedval.values import (
    EnumerationRefusedError,
    ValueVector,
    aggregate_rounds,
    build_report,
    exact_federated_round_shapley,
    exact_shapley_permutation_form,
    federated_loo_round,
    normalize_round_values,
    write_value_records,
)

from conftest import (
    additive_game,
    brute_force_round_values,
    full_mask,
    game_from_set_function,
    random_process,
    read_value_records,
    round_gain,
    stitched_game,
    sum_games,
)

EXACT_TOL = 1e-9


class NeverCalled:
    """A round of ``ids`` whose utilities must never be asked for."""

    def __init__(self, ids):
        self.ids = tuple(ids)

    def players(self, round_index):
        return self.ids

    def evaluate_many(self, round_index, masks):
        raise AssertionError("cap must refuse before any evaluation")


class TestExactShapley:
    def test_additive_game_returns_weights(self):
        game = additive_game([(1, 2)], {1: 1.0, 2: 3.0})
        values = exact_federated_round_shapley(game, 0)
        assert values.get(1) == pytest.approx(1.0, abs=EXACT_TOL)
        assert values.get(2) == pytest.approx(3.0, abs=EXACT_TOL)

    def test_cardinality_game_splits_evenly(self):
        game = game_from_set_function([0, 1, 2], lambda s: float(len(s)), bound=3.0)
        values = exact_federated_round_shapley(game, 0)
        for pid in range(3):
            assert values.get(pid) == pytest.approx(1.0, abs=EXACT_TOL)

    def test_pair_threshold_game(self):
        # Utility 1 exactly when the coalition holds {1,2} or {1,3}. The
        # expected split (2/3, 1/6, 1/6) is frozen from the ordering
        # enumeration oracle below.
        def worth(s):
            return 1.0 if ({1, 2} <= s or {1, 3} <= s) else 0.0

        game = game_from_set_function([1, 2, 3], worth, bound=1.0)
        oracle = brute_force_round_values(game, 0)
        assert oracle[1] == pytest.approx(2 / 3, abs=EXACT_TOL)
        assert oracle[2] == pytest.approx(1 / 6, abs=EXACT_TOL)
        assert oracle[3] == pytest.approx(1 / 6, abs=EXACT_TOL)
        values = exact_federated_round_shapley(game, 0)
        for pid in (1, 2, 3):
            assert values.get(pid) == pytest.approx(oracle[pid], abs=EXACT_TOL)

    def test_cap_refused_names_exponential_cost(self):
        with pytest.raises(EnumerationRefusedError, match=r"2\*\*25"):
            exact_federated_round_shapley(NeverCalled(range(25)), 0)


class TestPermutationForm:
    def test_single_player(self):
        game = game_from_set_function([1], lambda s: 0.7 if s else 0.0, bound=0.7)
        values = exact_shapley_permutation_form(game)
        assert values.get(1) == pytest.approx(0.7, abs=EXACT_TOL)

    def test_agrees_with_subset_form_on_random_game(self, rng):
        game = random_table_game([range(4)], rng)
        subset_form = exact_federated_round_shapley(game, 0)
        ordering_form = exact_shapley_permutation_form(game)
        for pid in range(4):
            assert ordering_form.get(pid) == pytest.approx(
                subset_form.get(pid), abs=EXACT_TOL
            )

    def test_squared_cardinality_game(self):
        game = game_from_set_function(
            [0, 1, 2], lambda s: float(len(s)) ** 2, bound=9.0
        )
        values = exact_shapley_permutation_form(game)
        for pid in range(3):
            assert values.get(pid) == pytest.approx(3.0, abs=EXACT_TOL)
        assert sum(values.values.values()) == pytest.approx(9.0, abs=EXACT_TOL)

    def test_form_equivalence_on_many_small_games(self, rng):
        for _ in range(15):
            m = int(rng.integers(1, 7))
            game = random_table_game([range(m)], rng)
            subset_form = exact_federated_round_shapley(game, 0)
            ordering_form = exact_shapley_permutation_form(game)
            for pid in range(m):
                assert abs(subset_form.get(pid) - ordering_form.get(pid)) <= EXACT_TOL

    def test_cap_refused_names_factorial_cost(self):
        with pytest.raises(EnumerationRefusedError, match="9!"):
            exact_shapley_permutation_form(NeverCalled(range(9)))


class TestFederatedRound:
    def test_empty_history_matches_plain_shapley(self, rng):
        game = random_table_game([range(4)], rng)
        plain = exact_shapley_permutation_form(game)
        conditioned = exact_federated_round_shapley(game, 0)
        for pid in range(4):
            assert conditioned.get(pid) == pytest.approx(plain.get(pid), abs=EXACT_TOL)

    def test_singleton_round_is_marginal(self, rng):
        game = random_table_game([(0, 1), (2,)], rng)
        values = exact_federated_round_shapley(game, 1)
        expected = round_gain(game, 1)
        assert values.get(2) == pytest.approx(expected, abs=EXACT_TOL)

    def test_additive_rounds_return_weights(self):
        weights = {1: 1.0, 2: 3.0, 3: 0.5}
        game = additive_game([(1, 2), (2, 3)], weights)
        first = exact_federated_round_shapley(game, 0)
        second = exact_federated_round_shapley(game, 1)
        assert first.get(1) == pytest.approx(1.0, abs=EXACT_TOL)
        assert first.get(2) == pytest.approx(3.0, abs=EXACT_TOL)
        assert second.get(2) == pytest.approx(3.0, abs=EXACT_TOL)
        assert second.get(3) == pytest.approx(0.5, abs=EXACT_TOL)

    def test_matches_brute_force_on_random_processes(self, rng):
        for _ in range(25):
            game = random_process(rng)
            for t, block in enumerate(game.rounds):
                values = exact_federated_round_shapley(game, t)
                oracle = brute_force_round_values(game, t)
                for pid in block:
                    assert abs(values.get(pid) - oracle[pid]) <= EXACT_TOL

    def test_unselected_participants_are_exactly_zero(self, rng):
        game = random_table_game([(0, 1), (2, 3)], rng)
        values = exact_federated_round_shapley(game, 1)
        assert set(values.values) == {2, 3}
        assert values.get(0) == 0.0
        assert values.get(7) == 0.0


class TestValueAxioms:
    def test_instantaneous_group_rationality(self, rng):
        for _ in range(30):
            game = random_process(rng)
            for t, block in enumerate(game.rounds):
                values = exact_federated_round_shapley(game, t)
                gain = round_gain(game, t)
                assert abs(sum(values.values.values()) - gain) <= EXACT_TOL

    def test_long_term_rationality(self, rng):
        for _ in range(20):
            game = random_process(rng)
            per_round = [
                exact_federated_round_shapley(game, t)
                for t in range(len(game.rounds))
            ]
            total = aggregate_rounds(per_round)
            last = len(game.rounds) - 1
            span = game.evaluate(last, full_mask(game, last)) - game.evaluate(0, 0)
            tolerance = EXACT_TOL * len(game.rounds)
            assert abs(sum(total.values.values()) - span) <= tolerance

    def test_interchangeable_participants_get_equal_values(self, rng):
        ids = (0, 1, 2, 3)
        for _ in range(10):
            worth_of_rest = {
                frozenset(s): float(rng.uniform(0, 1))
                for s in ([], [2], [3], [2, 3])
            }
            pair_bonus = [0.0, float(rng.uniform(0, 1)), float(rng.uniform(1, 2))]

            def worth(s):
                return worth_of_rest[frozenset(s - {0, 1})] + pair_bonus[len(s & {0, 1})]

            game = stitched_game([ids, ids], [worth, worth])
            for t in range(2):
                values = exact_federated_round_shapley(game, t)
                assert abs(values.get(0) - values.get(1)) <= EXACT_TOL

    def test_null_participant_gets_zero(self, rng):
        ids = (0, 1, 2, 3)
        for _ in range(10):
            worth_of_rest = {
                frozenset(s): float(rng.uniform(0, 1))
                for s in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])
            }

            def worth(s, dummy=3):
                return worth_of_rest[frozenset(s - {dummy})]

            game = stitched_game([ids, ids], [worth, worth])
            for t in range(2):
                values = exact_federated_round_shapley(game, t)
                assert abs(values.get(3)) <= EXACT_TOL

    def test_additivity_across_utilities(self, rng):
        rounds = [(0, 1, 2), (1, 2, 3)]
        for _ in range(10):
            first = random_table_game(rounds, rng)
            second = random_table_game(rounds, rng)
            combined = sum_games(first, second)
            for t, block in enumerate(first.rounds):
                a = exact_federated_round_shapley(first, t)
                b = exact_federated_round_shapley(second, t)
                c = exact_federated_round_shapley(combined, t)
                for pid in block:
                    assert abs(c.get(pid) - (a.get(pid) + b.get(pid))) <= EXACT_TOL


class TestLeaveOneOut:
    def test_zero_when_removal_changes_nothing(self):
        game = game_from_set_function([0, 1], lambda s: 1.0, bound=1.0)
        values = federated_loo_round(game, 0)
        assert values.get(0) == 0.0
        assert values.get(1) == 0.0

    def test_singleton_round_reduces_to_round_gain(self, rng):
        game = random_table_game([(0, 1), (2,)], rng)
        values = federated_loo_round(game, 1)
        expected = round_gain(game, 1)
        assert values.get(2) == pytest.approx(expected, abs=EXACT_TOL)

    def test_additive_game_recovers_weights(self):
        weights = {0: 1.0, 1: 2.0, 2: 3.0}
        game = additive_game([(0, 1, 2)], weights)
        values = federated_loo_round(game, 0)
        # Independent check: direct removal differences on the raw game
        # (ids 0..2 sit at bits 0..2).
        full = game.evaluate(0, 0b111)
        for pid, weight in weights.items():
            drop = game.evaluate(0, 0b111 ^ (1 << pid))
            assert values.get(pid) == pytest.approx(full - drop, abs=EXACT_TOL)
            assert values.get(pid) == pytest.approx(weight, abs=EXACT_TOL)


class TestAggregationAndNormalization:
    def test_single_round_aggregation_is_identity(self):
        vector = ValueVector({1: 0.5, 2: -0.25}, round_index=0)
        total = aggregate_rounds([vector])
        assert total.values == vector.values
        assert total.round_index is None

    def test_absent_participant_stays_zero(self):
        total = aggregate_rounds([ValueVector({1: 0.5}, 0), ValueVector({2: 1.0}, 1)])
        assert total.get(3) == 0.0

    def test_signed_sum(self):
        total = aggregate_rounds([ValueVector({7: 0.2}, 0), ValueVector({7: -0.05}, 1)])
        assert total.get(7) == pytest.approx(0.15, abs=1e-15)

    def test_l2_normalization(self):
        vector = ValueVector({0: 3.0, 1: 4.0}, 2)
        unit = normalize_round_values(vector)
        assert unit.get(0) == pytest.approx(0.6, abs=1e-12)
        assert unit.get(1) == pytest.approx(0.8, abs=1e-12)
        assert unit.round_index == 2

    def test_zero_vector_passes_through(self):
        vector = ValueVector({0: 0.0, 1: 0.0}, 0)
        unit = normalize_round_values(vector)
        assert unit.values == {0: 0.0, 1: 0.0}

    def test_normalization_preserves_argmax(self, rng):
        for _ in range(20):
            raw = {i: float(v) for i, v in enumerate(rng.normal(size=5))}
            vector = ValueVector(raw, 0)
            unit = normalize_round_values(vector)
            best = max(raw, key=lambda pid: (raw[pid], pid))
            unit_best = max(unit.values, key=lambda pid: (unit.values[pid], pid))
            assert best == unit_best


class TestReport:
    def _report(self, rng):
        game = random_process(rng)
        per_round = [
            exact_federated_round_shapley(game, t)
            for t in range(len(game.rounds))
        ]
        deltas = [round_gain(game, t) for t in range(len(game.rounds))]
        return build_report(per_round, deltas, game.evaluate(0, 0))

    def test_total_is_sum_of_rounds(self, rng):
        report = self._report(rng)
        for pid in report.total.participants():
            summed = sum(vector.get(pid) for vector in report.per_round)
            assert report.total.get(pid) == pytest.approx(summed, abs=1e-15)

    def test_normalized_rounds_have_unit_or_zero_norm(self, rng):
        report = self._report(rng).normalized()
        for norm in report.round_value_norms:
            assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0

    def test_record_roundtrip_is_exact(self, rng, tmp_path):
        report = self._report(rng)
        path = tmp_path / "values.csv"
        write_value_records(report, path)
        loaded = read_value_records(path)
        assert loaded.initial_utility == report.initial_utility
        assert loaded.per_round_utility_delta == report.per_round_utility_delta
        assert loaded.round_value_norms == report.round_value_norms
        assert [v.values for v in loaded.per_round] == [v.values for v in report.per_round]
        assert loaded.total.values == report.total.values
        # Re-serialization is byte-identical.
        second = tmp_path / "again.csv"
        write_value_records(loaded, second)
        assert second.read_bytes() == path.read_bytes()

    def test_rejects_mismatched_deltas(self):
        with pytest.raises(ValueError):
            build_report([ValueVector({0: 1.0}, 0)], [], 0.0)
