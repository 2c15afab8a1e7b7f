import math
import tracemalloc

import numpy as np
import pytest

from fedval.estimators import (
    ApproxParams,
    GroupTestingPlan,
    group_testing_plan,
    group_testing_round,
    h_bernstein,
    permutation_sample_count,
    permutation_sampling_round,
    pivot_anchor_values,
)
from fedval.values import exact_federated_round_shapley

from conftest import additive_game, game_from_set_function, random_table_game


class TestApproxParams:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            ApproxParams(epsilon=0.0, delta=0.1)

    def test_rejects_delta_outside_unit_interval(self):
        with pytest.raises(ValueError):
            ApproxParams(epsilon=0.1, delta=1.0)


class TestSampleCount:
    def test_reference_value(self):
        params = ApproxParams(epsilon=0.1, delta=0.05)
        assert permutation_sample_count(params, 10) == 1199
        assert permutation_sample_count(params, 10) == math.ceil(
            200.0 * math.log(400.0)
        )

    def test_exact_integer_case(self):
        params = ApproxParams(epsilon=math.sqrt(2.0), delta=2.0 / math.e)
        assert permutation_sample_count(params, 1) == 1

    def test_rejects_zero_participants(self):
        with pytest.raises(ValueError):
            permutation_sample_count(ApproxParams(epsilon=0.1, delta=0.1), 0)


class TestBernsteinRate:
    def test_zero(self):
        assert h_bernstein(0.0) == 0.0

    def test_unit(self):
        assert h_bernstein(1.0) == pytest.approx(2 * math.log(2) - 1, abs=1e-12)

    def test_exp_point(self):
        assert h_bernstein(math.e - 1) == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            h_bernstein(-1.0)


class TestGroupTestingPlan:
    def test_hand_computed_m4(self):
        plan = group_testing_plan(4, ApproxParams(epsilon=0.1, delta=0.2))
        assert plan.z == pytest.approx(11 / 3, abs=1e-12)
        np.testing.assert_allclose(
            plan.subset_size_probs, [4 / 11, 3 / 11, 4 / 11], atol=1e-12
        )
        assert plan.q_tot == pytest.approx(5 / 11, abs=1e-12)
        assert plan.t1 >= 1 and plan.t2 >= 1

    def test_m2_degenerates_to_single_size(self):
        plan = group_testing_plan(2, ApproxParams(epsilon=0.1, delta=0.2))
        assert plan.z == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(plan.subset_size_probs, [1.0], atol=1e-12)
        assert plan.q_tot == 0.0

    def test_size_distribution_is_symmetric_and_normalized(self):
        for m in range(2, 12):
            plan = group_testing_plan(m, ApproxParams(epsilon=0.1, delta=0.1))
            probs = plan.subset_size_probs
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert (probs > 0).all()
            np.testing.assert_allclose(probs, probs[::-1], atol=1e-12)

    def test_rejects_single_participant(self):
        with pytest.raises(ValueError):
            group_testing_plan(1, ApproxParams(epsilon=0.1, delta=0.1))


class TestPermutationSampling:
    def test_single_participant_is_exact_marginal(self, rng):
        game = random_table_game([(5,)], rng)
        values = permutation_sampling_round(game, 0, [5], 3, 0)
        expected = game.evaluate(0, 1) - game.evaluate(0, 0)
        assert values.get(5) == pytest.approx(expected, abs=1e-12)

    def test_constant_utility_gives_zeros(self):
        game = game_from_set_function([0, 1, 2], lambda s: 0.5, bound=1.0)
        values = permutation_sampling_round(game, 0, [0, 1, 2], 25, 7)
        for pid in range(3):
            assert values.get(pid) == 0.0

    def test_telescoping_holds_for_any_sample_count(self, rng):
        for count in (1, 2, 17):
            game = random_table_game([(0, 1), (0, 2, 3)], rng)
            values = permutation_sampling_round(game, 1, (0, 2, 3), count, 11)
            total = sum(values.values.values())
            span = game.evaluate(1, 0b111) - game.evaluate(1, 0)
            assert total == pytest.approx(span, abs=1e-9)

    def test_deterministic_given_seed(self, rng):
        game = random_table_game([range(5)], rng)
        first = permutation_sampling_round(game, 0, range(5), 40, 123)
        second = permutation_sampling_round(game, 0, range(5), 40, 123)
        assert first.values == second.values

    def test_unbiased_over_many_single_samples(self, rng):
        game = random_table_game([range(4)], rng)
        exact = exact_federated_round_shapley(game, 0)
        draws = {pid: [] for pid in range(4)}
        for trial in range(10_000):
            values = permutation_sampling_round(game, 0, range(4), 1, trial)
            for pid in range(4):
                draws[pid].append(values.get(pid))
        for pid in range(4):
            samples = np.asarray(draws[pid])
            stderr = samples.std(ddof=1) / math.sqrt(len(samples))
            assert abs(samples.mean() - exact.get(pid)) <= 3 * max(stderr, 1e-12)

    def test_contract_against_exact_values(self):
        params = ApproxParams(epsilon=0.1, delta=0.2)
        count = permutation_sample_count(params, 4)
        hits = 0
        trials = 40
        for trial in range(trials):
            rng = np.random.default_rng((991, trial))
            game = random_table_game([range(4)], rng)
            exact = exact_federated_round_shapley(game, 0)
            estimate = permutation_sampling_round(game, 0, range(4), count, rng)
            worst = max(abs(estimate.get(p) - exact.get(p)) for p in range(4))
            hits += worst <= params.epsilon
        assert hits / trials >= 1.0 - params.delta


class TestGroupTesting:
    def test_constant_utility_concentrates_near_zero(self):
        params = ApproxParams(epsilon=0.2, delta=0.2)
        plan = group_testing_plan(4, params)
        game = game_from_set_function([0, 1, 2, 3], lambda s: 0.5, bound=1.0)
        values = group_testing_round(game, 0, plan, 3)
        # The pivot's sampled marginals are exactly zero; other values are
        # pure difference noise within the plan's guarantee.
        assert values.get(3) == 0.0
        for pid in range(4):
            assert abs(values.get(pid)) <= params.epsilon

    def test_interchangeable_participants_close(self):
        params = ApproxParams(epsilon=0.15, delta=0.2)
        plan = group_testing_plan(4, params)
        game = additive_game([range(4)], {0: 0.1, 1: 0.1, 2: 0.05, 3: 0.2})
        close = 0
        trials = 100
        for trial in range(trials):
            values = group_testing_round(game, 0, plan, (271, trial))
            if abs(values.get(0) - values.get(1)) <= 2 * params.epsilon:
                close += 1
        assert close / trials >= 1.0 - params.delta

    def test_contract_against_exact_values(self):
        params = ApproxParams(epsilon=0.15, delta=0.25)
        plan = group_testing_plan(5, params)
        hits = 0
        trials = 40
        for trial in range(trials):
            rng = np.random.default_rng((5417, trial))
            game = random_table_game([range(5)], rng)
            exact = exact_federated_round_shapley(game, 0)
            estimate = group_testing_round(game, 0, plan, rng)
            worst = max(abs(estimate.get(p) - exact.get(p)) for p in range(5))
            hits += worst <= params.epsilon
        assert hits / trials >= 1.0 - params.delta

    def test_deterministic_given_seed(self, rng):
        params = ApproxParams(epsilon=0.2, delta=0.3)
        plan = group_testing_plan(4, params)
        game = random_table_game([range(4)], rng)
        first = group_testing_round(game, 0, plan, 99)
        second = group_testing_round(game, 0, plan, 99)
        assert first.values == second.values

    def test_rejects_plan_size_mismatch(self, rng):
        plan = group_testing_plan(4, ApproxParams(epsilon=0.2, delta=0.3))
        game = random_table_game([range(5)], rng)
        with pytest.raises(ValueError):
            group_testing_round(game, 0, plan, 0)

    def test_returned_tests_lie_in_range(self, rng, monkeypatch):
        params = ApproxParams(epsilon=0.3, delta=0.3)
        plan = group_testing_plan(4, params)
        game = random_table_game([range(4)], rng)
        batches = []
        lookup = game.evaluate_many

        def recording_evaluate_many(round_index, masks):
            utilities = lookup(round_index, masks)
            batches.append(utilities)
            return utilities

        monkeypatch.setattr(game, "evaluate_many", recording_evaluate_many)
        group_testing_round(game, 0, plan, 5)
        # The first batch is the t1 tests; pivot anchoring queries after it.
        tests = batches[0]
        assert tests.shape == (plan.t1,)
        assert (tests >= 0).all() and (tests <= 1).all()


    def test_tests_are_evaluated_without_the_sort_keys(self):
        plan = group_testing_plan(20, ApproxParams(epsilon=0.25, delta=0.2))
        assert plan.t1 == 14_553
        held = []

        class ZeroOracle:
            def players(self, round_index):
                return tuple(range(20))

            def evaluate_many(self, round_index, masks):
                if not held:  # the t1 tests; the pivot's pairs come after
                    held.append(tracemalloc.get_traced_memory()[0] - base)
                return np.zeros(len(masks))

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            group_testing_round(ZeroOracle(), 0, plan, 7)
        finally:
            tracemalloc.stop()
        # Membership, sizes and masks come to about 0.5 MB; the (t1, m)
        # sort keys or their argsort would be 2.3 MB each.
        assert held[0] < plan.t1 * plan.m * 8


class TestPivotAnchoring:
    def test_zero_differences_collapse_to_pivot(self, rng):
        plan = group_testing_plan(4, ApproxParams(epsilon=0.2, delta=0.3))
        game = random_table_game([range(4)], rng)
        values = pivot_anchor_values(np.zeros(4), game, 0, plan, 13)
        level = values.get(3)
        for pid in range(4):
            assert values.get(pid) == level

    def test_single_participant_edge(self, rng):
        plan = GroupTestingPlan(
            m=1, z=0.0, subset_size_probs=np.empty(0), q_tot=0.0, t1=0, t2=25
        )
        game = random_table_game([(9,)], rng)
        values = pivot_anchor_values(np.zeros(1), game, 0, plan, 4)
        expected = game.evaluate(0, 1) - game.evaluate(0, 0)
        assert values.get(9) == pytest.approx(expected, abs=1e-12)

    def test_additive_pivot_within_epsilon(self):
        params = ApproxParams(epsilon=0.1, delta=0.2)
        plan = group_testing_plan(5, params)
        weights = {0: 0.05, 1: 0.1, 2: 0.15, 3: 0.02, 4: 0.08}
        game = additive_game([range(5)], weights)
        hits = 0
        trials = 50
        for trial in range(trials):
            values = pivot_anchor_values(
                np.zeros(5), game, 0, plan, (33, trial)
            )
            hits += abs(values.get(4) - weights[4]) <= params.epsilon
        assert hits / trials >= 1.0 - params.delta

    def test_values_offset_the_pivot_by_load_differences(self, rng):
        # Participant b is the pivot (the highest id) plus loads[b] minus
        # the pivot's load, in that order and sign.
        plan = group_testing_plan(7, ApproxParams(epsilon=0.2, delta=0.3))
        game = random_table_game([range(7)], rng)
        loads = rng.normal(size=7)
        pivot = pivot_anchor_values(np.zeros(7), game, 0, plan, 5).get(6)
        values = pivot_anchor_values(loads, game, 0, plan, 5)
        for b in range(7):
            assert values.get(b) == pivot + (loads[b] - loads[6])
        with pytest.raises(ValueError, match="loads shape"):
            pivot_anchor_values(np.zeros((7, 7)), game, 0, plan, 5)


class TestBudgets:
    def test_crossover_reported_and_holds_for_large_rounds(self):
        params = ApproxParams(epsilon=0.1, delta=0.1)
        sizes = [10, 25, 50, 100, 155, 200, 350, 500]
        cheaper = {}
        for m in sizes:
            plan = group_testing_plan(m, params)
            cheaper[m] = plan.t1 + plan.t2 < m * permutation_sample_count(params, m)
        winners = [m for m in sizes if cheaper[m]]
        assert winners, "paired tests never became cheaper"
        threshold = min(winners)
        # Once cheaper, stays cheaper across the scanned grid.
        for m in sizes:
            if m >= threshold:
                assert cheaper[m]
        print(f"paired-test estimator cheaper from m={threshold} on (fixed split constants)")
