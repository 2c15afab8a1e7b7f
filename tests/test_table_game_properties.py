"""Value axioms on generated multi-round table games.

Each game is drawn from a seed and a list of rounds, each round a set of
participant ids; utilities are queried by round index and bitmask. The
fixed-input versions of these checks live in ``test_values.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedval.estimators import (
    ApproxParams,
    group_testing_plan,
    group_testing_round,
    permutation_sampling_round,
    pivot_anchor_values,
)
from fedval.values import (
    aggregate_rounds,
    exact_federated_round_shapley,
    federated_loo_round,
)

from conftest import (
    additive_game,
    brute_force_round_values,
    exact_shapley_permutation_form,
    full_mask,
    random_table_game,
    round_gain,
    stitched_game,
    sum_games,
)

TOL = 1e-9

rounds_strategy = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
    min_size=1,
    max_size=4,
)
seeds = st.integers(0, 2**32 - 1)


def round_values(game):
    return [exact_federated_round_shapley(game, t) for t in range(len(game.rounds))]


@settings(max_examples=60, deadline=None)
@given(rounds_strategy, seeds)
def test_round_efficiency_and_telescoping_totals(rounds, seed):
    game = random_table_game(rounds, np.random.default_rng(seed))
    per_round = round_values(game)
    for t, vector in enumerate(per_round):
        assert abs(sum(vector.values.values()) - round_gain(game, t)) <= TOL
        assert sorted(vector.values) == sorted(game.rounds[t])
    for t in range(1, len(game.rounds)):
        # Finishing a round is the state entering the next one.
        assert game.evaluate(t - 1, full_mask(game, t - 1)) == game.evaluate(t, 0)
    last = len(game.rounds) - 1
    span = game.evaluate(last, full_mask(game, last)) - game.evaluate(0, 0)
    total = sum(aggregate_rounds(per_round).values.values())
    assert abs(total - span) <= TOL * len(game.rounds)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 12), min_size=1, max_size=3),
    seeds,
    st.sampled_from([0.3, 0.5, 1.0]),
)
def test_group_testing_values_sum_to_the_round_gain(sizes, seed, epsilon):
    game = random_table_game([range(m) for m in sizes], np.random.default_rng(seed))
    for t, ids in enumerate(game.rounds):
        plan = group_testing_plan(len(ids), ApproxParams(epsilon=epsilon, delta=0.3))
        values = group_testing_round(game, t, plan, seed)
        assert abs(math.fsum(values.values.values()) - round_gain(game, t)) <= 1e-12


def keyed_set_function(rng, key):
    """A set function whose value depends on ``key(S)`` only, with an
    independent uniform draw per distinct key."""
    drawn: dict = {}

    def worth(subset):
        k = key(subset)
        if k not in drawn:
            drawn[k] = float(rng.uniform(0, 1))
        return drawn[k]

    return worth


@settings(max_examples=40, deadline=None)
@given(rounds_strategy.filter(lambda rounds: all(len(ids) >= 2 for ids in rounds)), seeds)
def test_interchangeable_pair_gets_equal_values(rounds, seed):
    rng = np.random.default_rng(seed)
    functions, pairs = [], []
    for ids in rounds:
        i, j = sorted(ids)[:2]
        pairs.append((i, j))
        functions.append(keyed_set_function(
            rng,
            lambda s, pair=frozenset((i, j)): (tuple(sorted(s - pair)), len(s & pair)),
        ))
    game = stitched_game(rounds, functions)
    for vector, (i, j) in zip(round_values(game), pairs):
        assert abs(vector.get(i) - vector.get(j)) <= TOL


@settings(max_examples=40, deadline=None)
@given(rounds_strategy, seeds, st.data())
def test_null_participant_gets_zero(rounds, seed, data):
    rng = np.random.default_rng(seed)
    nulls = [data.draw(st.sampled_from(ids)) for ids in rounds]
    functions = [
        keyed_set_function(rng, lambda s, k=k: tuple(sorted(s - {k}))) for k in nulls
    ]
    game = stitched_game(rounds, functions)
    for vector, k in zip(round_values(game), nulls):
        assert abs(vector.get(k)) <= TOL


@settings(max_examples=40, deadline=None)
@given(rounds_strategy, seeds)
def test_additivity_under_sum_games(rounds, seed):
    rng = np.random.default_rng(seed)
    first = random_table_game(rounds, rng)
    second = random_table_game(rounds, rng)
    combined = sum_games(first, second)
    for a, b, c in zip(round_values(first), round_values(second), round_values(combined)):
        for pid in c.values:
            assert abs(c.get(pid) - (a.get(pid) + b.get(pid))) <= TOL


@settings(max_examples=40, deadline=None)
@given(
    rounds_strategy,
    st.dictionaries(st.integers(0, 7), st.floats(0.0, 1.0), min_size=8, max_size=8),
    st.floats(0.0, 1.0),
)
def test_loo_and_shapley_recover_additive_weights(rounds, weights, base):
    game = additive_game(rounds, weights, base=base)
    for t, ids in enumerate(game.rounds):
        loo = federated_loo_round(game, t)
        shapley = exact_federated_round_shapley(game, t)
        for pid in ids:
            assert abs(loo.get(pid) - weights[pid]) <= TOL
            assert abs(shapley.get(pid) - weights[pid]) <= TOL


@settings(max_examples=40, deadline=None)
@given(rounds_strategy, seeds)
def test_subset_form_agrees_with_ordering_form(rounds, seed):
    game = random_table_game(rounds, np.random.default_rng(seed))
    for t, vector in enumerate(round_values(game)):
        ordering = brute_force_round_values(game, t)
        for pid, value in ordering.items():
            assert abs(vector.get(pid) - value) <= TOL
    subset_form = exact_federated_round_shapley(game, 0)
    ordering_form = exact_shapley_permutation_form(game)
    for pid in game.rounds[0]:
        assert abs(subset_form.get(pid) - ordering_form.get(pid)) <= TOL


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=5, unique=True),
        min_size=1,
        max_size=3,
    ),
    seeds,
)
def test_values_credit_exactly_the_rounds_players(rounds, seed):
    game = random_table_game(rounds, np.random.default_rng(seed))
    approx = ApproxParams(epsilon=0.5, delta=0.3)
    for t, ids in enumerate(rounds):
        players = game.players(t)
        assert players == tuple(sorted(ids))
        vectors = [
            exact_federated_round_shapley(game, t),
            federated_loo_round(game, t),
            permutation_sampling_round(game, t, ids, 3, seed),
        ]
        if t == 0:
            vectors.append(exact_shapley_permutation_form(game))
        if len(ids) >= 2:
            plan = group_testing_plan(len(ids), approx)
            vectors.append(group_testing_round(game, t, plan, seed))
            vectors.append(pivot_anchor_values(np.zeros(len(ids)), game, t))
        for vector in vectors:
            assert set(vector.values) == set(players)
        listed = sorted(ids)
        for wrong in (listed[:-1], [*listed, listed[-1] + 1], [pid + 1 for pid in listed]):
            with pytest.raises(ValueError, match=rf"^round {t}: round_players"):
                permutation_sampling_round(game, t, wrong, 3, seed)
