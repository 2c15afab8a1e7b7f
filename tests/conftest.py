"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from fedval.datasets import Dataset, PartitionPlan
from fedval.games import TableGame, random_table_game


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def mean_label_entropy(dataset: Dataset, plan: PartitionPlan) -> float:
    """Mean over participants of the label entropy inside their shard (nats)."""
    entropies = []
    for pid in plan.participants():
        shard_labels = dataset.labels[plan.assignment[pid]]
        counts = np.bincount(shard_labels, minlength=dataset.class_count)
        probs = counts[counts > 0] / counts.sum()
        entropies.append(float(-(probs * np.log(probs)).sum()))
    return float(np.mean(entropies))


def random_process(
    rng: np.random.Generator, max_players: int = 6, max_rounds: int = 3
) -> TableGame:
    """Random multi-round game over a small participant universe."""
    universe = list(range(rng.integers(2, max_players + 1)))
    rounds = []
    for _ in range(rng.integers(1, max_rounds + 1)):
        size = int(rng.integers(1, len(universe) + 1))
        members = rng.choice(universe, size=size, replace=False)
        rounds.append([int(p) for p in members])
    return random_table_game(rounds, rng)


def full_mask(game: TableGame, round_index: int) -> int:
    """The mask selecting every participant of the round."""
    return (1 << len(game.rounds[round_index])) - 1


def round_gain(game: TableGame, round_index: int) -> float:
    """Utility after the full round minus the utility entering it."""
    return game.evaluate(round_index, full_mask(game, round_index)) - game.evaluate(
        round_index, 0
    )


def brute_force_round_values(game: TableGame, round_index: int) -> dict[int, float]:
    """Independent oracle: average marginals over all orderings of the round.

    Walks the masks of each ordering's growing prefixes; deliberately
    shares no code with the library computations beyond the game itself.
    """
    import itertools

    ids = sorted(game.rounds[round_index])
    totals = {pid: 0.0 for pid in ids}
    count = 0
    for perm in itertools.permutations(range(len(ids))):
        mask = 0
        previous = game.evaluate(round_index, mask)
        for b in perm:
            mask |= 1 << b
            current = game.evaluate(round_index, mask)
            totals[ids[b]] += current - previous
            previous = current
        count += 1
    return {pid: total / count for pid, total in totals.items()}
