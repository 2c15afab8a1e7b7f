"""Shared builders for the test suite."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Sequence

import numpy as np
import pytest

from fedval.datasets import Dataset, PartitionPlan
from fedval.games import TableGame, _stitch_and_fit, random_table_game
from fedval.values import _RECORD_HEADER, ValuationReport, ValueVector, build_report


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


def reference_blobs(
    samples: int, features: int, class_count: int, separation: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Independent oracle for ``synth_blobs``: every row's center plus the
    noise, drawn in one shot from the same generator."""
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(class_count, features))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    labels = np.arange(samples) % class_count
    return (separation * directions)[labels] + rng.normal(size=(samples, features)), labels


def index_shards(
    parts: Mapping[int, tuple[np.ndarray, np.ndarray]],
    class_count: int,
    rng: np.random.Generator,
) -> tuple[Dataset, dict[int, np.ndarray]]:
    """One training set holding every participant's (features, labels)
    rows at shuffled positions, and each participant's shard as its row
    indices into it, in the participant's row order."""
    ids = list(parts)
    positions = rng.permutation(sum(len(parts[pid][1]) for pid in ids))
    shards, start = {}, 0
    for pid in ids:
        shards[pid] = positions[start : start + len(parts[pid][1])]
        start += len(shards[pid])
    features = np.empty((len(positions), parts[ids[0]][0].shape[1]))
    labels = np.empty(len(positions), dtype=np.int64)
    for pid in ids:
        features[shards[pid]], labels[shards[pid]] = parts[pid]
    return Dataset(features, labels, class_count), shards


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


def _set_function_table(
    players: Collection[int], set_function: Callable[[frozenset[int]], float]
) -> np.ndarray:
    """``set_function`` of every subset of ``players``, by bitmask."""
    ids = sorted(players)
    table = np.empty(1 << len(ids))
    for mask in range(1 << len(ids)):
        table[mask] = set_function(
            frozenset(ids[b] for b in range(len(ids)) if mask >> b & 1)
        )
    return table


def stitched_game(
    round_sets: Iterable[Collection[int]],
    round_functions: Sequence[Callable[[frozenset[int]], float]],
    *,
    range_bound: float = 1.0,
) -> TableGame:
    """Game built from one set function per round, re-anchored so rounds
    chain consistently and fitted into ``[0, range_bound]``.

    Anchoring and fitting are affine, so within-round structure of each
    function (symmetries, null players, marginal ratios) is preserved.
    """
    rounds = [sorted(block) for block in round_sets]
    if len(round_functions) != len(rounds):
        raise ValueError("one set function per round required")
    raw = [_set_function_table(block, fn) for block, fn in zip(rounds, round_functions)]
    return TableGame(rounds, _stitch_and_fit(raw, range_bound), range_bound=range_bound)


def additive_game(
    round_sets: Iterable[Collection[int]],
    weights: Mapping[int, float],
    *,
    base: float = 0.0,
) -> TableGame:
    """Order-free game: ``base`` plus the summed weights of every
    participant occurrence in the sequence. A participant's exact value
    in any round it appears is its weight."""
    if base < 0 or any(w < 0 for w in weights.values()):
        raise ValueError("additive games need non-negative base and weights")
    rounds = [sorted(block) for block in round_sets]
    tables: list[np.ndarray] = []
    carried = base
    for ids in rounds:
        masks = np.arange(1 << len(ids))
        marginal = np.zeros(1 << len(ids))
        for b, pid in enumerate(ids):
            marginal[(masks >> b) & 1 == 1] += weights.get(pid, 0.0)
        tables.append(carried + marginal)
        carried = float(tables[-1][-1])
    bound = max(carried, 1.0)
    return TableGame(rounds, tables, range_bound=bound)


def game_from_set_function(
    players: Collection[int],
    set_function: Callable[[frozenset[int]], float],
    *,
    range_bound: float,
) -> TableGame:
    """Single-round game with utilities given directly by ``set_function``."""
    return TableGame(
        [players], [_set_function_table(players, set_function)], range_bound=range_bound
    )


def sum_games(first: TableGame, second: TableGame) -> TableGame:
    """Pointwise sum of two games over the same realized rounds."""
    if first.rounds != second.rounds:
        raise ValueError("games must share the same realized rounds")
    tables = [a + b for a, b in zip(first._tables, second._tables)]
    return TableGame(
        first.rounds, tables, range_bound=first.range_bound + second.range_bound
    )


def read_value_records(path: str | Path) -> ValuationReport:
    """Rebuild a report from its record file (inverse of
    ``fedval.values.write_value_records``)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _RECORD_HEADER:
        raise ValueError(f"{path}: not a value record file")
    initial: float | None = None
    rounds: dict[int, dict[int, float]] = {}
    deltas: dict[int, float] = {}
    for number, line in enumerate(lines[1:], start=2):
        kind, round_field, pid_field, value, delta, _norm = line.split(",")
        if kind == "initial":
            initial = float(value)
        elif kind == "round":
            t = int(round_field)
            rounds.setdefault(t, {})[int(pid_field)] = float(value)
            deltas[t] = float(delta)
        elif kind == "total":
            continue
        else:
            raise ValueError(f"{path}:{number}: unknown record kind {kind!r}")
    if initial is None:
        raise ValueError(f"{path}: missing initial-utility record")
    if sorted(rounds) != list(range(len(rounds))):
        raise ValueError(f"{path}: round indices are not contiguous from 0")
    per_round = [
        ValueVector(dict(sorted(rounds[t].items())), round_index=t)
        for t in range(len(rounds))
    ]
    return build_report(per_round, [deltas[t] for t in range(len(rounds))], initial)
