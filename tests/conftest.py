"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import math
import warnings
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Sequence

import numpy as np
import pytest

from fedval import engine
from fedval.config import TrainingConfig
from fedval.datasets import Dataset, PartitionPlan
from fedval.engine import RoundOracle
from fedval.models import ModelLayout
from fedval.values import (
    _RECORD_HEADER,
    EnumerationRefusedError,
    UtilityOracle,
    ValuationReport,
    ValueVector,
    build_report,
)

# On a failing example, hypothesis's pytest plugin imports this module,
# whose libcst import raises a DeprecationWarning; under the suite's
# error::DeprecationWarning that aborts the whole session. Imported once
# here, with the warning ignored, it is already loaded by then.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

_BOUND_SLACK = 1e-9
PERMUTATION_ENUMERATION_CAP = 8


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def training(layout: ModelLayout, *hyperparameters, **keys) -> TrainingConfig:
    """The resolved training section of ``layout``'s model: ``rounds``,
    ``participant_fraction``, ``local_epochs``, ``batch_size`` and
    ``learning_rate`` in that order, then any other key by name."""
    return TrainingConfig(
        *hyperparameters, model=layout.arch, n_features=layout.n_features,
        n_classes=layout.n_classes, hidden_units=layout.hidden_units, **keys,
    )


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


class HeldRows:
    """Every participant's rows held for a whole run: the training-row
    store of ``data`` and ``shards`` (row indices into it) that the
    engine's training loops open and close round by round."""

    def __init__(self, data: Dataset, shards: Mapping[int, np.ndarray]) -> None:
        self.data, self.shards = data, shards

    def participants(self) -> list[int]:
        return sorted(self.shards)

    def open_round(self, round_index: int) -> tuple[Dataset, Mapping[int, np.ndarray]]:
        return self.data, self.shards

    def close_round(self) -> None:
        pass


class TableGame:
    """Utility oracle backed by per-round subset tables.

    The game fixes the participant set of every round up front and keeps
    each as a sorted id tuple in ``rounds``, which ``players(t)`` returns.
    ``evaluate_many(t, masks)`` reads round ``t``'s table, indexed by
    subset bitmask (bit ``b`` selects ``players(t)[b]``);
    ``evaluate(t, mask)`` is a batch of one. Consecutive tables must agree where they describe
    the same state: finishing round t equals starting round t+1 with the
    empty subset.
    """

    def __init__(
        self,
        round_sets: Iterable[Collection[int]],
        tables: Iterable[np.ndarray],
        *,
        bound: float = 1.0,
    ) -> None:
        self.rounds = tuple(tuple(sorted(block)) for block in round_sets)
        if not self.rounds:
            raise ValueError("a table game needs at least one round")
        self._tables = [np.asarray(table, dtype=np.float64) for table in tables]
        if len(self._tables) != len(self.rounds):
            raise ValueError("one table per round required")
        for t, table in enumerate(self._tables):
            if table.shape != (1 << len(self.rounds[t]),):
                raise ValueError(f"round {t}: table must cover every subset")
            if t > 0 and table[0] != self._tables[t - 1][-1]:
                raise ValueError(
                    f"round {t}: table start disagrees with the previous round's end"
                )
        low = min(float(table.min()) for table in self._tables)
        high = max(float(table.max()) for table in self._tables)
        if low < -_BOUND_SLACK or high > bound + _BOUND_SLACK:
            raise ValueError(f"utilities [{low}, {high}] fall outside [0, {bound}]")
        self.bound = float(bound)

    def players(self, round_index: int) -> tuple[int, ...]:
        if not 0 <= round_index < len(self.rounds):
            raise ValueError(
                f"round {round_index} was not realized; the game has "
                f"{len(self.rounds)} rounds"
            )
        return self.rounds[round_index]

    def evaluate(self, round_index: int, mask: int) -> float:
        return float(self.evaluate_many(round_index, [mask])[0])

    def evaluate_many(self, round_index: int, masks: Sequence[int]) -> np.ndarray:
        """Utilities of round ``round_index`` under each of ``masks``, in
        order; every mask is checked before any is read."""
        self.players(round_index)  # refuses an unrealized round
        table = self._tables[round_index]
        for mask in masks:
            if not 0 <= mask < len(table):
                raise ValueError(
                    f"mask {mask:#x} selects outside the participants of round "
                    f"{round_index}"
                )
        return table[np.array(masks, dtype=np.intp)]


def _stitch_and_fit(raw: list[np.ndarray]) -> list[np.ndarray]:
    # Anchor each round so its empty subset equals the previous round's
    # end, then map everything into [0, 1] with one affine
    # transform (which preserves the anchoring).
    stitched: list[np.ndarray] = []
    offset = 0.0
    for table in raw:
        shifted = table - table[0] + offset
        stitched.append(shifted)
        offset = float(shifted[-1])
    low = min(float(table.min()) for table in stitched)
    high = max(float(table.max()) for table in stitched)
    span = high - low
    scale = 1.0 / span if span > 0 else 0.0
    return [(table - low) * scale for table in stitched]


def random_table_game(
    round_sets: Iterable[Collection[int]],
    rng: np.random.Generator,
) -> TableGame:
    """Random bounded game: independent uniform utility per reachable state,
    rescaled into ``[0, 1]``."""
    rounds = [sorted(block) for block in round_sets]
    raw = [rng.uniform(0.0, 1.0, size=1 << len(block)) for block in rounds]
    return TableGame(rounds, _stitch_and_fit(raw))


def exact_shapley_permutation_form(oracle: UtilityOracle) -> ValueVector:
    """Shapley values of round 0 of ``oracle`` averaged over every
    ordering of its players.

    Agrees with :func:`exact_federated_round_shapley`; kept as an
    independent cross-check since the two enumerations share nothing
    beyond the oracle calls.
    """
    ids = oracle.players(0)
    m = len(ids)
    if m == 0:
        return ValueVector({}, 0)
    if m > PERMUTATION_ENUMERATION_CAP:
        raise EnumerationRefusedError(
            f"exact ordering enumeration for {m} players needs {m}! = "
            f"{math.factorial(m)} passes (cap {PERMUTATION_ENUMERATION_CAP}); "
            f"the cost grows as m!"
        )
    utilities = oracle.evaluate_many(0, np.arange(1 << m))
    acc = np.zeros(m, dtype=np.float64)
    for perm in itertools.permutations(range(m)):
        mask = 0
        previous = utilities[0]
        for b in perm:
            mask |= 1 << b
            current = utilities[mask]
            acc[b] += current - previous
            previous = current
    acc /= math.factorial(m)
    return ValueVector({pid: float(acc[b]) for b, pid in enumerate(ids)}, 0)


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
) -> TableGame:
    """Game built from one set function per round, re-anchored so rounds
    chain consistently and fitted into ``[0, 1]``.

    Anchoring and fitting are affine, so within-round structure of each
    function (symmetries, null players, marginal ratios) is preserved.
    """
    rounds = [sorted(block) for block in round_sets]
    if len(round_functions) != len(rounds):
        raise ValueError("one set function per round required")
    raw = [_set_function_table(block, fn) for block, fn in zip(rounds, round_functions)]
    return TableGame(rounds, _stitch_and_fit(raw))


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
    return TableGame(rounds, tables, bound=bound)


def game_from_set_function(
    players: Collection[int],
    set_function: Callable[[frozenset[int]], float],
    *,
    bound: float,
) -> TableGame:
    """Single-round game with utilities given directly by ``set_function``."""
    return TableGame([players], [_set_function_table(players, set_function)], bound=bound)


def sum_games(first: TableGame, second: TableGame) -> TableGame:
    """Pointwise sum of two games over the same realized rounds."""
    if first.rounds != second.rounds:
        raise ValueError("games must share the same realized rounds")
    tables = [a + b for a, b in zip(first._tables, second._tables)]
    return TableGame(first.rounds, tables, bound=first.bound + second.bound)


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


def record_evaluations(monkeypatch: pytest.MonkeyPatch) -> list:
    """The utilities ``RoundOracle`` computes from here on, in order:
    "endpoint" per stored model it evaluates, and the list of masks it
    hands a subset kernel per call."""
    evaluated: list = []
    endpoint = engine.evaluate_utility

    def counted_endpoint(*args):
        evaluated.append("endpoint")
        return endpoint(*args)

    def counted(kernel):
        def run(self, record, masks):
            evaluated.append(list(masks))
            return kernel(self, record, masks)

        return run

    monkeypatch.setattr(engine, "evaluate_utility", counted_endpoint)
    for name in ("_averaged_logits_utilities", "_subset_utilities"):
        monkeypatch.setattr(RoundOracle, name, counted(getattr(RoundOracle, name)))
    return evaluated
