"""Synthetic sequential coalition games with directly enumerable utilities.

Used by tests and by the ``exact-check`` command to drive the exact and
Monte Carlo value computations against games whose ground truth is
cheap to enumerate.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Mapping, Sequence

import numpy as np

_BOUND_SLACK = 1e-9


class TableGame:
    """Utility oracle backed by per-round subset tables.

    The game fixes the participant set of every round up front and keeps
    each as a sorted id tuple in ``rounds``. ``evaluate(t, mask)`` reads
    round ``t``'s table, indexed by subset bitmask (bit ``b`` selects the
    ``b``-th smallest id of the round). Consecutive tables must agree
    where they describe the same state: finishing round t equals starting
    round t+1 with the empty subset.
    """

    def __init__(
        self,
        round_sets: Iterable[Collection[int]],
        tables: Iterable[np.ndarray],
        *,
        range_bound: float = 1.0,
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
        if low < -_BOUND_SLACK or high > range_bound + _BOUND_SLACK:
            raise ValueError(
                f"utilities [{low}, {high}] fall outside [0, {range_bound}]"
            )
        self.range_bound = float(range_bound)

    def evaluate(self, round_index: int, mask: int) -> float:
        if not 0 <= round_index < len(self._tables):
            raise ValueError(
                f"round {round_index} was not realized; the game has "
                f"{len(self._tables)} rounds"
            )
        table = self._tables[round_index]
        if not 0 <= mask < len(table):
            raise ValueError(
                f"mask {mask:#x} selects outside the participants of round "
                f"{round_index}"
            )
        return float(table[mask])


def _stitch_and_fit(raw: list[np.ndarray], range_bound: float) -> list[np.ndarray]:
    # Anchor each round so its empty subset equals the previous round's
    # end, then map everything into [0, range_bound] with one affine
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
    scale = range_bound / span if span > 0 else 0.0
    return [(table - low) * scale for table in stitched]


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


def random_table_game(
    round_sets: Iterable[Collection[int]],
    rng: np.random.Generator,
    *,
    range_bound: float = 1.0,
) -> TableGame:
    """Random bounded game: independent uniform utility per reachable state,
    rescaled into ``[0, range_bound]``."""
    rounds = [sorted(block) for block in round_sets]
    raw = [rng.uniform(0.0, 1.0, size=1 << len(block)) for block in rounds]
    return TableGame(rounds, _stitch_and_fit(raw, range_bound), range_bound=range_bound)


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
