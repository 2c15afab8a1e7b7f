"""Random sequential coalition games with directly enumerable utilities.

``exact-check`` drives the exact and Monte Carlo value computations
against these games, whose ground truth is cheap to enumerate; the tests
build further games on ``TableGame`` and ``_stitch_and_fit``.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

import numpy as np

_BOUND_SLACK = 1e-9


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
