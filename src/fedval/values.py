"""Per-round cooperative valuation of federated participants.

Exact per-round Shapley values conditioned on the realized training
history, leave-one-out values, and aggregation of per-round results
into a run-level report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

SUBSET_ENUMERATION_CAP = 20


class EnumerationRefusedError(RuntimeError):
    """Raised when an exact computation would enumerate too many coalitions."""


@runtime_checkable
class UtilityOracle(Protocol):
    """Deterministic utility of the realized rounds, queried one round at a time.

    ``players(t)`` is the ascending tuple of round ``t``'s participant
    ids; every value function credits exactly these. ``evaluate_many(t,
    masks)`` takes a 1-D int array (of Python ints from ``mask_bits``
    once a round has 64 or more players) or a sequence of ints, which may
    repeat, and returns one float64 per mask, in order: the utility after
    the realized rounds before ``t`` plus the members of round ``t`` that
    the mask selects. Bit ``b`` selects ``players(t)[b]``; mask 0 is the
    state entering round ``t``. Identical queries yield identical
    outputs. ``engine.RoundOracle`` also answers ``evaluate(t, mask)`` as
    a batch of one.
    """

    def players(self, round_index: int) -> tuple[int, ...]: ...

    def evaluate_many(self, round_index: int, masks: np.ndarray | Sequence[int]) -> np.ndarray: ...


@dataclass
class ValueVector:
    """Participant values for one round (aggregated when ``round_index`` is None).

    Ids absent from ``values`` were not selected and are worth exactly 0.
    """

    values: dict[int, float]
    round_index: int | None = None

    def get(self, participant: int) -> float:
        return self.values.get(participant, 0.0)

    def participants(self) -> list[int]:
        return sorted(self.values)

    def norm(self) -> float:
        return math.sqrt(math.fsum(v * v for v in self.values.values()))


def random_values(participants: Iterable[int], rng: np.random.Generator) -> ValueVector:
    """Rank-only baseline: a uniform random value per participant, drawn
    in ascending id order."""
    ids = sorted(participants)
    draws = rng.random(len(ids))
    return ValueVector({pid: float(draws[i]) for i, pid in enumerate(ids)})


def aggregate_rounds(per_round: Sequence[ValueVector]) -> ValueVector:
    """Elementwise sum over rounds; ids never selected stay at 0."""
    totals: dict[int, float] = {}
    for vector in per_round:
        for pid, value in vector.values.items():
            totals[pid] = totals.get(pid, 0.0) + value
    return ValueVector(dict(sorted(totals.items())), round_index=None)


def normalize_round_values(vector: ValueVector) -> ValueVector:
    """Scale a round's values to unit L2 norm; an all-zero vector passes through."""
    scale = vector.norm()
    if scale == 0.0:
        return ValueVector(dict(vector.values), vector.round_index)
    return ValueVector(
        {pid: value / scale for pid, value in vector.values.items()},
        vector.round_index,
    )


def _popcounts(n_masks: int) -> np.ndarray:
    sizes = np.zeros(n_masks, dtype=np.int64)
    block = 1
    while block < n_masks:
        sizes[block : 2 * block] = sizes[:block] + 1
        block *= 2
    return sizes


def mask_bits(m: int) -> np.ndarray:
    """Bit ``b`` of a round's subset masks, for ``b`` in ``0..m-1``.

    int64 while every mask over ``m`` players fits in it; wider rounds
    get Python ints (object dtype), so sums and ``|`` of the bits never
    overflow and no player's bit is dropped.
    """
    if m < 64:
        return 1 << np.arange(m, dtype=np.int64)
    return np.array([1 << b for b in range(m)], dtype=object)


def exact_federated_round_shapley(oracle: UtilityOracle, round_index: int) -> ValueVector:
    """Per-round Shapley values conditioned on the realized history.

    Each participant of round ``round_index`` receives its average
    marginal contribution over all subsets of the other participants
    selected in the same round, every utility being evaluated on top of
    the realized earlier rounds. The values sum to the round's utility
    improvement.
    """
    ids = oracle.players(round_index)
    m = len(ids)
    if m == 0:
        return ValueVector({}, round_index)
    if m > SUBSET_ENUMERATION_CAP:
        raise EnumerationRefusedError(
            f"exact subset enumeration for {m} participants needs 2**{m} = "
            f"{1 << m} utility evaluations (cap {SUBSET_ENUMERATION_CAP}); "
            f"the cost grows as 2**m"
        )
    masks = np.arange(1 << m)
    utilities = oracle.evaluate_many(round_index, masks)
    sizes = _popcounts(1 << m)
    weight_by_size = np.array(
        [1.0 / (m * math.comb(m - 1, s)) for s in range(m)], dtype=np.float64
    )
    values: dict[int, float] = {}
    for b, pid in enumerate(ids):
        bit = 1 << b
        without = masks[(masks & bit) == 0]
        marginals = utilities[without | bit] - utilities[without]
        values[pid] = float(weight_by_size[sizes[without]] @ marginals)
    return ValueVector(values, round_index)


def federated_loo_round(oracle: UtilityOracle, round_index: int) -> ValueVector:
    """Utility drop from removing one participant from the round's aggregate."""
    ids = oracle.players(round_index)
    if not ids:
        return ValueVector({}, round_index)
    full = (1 << len(ids)) - 1
    # Python-int masks: a round may have more players than int64 has bits.
    utilities = oracle.evaluate_many(
        round_index, [full, *(full ^ (1 << b) for b in range(len(ids)))]
    )
    values = {pid: float(utilities[0] - utilities[1 + b]) for b, pid in enumerate(ids)}
    return ValueVector(values, round_index)


@dataclass
class ValuationReport:
    """Per-round values plus the utility trace they explain.

    Values are reported raw: the totals sum to the final utility minus
    ``initial_utility`` (the untrained model's utility), which is kept
    here so readers can shift to either convention without
    renormalizing. ``total`` and ``round_value_norms`` are computed from
    ``per_round`` on first use, so ``per_round`` must not change after.
    """

    per_round: list[ValueVector]
    per_round_utility_delta: list[float]
    initial_utility: float

    @cached_property
    def total(self) -> ValueVector:
        return aggregate_rounds(self.per_round)

    @cached_property
    def round_value_norms(self) -> list[float]:
        return [vector.norm() for vector in self.per_round]

    def normalized(self) -> "ValuationReport":
        """Same report with each round's vector scaled to unit length."""
        return ValuationReport(
            per_round=[normalize_round_values(vector) for vector in self.per_round],
            per_round_utility_delta=list(self.per_round_utility_delta),
            initial_utility=self.initial_utility,
        )


def build_report(
    per_round: Sequence[ValueVector],
    utility_deltas: Sequence[float],
    initial_utility: float,
) -> ValuationReport:
    if len(per_round) != len(utility_deltas):
        raise ValueError("one utility delta required per round")
    return ValuationReport(
        per_round=list(per_round),
        per_round_utility_delta=[float(d) for d in utility_deltas],
        initial_utility=float(initial_utility),
    )


_RECORD_HEADER = "kind,round,participant,value,utility_delta,round_norm"


def format_float(value: float) -> str:
    """Decimal form that parses back to the exact same float64."""
    return repr(float(value))


def value_record_lines(report: ValuationReport) -> list[str]:
    """Line records: one per (round, participant), a total block, and the
    initial-model utility. Stable field order and float formatting make
    identical reports serialize byte-identically."""
    lines = [_RECORD_HEADER]
    lines.append(f"initial,-1,-1,{format_float(report.initial_utility)},0,0")
    for t, vector in enumerate(report.per_round):
        delta = format_float(report.per_round_utility_delta[t])
        norm = format_float(report.round_value_norms[t])
        for pid in vector.participants():
            value = format_float(vector.values[pid])
            lines.append(f"round,{t},{pid},{value},{delta},{norm}")
    total_delta = format_float(math.fsum(report.per_round_utility_delta))
    total_norm = format_float(report.total.norm())
    for pid in report.total.participants():
        value = format_float(report.total.values[pid])
        lines.append(f"total,-1,{pid},{value},{total_delta},{total_norm}")
    return lines


def write_value_records(report: ValuationReport, path: str | Path) -> None:
    Path(path).write_text("\n".join(value_record_lines(report)) + "\n")
