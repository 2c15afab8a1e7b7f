"""Simulated synchronous federated training with replayable round records.

Each round samples participants, runs their local updates from the
current global model, and averages the results into the next global
model. Everything needed to value the run afterwards is captured in
round records: the incoming global model, every participant update, and
the outgoing average. Valuation replays these records; it never touches
the training trajectory.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .estimators import (
    ApproxParams,
    GroupTestingPlan,
    group_testing_plan,
    group_testing_round,
    permutation_sample_count,
    permutation_sampling_round,
)
from .models import (
    ModelLayout,
    accuracy,
    accuracy_from_logits,
    init_params,
    logits,
    loss_and_gradient,
    mean_cross_entropy,
)
from .seeding import substream
from .values import (
    SUBSET_ENUMERATION_CAP,
    ValuationReport,
    ValueVector,
    as_history,
    build_report,
    exact_federated_round_shapley,
    federated_loo_round,
)

SNAPSHOT_MAGIC = b"FEDVALRND1\n"

METRICS = ("accuracy", "neg_loss")
VALUATION_METHODS = ("exact", "permutation", "group_testing", "loo", "random", "none")

Shard = tuple[np.ndarray, np.ndarray]


class TrainingError(RuntimeError):
    """Local training produced non-finite parameters."""


class HistoryMismatchError(ValueError):
    """A queried block sequence is not the realized training history."""


class SnapshotFormatError(ValueError):
    """A round snapshot file is malformed."""


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one federated run.

    ``learning_rate`` may be zero for direct calls (a no-op update);
    declarative configs reject that. ``lr_decay`` multiplies the rate
    once per round, 1.0 meaning constant.
    """

    layout: ModelLayout
    rounds: int
    participant_fraction: float
    local_epochs: int
    batch_size: int
    learning_rate: float
    seed: int
    lr_decay: float = 1.0
    metric: str = "accuracy"
    init_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if not 0 < self.participant_fraction <= 1:
            raise ValueError(
                f"participant_fraction must lie in (0, 1], got "
                f"{self.participant_fraction}"
            )
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("local_epochs and batch_size must be positive")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be non-negative, got {self.learning_rate}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.init_scale < 0:
            raise ValueError("init_scale must be non-negative")


@dataclass
class RoundRecord:
    """Frozen state of one round: incoming model, updates, outgoing average."""

    round_index: int
    global_before: np.ndarray
    selected: tuple[int, ...]
    updates: dict[int, np.ndarray]
    global_after: np.ndarray


def round_size(participant_fraction: float, participant_count: int) -> int:
    """Participants drawn per round: the fraction rounded up, at least one."""
    return max(1, min(participant_count, math.ceil(participant_fraction * participant_count - 1e-9)))


def participant_update(
    global_params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: TrainingConfig,
    rng: np.random.Generator,
    *,
    round_index: int = 0,
    participant_id: int | None = None,
) -> np.ndarray:
    """Local mini-batch SGD from the global model on one shard."""
    if features.shape[0] == 0:
        raise ValueError("refusing to train on an empty shard")
    theta = np.asarray(global_params, dtype=np.float64).copy()
    rate = cfg.learning_rate * cfg.lr_decay**round_index
    n = features.shape[0]
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grad = loss_and_gradient(cfg.layout, theta, features[batch], labels[batch])
            theta -= rate * grad
    if not np.isfinite(theta).all():
        raise TrainingError(
            f"training diverged at round {round_index}, participant {participant_id}"
        )
    return theta


def aggregate_subset(record: RoundRecord, subset: Iterable[int]) -> np.ndarray:
    """Average of the chosen participants' updates; the incoming global
    model when the subset is empty."""
    members = sorted(subset)
    unknown = [pid for pid in members if pid not in record.updates]
    if unknown:
        raise ValueError(
            f"participants {unknown} were not selected in round {record.round_index}"
        )
    if not members:
        return record.global_before.copy()
    return np.mean([record.updates[pid] for pid in members], axis=0)


def evaluate_utility(
    layout: ModelLayout,
    params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    metric: str = "accuracy",
) -> float:
    """Model quality on a validation set; ``accuracy`` lies in [0, 1]."""
    if features.shape[0] == 0:
        raise ValueError("validation set must be nonempty")
    if metric == "accuracy":
        return accuracy(layout, params, features, labels)
    if metric == "neg_loss":
        return -mean_cross_entropy(layout, params, features, labels)
    raise ValueError(f"unknown metric {metric!r}")


class RoundOracle:
    """Utility of recorded training states under partial round aggregation.

    Only realized histories are evaluable: a query must replay the
    recorded round selections verbatim and may end with any subset of
    the last queried round, which is resolved against that round's
    stored updates (no retraining). Results are cached, which is safe
    because evaluation is deterministic.

    The empty subset is the stored incoming model and the full subset the
    stored outgoing one. Logits of a logistic model are affine in its
    parameters, so a proper subset's logits are the mean of its members'
    logits: those are computed once per round, kept only while that round
    is queried, and summed in ascending id order. The MLP averages the
    members' parameters instead.
    """

    def __init__(
        self,
        layout: ModelLayout,
        records: Sequence[RoundRecord],
        features: np.ndarray,
        labels: np.ndarray,
        metric: str = "accuracy",
    ) -> None:
        if metric != "accuracy":
            raise ValueError(
                f"round oracle needs a [0, 1]-bounded metric; got {metric!r}"
            )
        if not records:
            raise ValueError("at least one round record required")
        for position, record in enumerate(records):
            if record.round_index != position:
                raise ValueError("round records must be consecutive from round 0")
        if features.shape[0] == 0:
            raise ValueError("validation set must be nonempty")
        self._layout = layout
        self._records = list(records)
        self._features = features
        self._labels = labels
        self._metric = metric
        self._realized = tuple(frozenset(r.selected) for r in self._records)
        self._cache: dict[tuple[int, frozenset[int]], float] = {}
        self._logits_round: int | None = None
        self._member_logits: dict[int, np.ndarray] = {}
        self.range_bound = 1.0

    @property
    def realized_history(self) -> tuple[frozenset[int], ...]:
        return self._realized

    def evaluate(self, blocks: Sequence[Iterable[int]]) -> float:
        blocks = as_history(blocks)
        if len(blocks) > len(self._records):
            raise HistoryMismatchError(
                f"sequence has {len(blocks)} blocks but only "
                f"{len(self._records)} rounds were recorded"
            )
        if blocks and blocks[:-1] != self._realized[: len(blocks) - 1]:
            raise HistoryMismatchError(
                "sequence prefix does not match the recorded round selections"
            )
        t = len(blocks) - 1 if blocks else 0
        subset = blocks[-1] if blocks else frozenset()
        stray = subset - self._realized[t]
        if stray:
            raise HistoryMismatchError(
                f"participants {sorted(stray)} were not selected in round {t}"
            )
        key = (t, subset)
        value = self._cache.get(key)
        if value is None:
            value = self._utility(t, subset)
            self._cache[key] = value
        return value

    def _utility(self, t: int, subset: frozenset[int]) -> float:
        record = self._records[t]
        if not subset:
            params = record.global_before
        elif subset == self._realized[t]:
            params = record.global_after
        elif self._layout.arch == "logistic":
            return self._averaged_logits_accuracy(t, subset)
        else:
            params = aggregate_subset(record, subset)
        return evaluate_utility(
            self._layout, params, self._features, self._labels, self._metric
        )

    def _averaged_logits_accuracy(self, t: int, subset: frozenset[int]) -> float:
        if self._logits_round != t:
            # Release the previous round's logits before computing these.
            self._logits_round, self._member_logits = None, {}
            self._member_logits = {
                pid: logits(self._layout, update, self._features)
                for pid, update in self._records[t].updates.items()
            }
            self._logits_round = t
        members = sorted(subset)
        averaged = self._member_logits[members[0]].copy()
        for pid in members[1:]:
            averaged += self._member_logits[pid]
        averaged /= len(members)
        return accuracy_from_logits(averaged, self._labels)


def make_round_oracle(
    layout: ModelLayout,
    records: Sequence[RoundRecord],
    features: np.ndarray,
    labels: np.ndarray,
    metric: str = "accuracy",
) -> RoundOracle:
    """Utility oracle over the recorded rounds (history replay, no retraining)."""
    return RoundOracle(layout, records, features, labels, metric)


@dataclass
class ValuationDiagnostics:
    """Per-round estimator internals, for manifests and verbose output."""

    collect_tests: bool = False
    sample_counts: list[tuple[int, int]] = field(default_factory=list)
    plans: list[tuple[int, GroupTestingPlan]] = field(default_factory=list)
    test_utilities: list[tuple[int, np.ndarray]] = field(default_factory=list)


def value_rounds(
    records: Sequence[RoundRecord],
    layout: ModelLayout,
    features: np.ndarray,
    labels: np.ndarray,
    method: str,
    *,
    approx: ApproxParams | None = None,
    seed: int = 0,
    metric: str = "accuracy",
    subset_cap: int = SUBSET_ENUMERATION_CAP,
    diagnostics: ValuationDiagnostics | None = None,
) -> ValuationReport:
    """Value every recorded round with the chosen method.

    All methods read the same records through the same oracle, so method
    comparisons isolate the valuation rule itself. Estimator randomness
    is drawn from per-round substreams of ``seed``.
    """
    if method not in VALUATION_METHODS or method == "none":
        raise ValueError(f"cannot value rounds with method {method!r}")
    if method in ("permutation", "group_testing") and approx is None:
        raise ValueError(f"method {method!r} needs approximation parameters")
    oracle = make_round_oracle(layout, records, features, labels, metric)
    initial = oracle.evaluate(())
    history: list[frozenset[int]] = []
    per_round: list[ValueVector] = []
    deltas: list[float] = []
    for record in records:
        t = record.round_index
        selected = frozenset(record.selected)
        prefix = tuple(history)
        before = oracle.evaluate((*prefix, frozenset()))
        after = oracle.evaluate((*prefix, selected))
        deltas.append(after - before)
        rng = substream(seed, "valuation", t)
        if method == "exact":
            vector = exact_federated_round_shapley(
                oracle, prefix, selected, cap=subset_cap, round_index=t
            )
        elif method == "loo":
            vector = federated_loo_round(oracle, prefix, selected, round_index=t)
        elif method == "permutation":
            count = permutation_sample_count(approx, len(selected))
            if diagnostics is not None:
                diagnostics.sample_counts.append((t, count))
            vector = permutation_sampling_round(
                oracle, prefix, selected, count, rng, round_index=t
            )
        elif method == "group_testing":
            if len(selected) == 1:
                # A single participant's value is its exact marginal; no
                # test matrix can be formed for one participant.
                vector = exact_federated_round_shapley(
                    oracle, prefix, selected, cap=subset_cap, round_index=t
                )
            else:
                plan = group_testing_plan(len(selected), approx)
                if diagnostics is not None:
                    diagnostics.plans.append((t, plan))
                result = group_testing_round(
                    oracle, prefix, selected, plan, rng,
                    round_index=t, return_tests=diagnostics is not None
                    and diagnostics.collect_tests,
                )
                if isinstance(result, tuple):
                    vector, tests = result
                    diagnostics.test_utilities.append((t, tests))
                else:
                    vector = result
        else:  # random: rank-only baseline, uniform values for the selected
            draws = rng.random(len(selected))
            vector = ValueVector(
                {pid: float(draws[i]) for i, pid in enumerate(sorted(selected))}, t
            )
        per_round.append(vector)
        history.append(selected)
    return build_report(per_round, deltas, initial)


@dataclass
class FederatedRun:
    """Everything a finished run leaves behind."""

    final_params: np.ndarray
    records: list[RoundRecord]
    report: ValuationReport | None


def run_federated_training(
    shards: Mapping[int, Shard],
    cfg: TrainingConfig,
    validation: Shard,
    *,
    valuation: str = "none",
    approx: ApproxParams | None = None,
    diagnostics: ValuationDiagnostics | None = None,
    snapshot_dir: str | Path | None = None,
) -> FederatedRun:
    """Run the full federated process and optionally value every round.

    Valuation is observation-only: the trajectory depends only on the
    config and its seed, never on the valuation method. With a
    ``snapshot_dir``, each round is persisted as it completes, so a
    training failure leaves the finished rounds on disk.
    """
    if valuation not in VALUATION_METHODS:
        raise ValueError(f"unknown valuation method {valuation!r}")
    ids = sorted(shards)
    if not ids:
        raise ValueError("at least one participant shard required")
    m = round_size(cfg.participant_fraction, len(ids))
    theta = init_params(cfg.layout, substream(cfg.seed, "init"), cfg.init_scale)
    records: list[RoundRecord] = []
    for t in range(cfg.rounds):
        chosen = substream(cfg.seed, "select", t).choice(len(ids), size=m, replace=False)
        selected = tuple(sorted(ids[j] for j in chosen))
        updates = {
            pid: participant_update(
                theta,
                *shards[pid],
                cfg,
                substream(cfg.seed, "local", t, pid),
                round_index=t,
                participant_id=pid,
            )
            for pid in selected
        }
        after = np.mean([updates[pid] for pid in selected], axis=0)
        record = RoundRecord(t, theta.copy(), selected, updates, after.copy())
        records.append(record)
        if snapshot_dir is not None:
            save_round_records([record], cfg.layout, snapshot_dir)
        theta = after
    report = None
    if valuation != "none":
        report = value_rounds(
            records,
            cfg.layout,
            *validation,
            valuation,
            approx=approx,
            seed=cfg.seed,
            metric=cfg.metric,
            diagnostics=diagnostics,
        )
    return FederatedRun(final_params=theta, records=records, report=report)


def rerun_with_selections(
    shards: Mapping[int, Shard],
    cfg: TrainingConfig,
    selections: Sequence[Sequence[int]],
    keep: Callable[[int, tuple[int, ...]], Iterable[int]] | None = None,
) -> np.ndarray:
    """Retrain with a fixed per-round selection, optionally aggregating
    only the participants ``keep`` retains each round.

    Local update streams are keyed by (round, participant), so with
    ``keep=None`` this reproduces the original trajectory bit for bit.
    """
    if len(selections) != cfg.rounds:
        raise ValueError("one recorded selection required per round")
    theta = init_params(cfg.layout, substream(cfg.seed, "init"), cfg.init_scale)
    for t, selection in enumerate(selections):
        selected = tuple(sorted(selection))
        retained = tuple(sorted(keep(t, selected))) if keep is not None else selected
        if not retained:
            raise ValueError(f"round {t} would retain no participants")
        if not set(retained) <= set(selected):
            raise ValueError(f"round {t} retains participants that were not selected")
        updates = [
            participant_update(
                theta,
                *shards[pid],
                cfg,
                substream(cfg.seed, "local", t, pid),
                round_index=t,
                participant_id=pid,
            )
            for pid in retained
        ]
        theta = np.mean(updates, axis=0)
    return theta


def save_round_records(
    records: Sequence[RoundRecord], layout: ModelLayout, directory: str | Path
) -> None:
    """One self-contained binary snapshot file per round."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for record in records:
        header = {
            "format_version": 1,
            "round_index": record.round_index,
            "layout": layout.to_dict(),
            "selected": list(record.selected),
        }
        path = directory / f"round_{record.round_index:05d}.fvr"
        with open(path, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            np.save(fh, record.global_before, allow_pickle=False)
            np.save(
                fh,
                np.stack([record.updates[pid] for pid in record.selected]),
                allow_pickle=False,
            )
            np.save(fh, record.global_after, allow_pickle=False)


def _snapshot_index(path: Path) -> int:
    match = re.fullmatch(r"round_(\d+)\.fvr", path.name)
    if match is None:
        raise SnapshotFormatError(f"{path}: not a round snapshot file name")
    return int(match.group(1))


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def load_round_records(directory: str | Path) -> tuple[list[RoundRecord], ModelLayout]:
    """Load a snapshot directory and verify that its rounds form one run.

    Round indices must run from 0 without gaps and agree with each
    file's header, every stored aggregate must match its updates, and
    every incoming model must be bitwise the previous round's outcome.
    Each failure names the offending file.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("round_*.fvr"), key=_snapshot_index)
    if not paths:
        raise SnapshotFormatError(f"{directory}: no round snapshots found")
    records: list[RoundRecord] = []
    layout: ModelLayout | None = None
    for position, path in enumerate(paths):
        if _snapshot_index(path) != position:
            raise SnapshotFormatError(
                f"{path}: expected round {position}; round indices must be "
                f"contiguous from 0"
            )
        with open(path, "rb") as fh:
            magic = fh.read(len(SNAPSHOT_MAGIC))
            if magic != SNAPSHOT_MAGIC:
                raise SnapshotFormatError(f"{path}: bad snapshot magic {magic!r}")
            header = json.loads(fh.readline().decode("utf-8"))
            if header.get("format_version") != 1:
                raise SnapshotFormatError(
                    f"{path}: unsupported format version {header.get('format_version')}"
                )
            if header.get("round_index") != position:
                raise SnapshotFormatError(
                    f"{path}: header round_index {header.get('round_index')!r} "
                    f"does not match the file name"
                )
            file_layout = ModelLayout.from_dict(header["layout"])
            if layout is None:
                layout = file_layout
            elif layout != file_layout:
                raise SnapshotFormatError(f"{path}: layout differs across rounds")
            selected = tuple(int(pid) for pid in header["selected"])
            global_before = np.load(fh, allow_pickle=False)
            stacked = np.load(fh, allow_pickle=False)
            global_after = np.load(fh, allow_pickle=False)
        if stacked.shape != (len(selected), layout.param_count):
            raise SnapshotFormatError(f"{path}: update matrix shape mismatch")
        recomputed = stacked.mean(axis=0)
        if np.abs(recomputed - global_after).max() > 1e-9:
            raise SnapshotFormatError(
                f"{path}: stored aggregate disagrees with the stored updates"
            )
        if records and not _bitwise_equal(records[-1].global_after, global_before):
            raise SnapshotFormatError(
                f"{path}: incoming model is not the previous round's outcome; "
                f"the snapshots do not come from one run"
            )
        records.append(
            RoundRecord(
                round_index=position,
                global_before=global_before,
                selected=selected,
                updates={pid: stacked[i] for i, pid in enumerate(selected)},
                global_after=global_after,
            )
        )
    assert layout is not None
    return records, layout
