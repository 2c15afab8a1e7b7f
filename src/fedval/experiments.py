"""Evaluation protocols: corrupted-participant detection and summarization.

Every protocol trains once and derives all competing rankings from the
same round records, so differences between methods are attributable to
the valuation rule alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .config import (
    BackdoorConfig,
    BlobsSpec,
    ConfigError,
    ExperimentConfig,
    IdxSpec,
    LabelFlipConfig,
    TrainingConfig,
)
from .datasets import (
    Dataset,
    IdxImages,
    PartitionPlan,
    TrainingRows,
    flip_labels,
    implant_backdoor,
    partition_iid,
    partition_noniid_shards,
    read_idx,
    synth_blobs,
    triggered_test_set,
)
from .engine import (
    RoundOracle,
    RoundRecord,
    SnapshotFormatError,
    check_initial_model,
    evaluate_utility,
    rerun_with_selections,
    round_selections,
    run_federated_training,
    snapshot_name,
    value_rounds,
)
from .models import ModelLayout
from .seeding import substream
from .values import ValuationReport, ValueVector, random_values


@dataclass
class DetectionCurve:
    """Recall of known-bad participants as inspection widens.

    Participants are inspected in ascending value order (ties broken by
    ascending id); point k gives the fraction of bad participants found
    after inspecting the k lowest-valued ones.
    """

    inspected_fractions: np.ndarray
    detected_fractions: np.ndarray
    auc: float


def detection_curve(
    values: ValueVector,
    ground_truth_bad: Iterable[int],
    participants: Iterable[int],
) -> DetectionCurve:
    bad = frozenset(ground_truth_bad)
    if not bad:
        raise ValueError("ground truth must name at least one participant")
    ids = sorted(participants)
    if not bad <= set(ids):
        raise ValueError("ground-truth participants missing from the universe")
    ranked = sorted(ids, key=lambda pid: (values.get(pid), pid))
    hits = np.cumsum([pid in bad for pid in ranked])
    inspected = np.arange(len(ids) + 1) / len(ids)
    detected = np.concatenate([[0.0], hits / len(bad)])
    return DetectionCurve(inspected, detected, float(np.trapezoid(detected, inspected)))


@dataclass
class PreparedExperiment:
    """Everything derived from a config before training starts.

    ``rows`` holds the training rows of the participants that some round
    of ``round_selections(training, plan.participants())`` selects, each
    from its first round to its last (see :class:`TrainingRows`), and
    ``plan`` is the partition of the training split into their shards; a
    participant no round selects keeps its id but holds no rows. Only the
    first round's rows are drawn or scaled when this is made. The labels
    of the whole training split were corrupted before ``rows`` was built,
    and it keeps those of the scheduled rows. ``rows`` and
    ``validation`` are separate arrays, so neither keeps the other alive.
    A blobs config's validation rows are drawn on the first read of
    ``validation``, and ``rows`` lets go of its arena as its last round
    closes, so a command that trains once holds each set only while a
    stage reads it. ``corruption`` is the config's section as applied to
    the rows, its participants resolved (see :func:`_resolve_corruption`).
    """

    training: TrainingConfig
    rows: TrainingRows
    draw_validation: Callable[[], Dataset]
    plan: PartitionPlan
    corruption: LabelFlipConfig | BackdoorConfig | None

    @property
    def validation(self) -> Dataset:
        """The validation set, the same object on every read."""
        return self.draw_validation()

    def train_once(self, snapshot_dir: str | Path | None = None) -> list[RoundRecord]:
        """The round records of one federated training pass over ``rows``;
        when it is the last pass ``rows`` was prepared for, its rows are
        released before valuation."""
        return run_federated_training(self.rows, self.training, snapshot_dir=snapshot_dir)


def _draw_blobs(cfg: ExperimentConfig, spec: BlobsSpec, **part: np.ndarray | int):
    # One draw for both splits, training rows first, so they share the
    # same class geometry.
    return synth_blobs(
        spec.samples + spec.validation_samples, spec.features, spec.classes,
        spec.separation, substream(cfg.seed, "data"), **part,
    )


def _split_idx(cfg: ExperimentConfig) -> tuple[IdxImages, np.ndarray, Dataset]:
    """The training file's raw images, the order of its training rows, and
    the validation set: a held-out share of those images, or the
    validation file. Only the validation rows are scaled here."""
    spec = cfg.dataset
    assert isinstance(spec, IdxSpec)
    images = read_idx(spec.images, spec.labels, class_count=spec.class_count)
    order = substream(cfg.seed, "data").permutation(len(images))
    if spec.validation_images is not None:
        held = read_idx(
            spec.validation_images, spec.validation_labels, class_count=spec.class_count
        )
        if held.pixels.shape[1] != images.pixels.shape[1]:
            raise ValueError(
                f"{spec.validation_images}: holds images of {held.pixels.shape[1]} pixels, "
                f"but the training images {spec.images} hold {images.pixels.shape[1]}"
            )
        if held.class_count > images.class_count:  # only when class_count is unset
            raise ValueError(
                f"{spec.validation_labels}: holds label {held.class_count - 1}, but the "
                f"training labels {spec.labels} hold {images.class_count} classes; set "
                f"dataset.class_count to cover both"
            )
        validation = replace(held, class_count=images.class_count).rows(slice(None))
        train_order = order
    else:
        assert spec.validation_samples is not None
        if spec.validation_samples >= len(images):
            raise ValueError("validation split would consume the whole dataset")
        validation = images.rows(order[: spec.validation_samples])
        train_order = order[spec.validation_samples :]
    if spec.limit is not None:
        train_order = train_order[: spec.limit]
    return images, train_order, validation


def _resolve_corruption(
    cfg: ExperimentConfig, plan: PartitionPlan
) -> LabelFlipConfig | BackdoorConfig | None:
    """The corruption section with ``affected`` naming its participants in
    ascending order and ``affected_count`` None; ``ExperimentConfig`` has
    already checked named ids against the partition's."""
    corruption = cfg.corruption
    if corruption is None:
        return None
    affected = corruption.affected
    if affected is None:
        participants = plan.participants()
        rng = substream(cfg.seed, "corrupt-select")
        chosen = rng.choice(len(participants), size=corruption.affected_count, replace=False)
        affected = tuple(participants[i] for i in chosen)
    return replace(corruption, affected=tuple(sorted(affected)), affected_count=None)


def _training(cfg: ExperimentConfig, n_features: int, n_classes: int) -> TrainingConfig:
    return TrainingConfig(
        **asdict(cfg.training), n_features=n_features, n_classes=n_classes, seed=cfg.seed
    )


def prepare_validation(cfg: ExperimentConfig) -> tuple[TrainingConfig, Dataset]:
    """The resolved training section and the validation set of a config,
    for valuing recorded rounds: no partition or corruption. A blobs
    config's training rows are drawn and dropped chunk by chunk, and an
    IDX file's are never scaled, so only the validation rows are held."""
    spec = cfg.dataset
    if isinstance(spec, BlobsSpec):
        held = np.arange(spec.samples, spec.samples + spec.validation_samples)
        validation = _draw_blobs(cfg, spec, held=held)
        return _training(cfg, spec.features, spec.classes), validation
    images, _, validation = _split_idx(cfg)
    return _training(cfg, images.pixels.shape[1], images.class_count), validation


def _partition(cfg: ExperimentConfig, labels: np.ndarray) -> PartitionPlan:
    seed = substream(cfg.seed, "partition")
    if cfg.partition.mode == "iid":
        return partition_iid(labels, cfg.partition.participants, seed)
    return partition_noniid_shards(
        labels, cfg.partition.participants, cfg.partition.shards_per_participant, seed
    )


def prepare_experiment(cfg: ExperimentConfig, *, passes: int = 1) -> PreparedExperiment:
    """Partition the training rows by their labels, corrupt the labels of
    the whole split, fix the selection schedule, and hold, for ``passes``
    passes of training (two for a run that retrains), the corrupted labels
    of the rows of participants that some round selects. One pass over a
    blobs stream draws round 0's rows into the arena and records where
    each later participant's rows start; an IDX file's round-0 rows are
    scaled into it, later ones kept raw."""
    spec = cfg.dataset
    if isinstance(spec, BlobsSpec):
        labels = np.arange(spec.samples) % spec.classes
        training = _training(cfg, spec.features, spec.classes)
    else:
        images, order, validation = _split_idx(cfg)
        labels = images.labels[order]
        training = _training(cfg, images.pixels.shape[1], images.class_count)
    plan = _partition(cfg, labels)
    corruption = _resolve_corruption(cfg, plan)
    # Parse time checks this bound on blobs; an idx dataset's class
    # count is known only once it is loaded.
    if isinstance(corruption, BackdoorConfig) and corruption.target_label >= training.n_classes:
        raise ConfigError(
            f"corruption.target_label: must be below the loaded class count "
            f"({training.n_classes}), got {corruption.target_label}"
        )
    corrupt = (labels, training.n_classes, plan, corruption, substream(cfg.seed, "corrupt"))
    trigger = None
    if isinstance(corruption, LabelFlipConfig):
        flip_labels(*corrupt)
    elif isinstance(corruption, BackdoorConfig):
        trigger = implant_backdoor(*corrupt), corruption
    schedule = round_selections(training, plan.participants())
    rows = TrainingRows(
        plan, schedule, passes, labels, training.n_features, training.n_classes, trigger
    )
    first, *later = rows.entering
    head = rows.features[: len(first)]
    if isinstance(spec, BlobsSpec):
        _, fills, draw_validation = _draw_blobs(
            cfg, spec, held=first, out=head, deferred=later, split=spec.samples
        )
    else:
        images.scaler(order[first])(head, np.arange(len(first)))
        fills = [images.scaler(order[group]) for group in later]

        def draw_validation() -> Dataset:
            return validation
    rows.fill_later(fills)
    return PreparedExperiment(
        training=training,
        rows=rows,
        draw_validation=draw_validation,
        plan=plan,
        corruption=corruption,
    )


def check_recorded_run(
    cfg: ExperimentConfig,
    snapshots: str | Path,
    loaded: tuple[list[RoundRecord], ModelLayout],
    training: TrainingConfig,
) -> list[RoundRecord]:
    """The round records ``load_round_records(snapshots)`` returned, refused
    unless they form the run ``training`` (``cfg``'s resolved section)
    trains over ``cfg``'s participants: as many rounds, of its layout,
    from its initial model, each selecting what its schedule selects. The
    snapshots are loaded first, so a directory the loader refuses costs no
    data preparation."""
    records, recorded_layout = loaded
    if recorded_layout != training.layout:
        raise ConfigError("snapshot layout does not match the configured model/dataset")
    if len(records) != training.rounds:
        raise SnapshotFormatError(
            f"{snapshots}: holds {len(records)} rounds, but training.rounds is "
            f"{training.rounds}"
        )
    participants = cfg.partition.participants
    for record in records:
        stray = [pid for pid in record.selected if not 0 <= pid < participants]
        if stray:
            raise SnapshotFormatError(
                f"{Path(snapshots) / snapshot_name(record.round_index)}: participant "
                f"{stray[0]} is not one of the configured ids 0..{participants - 1}"
            )
    check_initial_model(records, training, snapshots)
    schedule = round_selections(training, range(participants))
    for record, selected in zip(records, schedule):
        if record.selected != selected:
            raise SnapshotFormatError(
                f"{Path(snapshots) / snapshot_name(record.round_index)}: round "
                f"{record.round_index} selected {list(record.selected)}, but the configured "
                f"schedule selects {list(selected)}"
            )
    return records


@dataclass
class DetectionOutcome:
    curves: dict[str, DetectionCurve]
    affected: tuple[int, ...]
    attack_success_rate: float | None = None
    clean_accuracy: float | None = None


# The valuation methods the protocols accept as their Shapley backend.
SHAPLEY_METHODS = ("exact", "permutation", "group_testing")


def shapley_backend(cfg: ExperimentConfig) -> str:
    """The Shapley method the protocols run: the configured one, which must
    be exact or an estimator (the protocols add LOO and random themselves)."""
    method = cfg.valuation.method
    if method not in SHAPLEY_METHODS:
        raise ConfigError(
            f"valuation.method: the protocols run exact, permutation or "
            f"group_testing Shapley values, got {method!r}"
        )
    return method


def _shapley_and_loo(
    cfg: ExperimentConfig,
    layout: ModelLayout,
    records: list[RoundRecord],
    validation: Dataset,
) -> tuple[ValuationReport, ValuationReport]:
    """Raw SV and LOO reports of one run, valued through one oracle: LOO
    reuses every utility the SV pass cached (all of them after ``exact``)."""
    oracle = RoundOracle(layout, records, validation.features, validation.labels)
    sv_report = value_rounds(
        oracle, shapley_backend(cfg), approx=cfg.valuation.approx, seed=cfg.seed
    )
    return sv_report, value_rounds(oracle, "loo", seed=cfg.seed)


def _run_detection(cfg: ExperimentConfig) -> DetectionOutcome:
    prepared = prepare_experiment(cfg)
    records = prepared.train_once()
    validation = prepared.validation
    layout = prepared.training.layout
    sv_report, loo_report = _shapley_and_loo(cfg, layout, records, validation)
    universe = prepared.plan.participants()
    reports = {
        "fed_sv": sv_report.total,
        "fed_sv_norm": sv_report.normalized().total,
        "fed_loo": loo_report.total,
        "fed_loo_norm": loo_report.normalized().total,
        "random": random_values(universe, substream(cfg.seed, "baseline")),
    }
    outcome = DetectionOutcome(
        curves={
            name: detection_curve(values, prepared.corruption.affected, universe)
            for name, values in reports.items()
        },
        affected=prepared.corruption.affected,
    )
    if isinstance(prepared.corruption, BackdoorConfig):
        final = records[-1].global_after
        triggered = triggered_test_set(validation, prepared.corruption)
        outcome.attack_success_rate = evaluate_utility(
            layout, final, triggered.features, triggered.labels
        )
        outcome.clean_accuracy = evaluate_utility(
            layout, final, validation.features, validation.labels
        )
    return outcome


def run_noisy_detection(cfg: ExperimentConfig) -> DetectionOutcome:
    """Train once on flip-corrupted shards and rank every method's ability
    to surface the corrupted participants."""
    if not isinstance(cfg.corruption, LabelFlipConfig):
        raise ValueError("noisy detection needs a label_flip corruption")
    return _run_detection(cfg)


def run_backdoor_detection(cfg: ExperimentConfig) -> DetectionOutcome:
    """Like noisy detection, for trigger-poisoned participants; also reports
    how often the final model maps triggered inputs to the target label."""
    if not isinstance(cfg.corruption, BackdoorConfig):
        raise ValueError("backdoor detection needs a backdoor corruption")
    return _run_detection(cfg)


@dataclass
class SummarizationResult:
    """Final accuracy after per-round dismissal of low-value participants."""

    dismiss_fractions: tuple[float, ...]
    accuracy: dict[str, list[float]]
    baseline_accuracy: float


def _dismissal_count(selected_count: int, fraction: float) -> int:
    return int(selected_count * fraction + 1e-9)


def _shifted_mean(items: list[float]) -> float:
    # Exact for identical inputs, unlike a plain sum-then-divide.
    anchor = items[0]
    return anchor + float(np.mean([item - anchor for item in items]))


def _keep_lowest_dropped(
    selections: list[tuple[int, ...]], totals: ValueVector, fraction: float
) -> list[tuple[int, ...]]:
    """Each round's selection without its ``fraction`` lowest-valued
    participants (ties dropped by ascending id)."""
    table = []
    for selected in selections:
        drop = _dismissal_count(len(selected), fraction)
        ranked = sorted(selected, key=lambda pid: (totals.get(pid), pid))
        table.append(tuple(ranked[drop:]))
    return table


def _keep_random_dropped(
    selections: list[tuple[int, ...]], seed: int, repeat: int, fraction: float
) -> list[tuple[int, ...]]:
    """Each round's selection without a ``fraction`` of it drawn at random
    from ``substream(seed, "summarize-random", repeat, t)``."""
    table = []
    for t, selected in enumerate(selections):
        drop = _dismissal_count(len(selected), fraction)
        rng = substream(seed, "summarize-random", repeat, t)
        dropped = set(rng.choice(len(selected), size=drop, replace=False))
        table.append(tuple(pid for i, pid in enumerate(selected) if i not in dropped))
    return table


def run_summarization(cfg: ExperimentConfig) -> SummarizationResult:
    """Replay training with the recorded per-round selections, dismissing a
    fraction of each round's lowest-valued participants per method.

    Values are frozen from the first (full) run, and every replay's
    retained sets are built from its records as one table per replay
    before the retrain grid starts; the random baseline is averaged over
    the configured number of repeats.
    """
    # The grid replays the schedule, so the rows stay held until it ends.
    prepared = prepare_experiment(cfg, passes=2)
    layout = prepared.training.layout
    records = prepared.train_once()
    validation = (prepared.validation.features, prepared.validation.labels)
    sv_report, loo_report = _shapley_and_loo(cfg, layout, records, prepared.validation)
    if cfg.valuation.normalized:
        sv_report = sv_report.normalized()
    totals = {"fed_sv": sv_report.total, "fed_loo": loo_report.total}
    selections = [record.selected for record in records]
    baseline_accuracy = evaluate_utility(layout, records[-1].global_after, *validation)

    fractions = cfg.experiment.dismiss_fractions
    repeats = cfg.experiment.random_repeats
    plans: list[list[tuple[int, ...]]] = []
    for fraction in fractions:
        plans += [_keep_lowest_dropped(selections, vector, fraction) for vector in totals.values()]
        plans += [
            _keep_random_dropped(selections, cfg.seed, repeat, fraction)
            for repeat in range(repeats)
        ]
    # One lockstep grid of every replay; final models come back in plan order.
    finals = rerun_with_selections(prepared.rows, prepared.training, selections, plans)
    scores = iter([evaluate_utility(layout, params, *validation) for params in finals])
    accuracy: dict[str, list[float]] = {name: [] for name in (*totals, "random")}
    for _ in fractions:
        for name in totals:
            accuracy[name].append(next(scores))
        accuracy["random"].append(_shifted_mean([next(scores) for _ in range(repeats)]))
    return SummarizationResult(
        dismiss_fractions=tuple(fractions),
        accuracy=accuracy,
        baseline_accuracy=baseline_accuracy,
    )
