"""Evaluation protocols: corrupted-participant detection and summarization.

Every protocol trains once and derives all competing rankings from the
same round records, so differences between methods are attributable to
the valuation rule alone.
"""

from __future__ import annotations

from dataclasses import dataclass
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
)
from .datasets import (
    BackdoorSpec,
    Dataset,
    LabelFlipSpec,
    PartitionPlan,
    flip_labels,
    implant_backdoor,
    load_idx,
    partition_iid,
    partition_noniid_shards,
    synth_blobs,
    triggered_test_set,
)
from .engine import (
    KeepRule,
    RoundOracle,
    RoundRecord,
    SnapshotFormatError,
    TrainingConfig,
    check_initial_model,
    evaluate_utility,
    load_round_records,
    rerun_with_selections,
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

    A participant's shard is its rows ``plan.assignment[pid]`` of the one
    (corrupted) ``train`` set, never a copy; ``train`` and ``validation``
    are separate arrays, so neither keeps the other alive.
    """

    layout: ModelLayout
    training: TrainingConfig
    train: Dataset
    validation: Dataset
    plan: PartitionPlan
    affected: tuple[int, ...]
    triggered: Dataset | None


def _draw_blobs(cfg: ExperimentConfig, spec: BlobsSpec, **part: int):
    # One draw for both splits, training rows first, so they share the
    # same class geometry.
    return synth_blobs(
        spec.samples + spec.validation_samples, spec.features, spec.classes,
        spec.separation, substream(cfg.seed, "data"), **part,
    )


def _build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    spec = cfg.dataset
    if isinstance(spec, BlobsSpec):
        return _draw_blobs(cfg, spec, split=spec.samples)
    assert isinstance(spec, IdxSpec)
    full = load_idx(spec.images, spec.labels, class_count=spec.class_count)
    order = substream(cfg.seed, "data").permutation(len(full))
    if spec.validation_images is not None:
        validation = load_idx(
            spec.validation_images, spec.validation_labels, class_count=full.class_count
        )
        train_order = order
    else:
        assert spec.validation_samples is not None
        if spec.validation_samples >= len(full):
            raise ValueError("validation split would consume the whole dataset")
        held_out = order[: spec.validation_samples]
        validation = Dataset(
            full.features[held_out], full.labels[held_out], full.class_count
        )
        train_order = order[spec.validation_samples :]
    if spec.limit is not None:
        train_order = train_order[: spec.limit]
    train = Dataset(full.features[train_order], full.labels[train_order], full.class_count)
    if validation.class_count != train.class_count:
        raise ValueError("validation and training class counts differ")
    return train, validation


def _resolve_affected(
    cfg: ExperimentConfig, plan: PartitionPlan
) -> tuple[int, ...]:
    """The corrupted participants; ``ExperimentConfig`` has already checked
    them against the partition's ids."""
    corruption = cfg.corruption
    assert corruption is not None
    if corruption.affected is not None:
        return tuple(sorted(corruption.affected))
    participants = plan.participants()
    rng = substream(cfg.seed, "corrupt-select")
    chosen = rng.choice(len(participants), size=corruption.affected_count, replace=False)
    return tuple(sorted(participants[i] for i in chosen))


def _layout(cfg: ExperimentConfig, train: Dataset) -> ModelLayout:
    return ModelLayout(
        arch=cfg.training.model,
        n_features=train.features.shape[1],
        n_classes=train.class_count,
        hidden_units=cfg.training.hidden_units,
    )


def prepare_validation(cfg: ExperimentConfig) -> tuple[ModelLayout, Dataset]:
    """The model layout and validation set of a config, for valuing recorded
    rounds: no partition or corruption. A blobs config's training rows are
    drawn and dropped chunk by chunk, so only the validation rows are held."""
    if isinstance(cfg.dataset, BlobsSpec):
        validation = _draw_blobs(cfg, cfg.dataset, skip=cfg.dataset.samples)
        return _layout(cfg, validation), validation
    train, validation = _build_datasets(cfg)
    return _layout(cfg, train), validation


def prepare_experiment(cfg: ExperimentConfig) -> PreparedExperiment:
    train, validation = _build_datasets(cfg)
    if cfg.partition.mode == "iid":
        plan = partition_iid(
            train, cfg.partition.participants, substream(cfg.seed, "partition")
        )
    else:
        plan = partition_noniid_shards(
            train,
            cfg.partition.participants,
            cfg.partition.shards_per_participant,
            substream(cfg.seed, "partition"),
        )
    affected: tuple[int, ...] = ()
    triggered: Dataset | None = None
    if cfg.corruption is not None:
        affected = _resolve_affected(cfg, plan)
        if isinstance(cfg.corruption, LabelFlipConfig):
            spec = LabelFlipSpec(frozenset(affected), cfg.corruption.flip_ratio)
            train = flip_labels(train, plan, spec, substream(cfg.seed, "corrupt"))
        else:
            assert isinstance(cfg.corruption, BackdoorConfig)
            spec = BackdoorSpec(
                affected=frozenset(affected),
                trigger_indices=cfg.corruption.trigger_indices,
                trigger_value=cfg.corruption.trigger_value,
                target_label=cfg.corruption.target_label,
                mix_per_batch=cfg.corruption.mix_per_batch,
                batch_size=cfg.corruption.poison_batch_size,
            )
            train = implant_backdoor(train, plan, spec, substream(cfg.seed, "corrupt"))
            triggered = triggered_test_set(validation, spec)
    layout = _layout(cfg, train)
    return PreparedExperiment(
        layout=layout,
        training=cfg.training.to_training_config(layout, cfg.seed),
        train=train,
        validation=validation,
        plan=plan,
        affected=affected,
        triggered=triggered,
    )


def load_recorded_run(
    cfg: ExperimentConfig, snapshots: str | Path, layout: ModelLayout
) -> list[RoundRecord]:
    """The round records of a snapshot directory, refused unless they form
    one run of ``layout`` over ``cfg``'s participants that starts from
    ``cfg``'s initial model."""
    records, recorded_layout = load_round_records(snapshots)
    if recorded_layout != layout:
        raise ConfigError("snapshot layout does not match the configured model/dataset")
    participants = cfg.partition.participants
    for record in records:
        stray = [pid for pid in record.selected if not 0 <= pid < participants]
        if stray:
            raise SnapshotFormatError(
                f"{Path(snapshots) / snapshot_name(record.round_index)}: participant "
                f"{stray[0]} is not one of the configured ids 0..{participants - 1}"
            )
    check_initial_model(records, cfg.training.to_training_config(layout, cfg.seed), snapshots)
    return records


@dataclass
class DetectionOutcome:
    curves: dict[str, DetectionCurve]
    affected: tuple[int, ...]
    attack_success_rate: float | None = None
    clean_accuracy: float | None = None


def shapley_backend(cfg: ExperimentConfig) -> str:
    """The Shapley method the protocols run: the configured one, which must
    be exact or an estimator (the protocols add LOO and random themselves)."""
    method = cfg.valuation.method
    if method not in ("exact", "permutation", "group_testing"):
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
    validation = prepared.validation
    records = run_federated_training(prepared.train, prepared.plan.assignment, prepared.training)
    sv_report, loo_report = _shapley_and_loo(cfg, prepared.layout, records, validation)
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
            name: detection_curve(values, prepared.affected, universe)
            for name, values in reports.items()
        },
        affected=prepared.affected,
    )
    if prepared.triggered is not None:
        final = records[-1].global_after
        outcome.attack_success_rate = evaluate_utility(
            prepared.layout, final, prepared.triggered.features, prepared.triggered.labels
        )
        outcome.clean_accuracy = evaluate_utility(
            prepared.layout, final, validation.features, validation.labels
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
    totals: ValueVector, fraction: float
) -> Callable[[int, tuple[int, ...]], tuple[int, ...]]:
    def keep(t: int, selected: tuple[int, ...]) -> tuple[int, ...]:
        drop = _dismissal_count(len(selected), fraction)
        ranked = sorted(selected, key=lambda pid: (totals.get(pid), pid))
        return tuple(ranked[drop:])

    return keep


def _keep_random_dropped(
    seed: int, repeat: int, fraction: float
) -> Callable[[int, tuple[int, ...]], tuple[int, ...]]:
    def keep(t: int, selected: tuple[int, ...]) -> tuple[int, ...]:
        drop = _dismissal_count(len(selected), fraction)
        if drop == 0:
            return selected
        rng = substream(seed, "summarize-random", repeat, t)
        dropped = set(rng.choice(len(selected), size=drop, replace=False))
        return tuple(pid for i, pid in enumerate(selected) if i not in dropped)

    return keep


def run_summarization(
    cfg: ExperimentConfig, snapshots: str | Path | None = None
) -> SummarizationResult:
    """Replay training with the recorded per-round selections, dismissing a
    fraction of each round's lowest-valued participants per method.

    Values are frozen from the first (full) run; the random baseline is
    averaged over the configured number of repeats. Pass a ``snapshots``
    directory to reuse a persisted run instead of training it.
    """
    prepared = prepare_experiment(cfg)
    shards = prepared.plan.assignment
    validation = (prepared.validation.features, prepared.validation.labels)
    if snapshots is None:
        records = run_federated_training(prepared.train, shards, prepared.training)
    else:
        records = load_recorded_run(cfg, snapshots, prepared.layout)
    sv_report, loo_report = _shapley_and_loo(
        cfg, prepared.layout, records, prepared.validation
    )
    if cfg.valuation.normalized:
        sv_report = sv_report.normalized()
    totals = {"fed_sv": sv_report.total, "fed_loo": loo_report.total}
    selections = [record.selected for record in records]
    baseline_accuracy = evaluate_utility(
        prepared.layout, records[-1].global_after, *validation
    )

    fractions = cfg.experiment.dismiss_fractions
    repeats = cfg.experiment.random_repeats
    keeps: list[KeepRule] = []
    for fraction in fractions:
        keeps += [_keep_lowest_dropped(vector, fraction) for vector in totals.values()]
        keeps += [_keep_random_dropped(cfg.seed, repeat, fraction) for repeat in range(repeats)]
    # One lockstep grid of every replay; final models come back in rule order.
    finals = rerun_with_selections(prepared.train, shards, prepared.training, selections, keeps)
    scores = iter([evaluate_utility(prepared.layout, params, *validation) for params in finals])
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
