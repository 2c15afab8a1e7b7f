"""Evaluation protocols: corrupted-participant detection and summarization.

Every protocol trains once and derives all competing rankings from the
same round records, so differences between methods are attributable to
the valuation rule alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .config import (
    BackdoorConfig,
    BlobsSpec,
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
    split_shards,
    synth_blobs,
    triggered_test_set,
)
from .engine import (
    FederatedRun,
    TrainingConfig,
    ValuationDiagnostics,
    check_initial_model,
    evaluate_utility,
    rerun_with_selections,
    run_federated_training,
    value_rounds,
)
from .models import ModelLayout
from .seeding import substream
from .values import ValueVector


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


def random_values(participants: Iterable[int], rng: np.random.Generator) -> ValueVector:
    """Rank-only baseline: uniform random value per participant."""
    ids = sorted(participants)
    draws = rng.random(len(ids))
    return ValueVector({pid: float(draws[i]) for i, pid in enumerate(ids)}, None)


@dataclass
class PreparedExperiment:
    """Everything derived from a config before training starts."""

    layout: ModelLayout
    training: TrainingConfig
    train_data: Dataset
    validation: Dataset
    plan: PartitionPlan
    shards: dict[int, tuple[np.ndarray, np.ndarray]]
    affected: tuple[int, ...]
    triggered: Dataset | None


def _build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    spec = cfg.dataset
    if isinstance(spec, BlobsSpec):
        # One draw for both splits so they share the same class geometry.
        full = synth_blobs(
            spec.samples + spec.validation_samples,
            spec.features, spec.classes, spec.separation,
            substream(cfg.seed, "data"),
        )
        train = Dataset(
            full.features[: spec.samples], full.labels[: spec.samples], full.class_count
        )
        validation = Dataset(
            full.features[spec.samples :], full.labels[spec.samples :], full.class_count
        )
        return train, validation
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
    corruption = cfg.corruption
    assert corruption is not None
    participants = plan.participants()
    if corruption.affected is not None:
        affected = tuple(sorted(corruption.affected))
    else:
        count = corruption.affected_count
        if count > len(participants):
            raise ValueError("more affected participants requested than exist")
        rng = substream(cfg.seed, "corrupt-select")
        chosen = rng.choice(len(participants), size=count, replace=False)
        affected = tuple(sorted(participants[i] for i in chosen))
    unknown = set(affected) - set(participants)
    if unknown:
        raise ValueError(f"affected participants not in partition: {sorted(unknown)}")
    return affected


def _layout(cfg: ExperimentConfig, train: Dataset) -> ModelLayout:
    return ModelLayout(
        arch=cfg.training.model,
        n_features=train.features.shape[1],
        n_classes=train.class_count,
        hidden_units=cfg.training.hidden_units,
    )


def prepare_validation(cfg: ExperimentConfig) -> tuple[ModelLayout, Dataset]:
    """The model layout and validation set of a config, for valuing recorded
    rounds: no partition, corruption or shard split."""
    train, validation = _build_datasets(cfg)
    return _layout(cfg, train), validation


def prepare_experiment(cfg: ExperimentConfig) -> PreparedExperiment:
    train, validation = _build_datasets(cfg)
    if cfg.partition.mode == "iid":
        plan = partition_iid(
            train, cfg.partition.participants, substream(cfg.seed, "partition")
        )
    else:
        shard_count = cfg.partition.participants * cfg.partition.shards_per_participant
        plan = partition_noniid_shards(
            train,
            cfg.partition.participants,
            shard_count,
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
        train_data=train,
        validation=validation,
        plan=plan,
        shards=split_shards(train, plan),
        affected=affected,
        triggered=triggered,
    )


def run_experiment_training(
    cfg: ExperimentConfig,
    prepared: PreparedExperiment | None = None,
    diagnostics: ValuationDiagnostics | None = None,
    snapshot_dir=None,
) -> tuple[FederatedRun, PreparedExperiment]:
    """Train per the config and value rounds with its valuation method."""
    prepared = prepared or prepare_experiment(cfg)
    run = run_federated_training(
        prepared.shards,
        prepared.training,
        (prepared.validation.features, prepared.validation.labels),
        valuation=cfg.valuation.method,
        approx=cfg.valuation.approx,
        diagnostics=diagnostics,
        snapshot_dir=snapshot_dir,
    )
    if run.report is not None and cfg.valuation.normalized:
        run.report = run.report.normalized()
    return run, prepared


@dataclass
class DetectionOutcome:
    curves: dict[str, DetectionCurve]
    affected: tuple[int, ...]
    attack_success_rate: float | None = None
    clean_accuracy: float | None = None


def _shapley_backend(cfg: ExperimentConfig) -> str:
    if cfg.valuation.method in ("exact", "permutation", "group_testing"):
        return cfg.valuation.method
    return "exact"


def _detection_curves(
    cfg: ExperimentConfig, prepared: PreparedExperiment, run: FederatedRun
) -> dict[str, DetectionCurve]:
    validation = (prepared.validation.features, prepared.validation.labels)
    sv_report = value_rounds(
        run.records, prepared.layout, *validation,
        _shapley_backend(cfg), approx=cfg.valuation.approx, seed=cfg.seed,
    )
    loo_report = value_rounds(
        run.records, prepared.layout, *validation, "loo", seed=cfg.seed
    )
    universe = prepared.plan.participants()
    baseline = random_values(universe, substream(cfg.seed, "baseline"))
    reports = {
        "fed_sv": sv_report.total,
        "fed_sv_norm": sv_report.normalized().total,
        "fed_loo": loo_report.total,
        "fed_loo_norm": loo_report.normalized().total,
        "random": baseline,
    }
    return {
        name: detection_curve(values, prepared.affected, universe)
        for name, values in reports.items()
    }


def run_noisy_detection(cfg: ExperimentConfig) -> DetectionOutcome:
    """Train once on flip-corrupted shards and rank every method's ability
    to surface the corrupted participants."""
    if not isinstance(cfg.corruption, LabelFlipConfig):
        raise ValueError("noisy detection needs a label_flip corruption")
    prepared = prepare_experiment(cfg)
    run = run_federated_training(
        prepared.shards,
        prepared.training,
        (prepared.validation.features, prepared.validation.labels),
    )
    return DetectionOutcome(
        curves=_detection_curves(cfg, prepared, run),
        affected=prepared.affected,
    )


def run_backdoor_detection(cfg: ExperimentConfig) -> DetectionOutcome:
    """Like noisy detection, for trigger-poisoned participants; also reports
    how often the final model maps triggered inputs to the target label."""
    if not isinstance(cfg.corruption, BackdoorConfig):
        raise ValueError("backdoor detection needs a backdoor corruption")
    prepared = prepare_experiment(cfg)
    run = run_federated_training(
        prepared.shards,
        prepared.training,
        (prepared.validation.features, prepared.validation.labels),
    )
    assert prepared.triggered is not None
    attack_success = evaluate_utility(
        prepared.layout,
        run.final_params,
        prepared.triggered.features,
        prepared.triggered.labels,
    )
    clean_accuracy = evaluate_utility(
        prepared.layout,
        run.final_params,
        prepared.validation.features,
        prepared.validation.labels,
    )
    return DetectionOutcome(
        curves=_detection_curves(cfg, prepared, run),
        affected=prepared.affected,
        attack_success_rate=attack_success,
        clean_accuracy=clean_accuracy,
    )


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
    cfg: ExperimentConfig, records=None
) -> SummarizationResult:
    """Replay training with the recorded per-round selections, dismissing a
    fraction of each round's lowest-valued participants per method.

    Values are frozen from the first (full) run; the random baseline is
    averaged over the configured number of repeats. Pass ``records`` to
    reuse a persisted run instead of retraining it.
    """
    if cfg.valuation.method == "none":
        raise ValueError("summarization needs a valuation method, not 'none'")
    prepared = prepare_experiment(cfg)
    validation = (prepared.validation.features, prepared.validation.labels)
    if records is None:
        records = run_federated_training(
            prepared.shards, prepared.training, validation
        ).records
    records = list(records)
    if not records:
        raise ValueError("missing round records")
    if records[0].global_before.shape != (prepared.layout.param_count,):
        raise ValueError("round records do not match the configured model")
    check_initial_model(records, prepared.training)
    sv_report = value_rounds(
        records, prepared.layout, *validation,
        _shapley_backend(cfg), approx=cfg.valuation.approx, seed=cfg.seed,
    )
    if cfg.valuation.normalized:
        sv_report = sv_report.normalized()
    loo_report = value_rounds(
        records, prepared.layout, *validation, "loo", seed=cfg.seed
    )
    totals = {"fed_sv": sv_report.total, "fed_loo": loo_report.total}
    selections = [record.selected for record in records]
    baseline_accuracy = evaluate_utility(
        prepared.layout, records[-1].global_after, *validation
    )

    def final_accuracy(keep) -> float:
        params = rerun_with_selections(
            prepared.shards, prepared.training, selections, keep
        )
        return evaluate_utility(prepared.layout, params, *validation)

    accuracy: dict[str, list[float]] = {name: [] for name in (*totals, "random")}
    for fraction in cfg.experiment.dismiss_fractions:
        for name, vector in totals.items():
            accuracy[name].append(final_accuracy(_keep_lowest_dropped(vector, fraction)))
        repeats = [
            final_accuracy(_keep_random_dropped(cfg.seed, repeat, fraction))
            for repeat in range(cfg.experiment.random_repeats)
        ]
        accuracy["random"].append(_shifted_mean(repeats))
    return SummarizationResult(
        dismiss_fractions=tuple(cfg.experiment.dismiss_fractions),
        accuracy=accuracy,
        baseline_accuracy=baseline_accuracy,
    )
