"""Strict declarative experiment configuration and run manifests.

Configs are YAML mappings validated as a whole before any compute:
unknown keys, type mismatches, and constraint violations are rejected
with the path into the document. A parsed config serializes back to an
equivalent document (round-trip identity), which is what makes the
recorded digests trustworthy provenance.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from . import __version__
from .engine import METRICS, VALUATION_METHODS, TrainingConfig
from .estimators import ApproxParams
from .models import ARCHITECTURES, ModelLayout


class ConfigError(ValueError):
    """Configuration rejected; the message carries the document path."""


def _mapping(node: Any, path: str) -> dict[str, Any]:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _no_unknown(doc: dict[str, Any], allowed: set[str], path: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")


def _require(doc: dict[str, Any], key: str, path: str) -> Any:
    if key not in doc:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return doc[key]


def _as_int(value: Any, path: str, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}, got {value}")
    return value


def _as_float(
    value: Any,
    path: str,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
    exclusive_minimum: bool = False,
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    value = float(value)
    if minimum is not None:
        if exclusive_minimum and value <= minimum:
            raise ConfigError(f"{path}: must exceed {minimum}, got {value}")
        if not exclusive_minimum and value < minimum:
            raise ConfigError(f"{path}: must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be at most {maximum}, got {value}")
    return value


def _as_str(value: Any, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: must be one of {list(choices)}, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected a boolean, got {value!r}")
    return value


def _as_int_list(value: Any, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    return tuple(_as_int(item, f"{path}[{i}]") for i, item in enumerate(value))


@dataclass(frozen=True)
class BlobsSpec:
    samples: int
    features: int
    classes: int
    separation: float
    validation_samples: int


@dataclass(frozen=True)
class IdxSpec:
    images: str
    labels: str
    validation_images: str | None
    validation_labels: str | None
    limit: int | None
    validation_samples: int | None
    class_count: int | None


@dataclass(frozen=True)
class PartitionSpec:
    mode: str
    participants: int
    shards_per_participant: int = 0


@dataclass(frozen=True)
class LabelFlipConfig:
    flip_ratio: float
    affected: tuple[int, ...] | None
    affected_count: int | None

    kind = "label_flip"


@dataclass(frozen=True)
class BackdoorConfig:
    trigger_indices: tuple[int, ...]
    trigger_value: float
    target_label: int
    mix_per_batch: int
    poison_batch_size: int
    affected: tuple[int, ...] | None
    affected_count: int | None

    kind = "backdoor"


@dataclass(frozen=True)
class TrainingSpec:
    rounds: int
    participant_fraction: float
    local_epochs: int
    batch_size: int
    learning_rate: float
    lr_decay: float
    model: str
    hidden_units: int
    init_scale: float
    metric: str

    def to_training_config(self, layout: ModelLayout, seed: int) -> TrainingConfig:
        return TrainingConfig(
            layout=layout,
            rounds=self.rounds,
            participant_fraction=self.participant_fraction,
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=seed,
            lr_decay=self.lr_decay,
            metric=self.metric,
            init_scale=self.init_scale,
        )


@dataclass(frozen=True)
class ValuationSpec:
    method: str
    normalized: bool
    approx: ApproxParams | None


_DEFAULT_DISMISS = tuple(round(0.1 * i, 1) for i in range(10))


@dataclass(frozen=True)
class ExperimentKnobs:
    dismiss_fractions: tuple[float, ...] = _DEFAULT_DISMISS
    random_repeats: int = 3


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    dataset: BlobsSpec | IdxSpec
    partition: PartitionSpec
    training: TrainingSpec
    valuation: ValuationSpec
    corruption: LabelFlipConfig | BackdoorConfig | None
    experiment: ExperimentKnobs
    output_dir: str | None


def _parse_dataset(node: Any, path: str) -> BlobsSpec | IdxSpec:
    doc = _mapping(node, path)
    kind = _as_str(_require(doc, "kind", path), f"{path}.kind", ("blobs", "idx"))
    if kind == "blobs":
        _no_unknown(
            doc,
            {"kind", "samples", "features", "classes", "separation", "validation_samples"},
            path,
        )
        return BlobsSpec(
            samples=_as_int(_require(doc, "samples", path), f"{path}.samples", minimum=1),
            features=_as_int(_require(doc, "features", path), f"{path}.features", minimum=1),
            classes=_as_int(_require(doc, "classes", path), f"{path}.classes", minimum=2),
            separation=_as_float(
                _require(doc, "separation", path), f"{path}.separation",
                minimum=0.0, exclusive_minimum=True,
            ),
            validation_samples=_as_int(
                _require(doc, "validation_samples", path),
                f"{path}.validation_samples", minimum=1,
            ),
        )
    _no_unknown(
        doc,
        {
            "kind", "images", "labels", "validation_images", "validation_labels",
            "limit", "validation_samples", "class_count",
        },
        path,
    )
    validation_images = doc.get("validation_images")
    validation_labels = doc.get("validation_labels")
    if (validation_images is None) != (validation_labels is None):
        raise ConfigError(
            f"{path}: validation_images and validation_labels must be given together"
        )
    validation_samples = doc.get("validation_samples")
    if validation_images is None and validation_samples is None:
        raise ConfigError(
            f"{path}: either validation files or validation_samples is required"
        )
    return IdxSpec(
        images=_as_str(_require(doc, "images", path), f"{path}.images"),
        labels=_as_str(_require(doc, "labels", path), f"{path}.labels"),
        validation_images=(
            None if validation_images is None
            else _as_str(validation_images, f"{path}.validation_images")
        ),
        validation_labels=(
            None if validation_labels is None
            else _as_str(validation_labels, f"{path}.validation_labels")
        ),
        limit=(
            None if "limit" not in doc
            else _as_int(doc["limit"], f"{path}.limit", minimum=1)
        ),
        validation_samples=(
            None if validation_samples is None
            else _as_int(validation_samples, f"{path}.validation_samples", minimum=1)
        ),
        class_count=(
            None if "class_count" not in doc
            else _as_int(doc["class_count"], f"{path}.class_count", minimum=2)
        ),
    )


def _parse_partition(node: Any, path: str) -> PartitionSpec:
    doc = _mapping(node, path)
    mode = _as_str(_require(doc, "mode", path), f"{path}.mode", ("iid", "shards"))
    if mode == "iid":
        _no_unknown(doc, {"mode", "participants"}, path)
        return PartitionSpec(
            mode=mode,
            participants=_as_int(
                _require(doc, "participants", path), f"{path}.participants", minimum=1
            ),
        )
    _no_unknown(doc, {"mode", "participants", "shards_per_participant"}, path)
    return PartitionSpec(
        mode=mode,
        participants=_as_int(
            _require(doc, "participants", path), f"{path}.participants", minimum=1
        ),
        shards_per_participant=_as_int(
            _require(doc, "shards_per_participant", path),
            f"{path}.shards_per_participant", minimum=1,
        ),
    )


def _parse_affected(
    doc: dict[str, Any], path: str
) -> tuple[tuple[int, ...] | None, int | None]:
    has_list = "affected" in doc
    has_count = "affected_count" in doc
    if has_list == has_count:
        raise ConfigError(f"{path}: exactly one of affected / affected_count is required")
    if has_list:
        return _as_int_list(doc["affected"], f"{path}.affected"), None
    return None, _as_int(doc["affected_count"], f"{path}.affected_count", minimum=1)


def _parse_corruption(node: Any, path: str) -> LabelFlipConfig | BackdoorConfig:
    doc = _mapping(node, path)
    kind = _as_str(
        _require(doc, "kind", path), f"{path}.kind", ("label_flip", "backdoor")
    )
    if kind == "label_flip":
        _no_unknown(doc, {"kind", "flip_ratio", "affected", "affected_count"}, path)
        affected, affected_count = _parse_affected(doc, path)
        ratio = _as_float(
            _require(doc, "flip_ratio", path), f"{path}.flip_ratio",
            minimum=0.0, maximum=1.0, exclusive_minimum=True,
        )
        return LabelFlipConfig(ratio, affected, affected_count)
    _no_unknown(
        doc,
        {
            "kind", "trigger_indices", "trigger_value", "target_label",
            "mix_per_batch", "poison_batch_size", "affected", "affected_count",
        },
        path,
    )
    affected, affected_count = _parse_affected(doc, path)
    return BackdoorConfig(
        trigger_indices=_as_int_list(
            _require(doc, "trigger_indices", path), f"{path}.trigger_indices"
        ),
        trigger_value=_as_float(
            _require(doc, "trigger_value", path), f"{path}.trigger_value"
        ),
        target_label=_as_int(
            _require(doc, "target_label", path), f"{path}.target_label", minimum=0
        ),
        mix_per_batch=_as_int(doc.get("mix_per_batch", 20), f"{path}.mix_per_batch", minimum=1),
        poison_batch_size=_as_int(
            doc.get("poison_batch_size", 64), f"{path}.poison_batch_size", minimum=1
        ),
        affected=affected,
        affected_count=affected_count,
    )


def _parse_training(node: Any, path: str) -> TrainingSpec:
    doc = _mapping(node, path)
    _no_unknown(
        doc,
        {
            "rounds", "participant_fraction", "local_epochs", "batch_size",
            "learning_rate", "lr_decay", "model", "hidden_units", "init_scale",
            "metric",
        },
        path,
    )
    model = _as_str(_require(doc, "model", path), f"{path}.model", ARCHITECTURES)
    hidden_units = _as_int(doc.get("hidden_units", 0), f"{path}.hidden_units", minimum=0)
    if model == "mlp" and hidden_units < 1:
        raise ConfigError(f"{path}.hidden_units: mlp model needs at least 1")
    if model == "logistic" and hidden_units != 0:
        raise ConfigError(f"{path}.hidden_units: logistic model takes none")
    init_scale = _as_float(doc.get("init_scale", 0.0), f"{path}.init_scale", minimum=0.0)
    if model == "mlp" and init_scale == 0.0:
        raise ConfigError(
            f"{path}.init_scale: mlp model needs a positive init_scale; from an "
            f"all-zero start only the output bias receives gradient, so it never learns"
        )
    return TrainingSpec(
        rounds=_as_int(_require(doc, "rounds", path), f"{path}.rounds", minimum=1),
        participant_fraction=_as_float(
            _require(doc, "participant_fraction", path),
            f"{path}.participant_fraction",
            minimum=0.0, maximum=1.0, exclusive_minimum=True,
        ),
        local_epochs=_as_int(
            _require(doc, "local_epochs", path), f"{path}.local_epochs", minimum=1
        ),
        batch_size=_as_int(
            _require(doc, "batch_size", path), f"{path}.batch_size", minimum=1
        ),
        learning_rate=_as_float(
            _require(doc, "learning_rate", path), f"{path}.learning_rate",
            minimum=0.0, exclusive_minimum=True,
        ),
        lr_decay=_as_float(
            doc.get("lr_decay", 1.0), f"{path}.lr_decay",
            minimum=0.0, maximum=1.0, exclusive_minimum=True,
        ),
        model=model,
        hidden_units=hidden_units,
        init_scale=init_scale,
        metric=_as_str(doc.get("metric", "accuracy"), f"{path}.metric", METRICS),
    )


def _parse_approx(node: Any, path: str) -> ApproxParams:
    doc = _mapping(node, path)
    _no_unknown(doc, {"epsilon", "delta", "range_bound", "c_eps", "c_delta"}, path)
    try:
        return ApproxParams(
            epsilon=_as_float(
                _require(doc, "epsilon", path), f"{path}.epsilon",
                minimum=0.0, exclusive_minimum=True,
            ),
            delta=_as_float(
                _require(doc, "delta", path), f"{path}.delta",
                minimum=0.0, maximum=1.0, exclusive_minimum=True,
            ),
            range_bound=_as_float(
                doc.get("range_bound", 1.0), f"{path}.range_bound",
                minimum=0.0, exclusive_minimum=True,
            ),
            c_eps=_as_float(doc.get("c_eps", 2.0), f"{path}.c_eps"),
            c_delta=_as_float(doc.get("c_delta", 2.0), f"{path}.c_delta"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_valuation(node: Any, path: str) -> ValuationSpec:
    doc = _mapping(node, path)
    _no_unknown(doc, {"method", "normalized", "approx"}, path)
    method = _as_str(
        doc.get("method", "exact"), f"{path}.method", VALUATION_METHODS
    )
    approx = None
    if "approx" in doc:
        approx = _parse_approx(doc["approx"], f"{path}.approx")
    if method in ("permutation", "group_testing") and approx is None:
        raise ConfigError(f"{path}.approx: required for method {method!r}")
    return ValuationSpec(
        method=method,
        normalized=_as_bool(doc.get("normalized", False), f"{path}.normalized"),
        approx=approx,
    )


def _parse_experiment(node: Any, path: str) -> ExperimentKnobs:
    doc = _mapping(node, path)
    _no_unknown(doc, {"dismiss_fractions", "random_repeats"}, path)
    fractions = _DEFAULT_DISMISS
    if "dismiss_fractions" in doc:
        raw = doc["dismiss_fractions"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.dismiss_fractions: expected a nonempty list")
        fractions = tuple(
            _as_float(item, f"{path}.dismiss_fractions[{i}]", minimum=0.0, maximum=0.9)
            for i, item in enumerate(raw)
        )
    return ExperimentKnobs(
        dismiss_fractions=fractions,
        random_repeats=_as_int(
            doc.get("random_repeats", 3), f"{path}.random_repeats", minimum=1
        ),
    )


def config_from_dict(doc: Any, source: str = "config") -> ExperimentConfig:
    doc = _mapping(doc, source)
    _no_unknown(
        doc,
        {
            "seed", "dataset", "partition", "training", "valuation",
            "corruption", "experiment", "output_dir",
        },
        source,
    )
    cfg = ExperimentConfig(
        seed=_as_int(_require(doc, "seed", source), f"{source}.seed", minimum=0),
        dataset=_parse_dataset(_require(doc, "dataset", source), f"{source}.dataset"),
        partition=_parse_partition(
            _require(doc, "partition", source), f"{source}.partition"
        ),
        training=_parse_training(
            _require(doc, "training", source), f"{source}.training"
        ),
        valuation=(
            _parse_valuation(doc["valuation"], f"{source}.valuation")
            if "valuation" in doc
            else ValuationSpec("exact", False, None)
        ),
        corruption=(
            _parse_corruption(doc["corruption"], f"{source}.corruption")
            if "corruption" in doc
            else None
        ),
        experiment=(
            _parse_experiment(doc["experiment"], f"{source}.experiment")
            if "experiment" in doc
            else ExperimentKnobs()
        ),
        output_dir=(
            _as_str(doc["output_dir"], f"{source}.output_dir")
            if "output_dir" in doc
            else None
        ),
    )
    if isinstance(cfg.dataset, BlobsSpec):
        if cfg.partition.participants > cfg.dataset.samples:
            raise ConfigError(
                f"{source}.partition.participants: exceeds dataset samples"
            )
    if cfg.valuation.method != "none" and cfg.training.metric != "accuracy":
        raise ConfigError(
            f"{source}.training.metric: valuation needs the bounded accuracy metric"
        )
    return cfg


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return config_from_dict(doc, source=str(path))


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """Fully resolved document; parsing it back yields an equal config."""
    dataset: dict[str, Any]
    if isinstance(cfg.dataset, BlobsSpec):
        dataset = {"kind": "blobs", **asdict(cfg.dataset)}
    else:
        dataset = {"kind": "idx", **{
            key: value for key, value in asdict(cfg.dataset).items() if value is not None
        }}
    partition: dict[str, Any] = {
        "mode": cfg.partition.mode,
        "participants": cfg.partition.participants,
    }
    if cfg.partition.mode == "shards":
        partition["shards_per_participant"] = cfg.partition.shards_per_participant
    doc: dict[str, Any] = {
        "seed": cfg.seed,
        "dataset": dataset,
        "partition": partition,
        "training": asdict(cfg.training),
        "valuation": {
            "method": cfg.valuation.method,
            "normalized": cfg.valuation.normalized,
        },
        "experiment": {
            "dismiss_fractions": list(cfg.experiment.dismiss_fractions),
            "random_repeats": cfg.experiment.random_repeats,
        },
    }
    if cfg.valuation.approx is not None:
        doc["valuation"]["approx"] = asdict(cfg.valuation.approx)
    if cfg.corruption is not None:
        body = {
            key: value
            for key, value in asdict(cfg.corruption).items()
            if value is not None
        }
        if isinstance(cfg.corruption, BackdoorConfig):
            body["trigger_indices"] = list(cfg.corruption.trigger_indices)
        if body.get("affected") is not None:
            body["affected"] = list(body["affected"])
        doc["corruption"] = {"kind": cfg.corruption.kind, **body}
    if cfg.output_dir is not None:
        doc["output_dir"] = cfg.output_dir
    return doc


def dump_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=True))


def config_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Provenance record written atomically when a run ends."""

    command: str
    master_seed: int
    status: str = "ok"
    config_digest: str | None = None
    started: str = ""
    finished: str = ""
    package_version: str = __version__
    numpy_version: str = np.__version__
    details: dict[str, Any] = field(default_factory=dict)


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    path = Path(path)
    payload = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".manifest-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
