"""Strict declarative experiment configuration and run manifests.

Each config section is a frozen dataclass, and the dataclass is the only
statement of the section's keys:

- a field's name is the key;
- its type says what the key accepts: a bool is never an int or a
  float, an int is accepted as a float, a list gives a tuple, and a key
  whose type admits ``None`` accepts null as if it were left out;
- its default, if it has one, makes the key optional;
- its ``field`` metadata gives bounds (``min``, ``above`` for an
  exclusive minimum, ``max``) or ``choices``, which apply to each item
  of a tuple;
- a section with a ``kind`` class attribute is chosen by the document's
  ``kind`` key among the members of a union;
- rules between keys live in the dataclass's ``__post_init__``.

Bounds, choices and cross-key rules are checked whenever a section is
built, so a CLI override applied with ``dataclasses.replace`` obeys the
same rules as the file. One parser and one dumper walk the dataclass
fields. The parser rejects unknown and missing keys and names the path
into the document in every error; a parsed config serializes back to an
equivalent document (round-trip identity). The digest a manifest records
hashes the raw config file bytes, so two files that parse to the same
config but differ in layout or comments get different digests.
"""

from __future__ import annotations

import hashlib
import json
import re
import types
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from . import __version__
from .engine import VALUATION_METHODS, write_atomically
from .estimators import ApproxParams
from .models import ARCHITECTURES, ModelLayout


class ConfigError(ValueError):
    """Configuration rejected; the message carries the document path."""


def _key(default: Any = MISSING, **rules: Any) -> Any:
    """A config key with its bounds or choices (see the module docstring)."""
    return field(default=default, metadata=rules)


def _violation(value: Any, rules: Any) -> str | None:
    if "choices" in rules and value not in rules["choices"]:
        return f"must be one of {list(rules['choices'])}, got {value!r}"
    if "min" in rules and value < rules["min"]:
        return f"must be at least {rules['min']}, got {value}"
    if "above" in rules and value <= rules["above"]:
        return f"must exceed {rules['above']}, got {value}"
    if "max" in rules and value > rules["max"]:
        return f"must be at most {rules['max']}, got {value}"
    return None


class _Section:
    """Checks each field's bounds and choices when a section is built.
    Errors begin with the offending key, so the parser can prefix the
    section's document path."""

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not spec.metadata or value is None:
                continue
            items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
            for index, item in items:
                problem = _violation(item, spec.metadata)
                if problem is not None:
                    where = spec.name if index is None else f"{spec.name}[{index}]"
                    raise ValueError(f"{where}: {problem}")


def _check_affected_keys(corruption: LabelFlipConfig | BackdoorConfig) -> None:
    if (corruption.affected is None) == (corruption.affected_count is None):
        raise ValueError("exactly one of affected / affected_count is required")
    if corruption.affected == ():
        raise ValueError("affected: must name at least one participant")
    for index, pid in enumerate(corruption.affected or ()):
        if pid in corruption.affected[:index]:
            raise ValueError(f"affected[{index}]: repeats participant {pid}")


@dataclass(frozen=True)
class BlobsSpec(_Section):
    samples: int = _key(min=1)
    features: int = _key(min=1)
    classes: int = _key(min=2)
    separation: float = _key(above=0.0)
    validation_samples: int = _key(min=1)

    kind = "blobs"


@dataclass(frozen=True)
class IdxSpec(_Section):
    images: str
    labels: str
    validation_images: str | None = None
    validation_labels: str | None = None
    limit: int | None = _key(None, min=1)
    validation_samples: int | None = _key(None, min=1)
    class_count: int | None = _key(None, min=2)

    kind = "idx"

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.validation_images is None) != (self.validation_labels is None):
            missing = (
                "validation_labels" if self.validation_labels is None else "validation_images"
            )
            raise ValueError(f"{missing}: validation images and labels come as a pair")
        if self.validation_images is None and self.validation_samples is None:
            raise ValueError("validation_samples: required without validation files")


@dataclass(frozen=True)
class PartitionSpec(_Section):
    mode: str = _key(choices=("iid", "shards"))
    participants: int = _key(min=1)
    shards_per_participant: int | None = _key(None, min=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.mode == "shards") != (self.shards_per_participant is not None):
            need = "required by" if self.mode == "shards" else "not used by"
            raise ValueError(f"shards_per_participant: {need} mode {self.mode!r}")


@dataclass(frozen=True)
class LabelFlipConfig(_Section):
    flip_ratio: float = _key(above=0.0, max=1.0)
    affected: tuple[int, ...] | None = None
    affected_count: int | None = _key(None, min=1)

    kind = "label_flip"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_affected_keys(self)


@dataclass(frozen=True)
class BackdoorConfig(_Section):
    trigger_indices: tuple[int, ...] = _key(min=0)
    trigger_value: float
    target_label: int = _key(min=0)
    mix_per_batch: int = _key(20, min=1)
    poison_batch_size: int = _key(64, min=1)
    affected: tuple[int, ...] | None = None
    affected_count: int | None = _key(None, min=1)

    kind = "backdoor"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_affected_keys(self)
        if self.mix_per_batch > self.poison_batch_size:
            raise ValueError(
                f"mix_per_batch: cannot exceed poison_batch_size "
                f"({self.poison_batch_size}), got {self.mix_per_batch}"
            )


@dataclass(frozen=True)
class TrainingSpec(_Section):
    rounds: int = _key(min=1)
    participant_fraction: float = _key(above=0.0, max=1.0)
    local_epochs: int = _key(min=1)
    batch_size: int = _key(min=1)
    learning_rate: float = _key(above=0.0)
    model: str = _key(choices=ARCHITECTURES)
    lr_decay: float = _key(1.0, above=0.0, max=1.0)  # per round; 1.0 is constant
    hidden_units: int = _key(0, min=0)
    init_scale: float = _key(0.0, min=0.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.model == "mlp" and self.hidden_units < 1:
            raise ValueError("hidden_units: mlp model needs at least 1")
        if self.model == "logistic" and self.hidden_units != 0:
            raise ValueError("hidden_units: logistic model takes none")
        if self.model == "mlp" and self.init_scale == 0.0:
            raise ValueError(
                "init_scale: mlp model needs a positive init_scale; from an "
                "all-zero start only the output bias receives gradient, so it never learns"
            )


@dataclass(frozen=True, kw_only=True)
class TrainingConfig(TrainingSpec):
    """The ``training`` section resolved against its dataset and the master
    seed: what the engine trains from. Every rule of the section holds."""

    n_features: int = _key(min=1)
    n_classes: int = _key(min=2)
    seed: int = _key(min=0)

    @cached_property
    def layout(self) -> ModelLayout:
        return ModelLayout(self.model, self.n_features, self.n_classes, self.hidden_units)


@dataclass(frozen=True)
class ValuationSpec(_Section):
    method: str = _key("exact", choices=VALUATION_METHODS)
    normalized: bool = False
    approx: ApproxParams | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.method in ("permutation", "group_testing") and self.approx is None:
            raise ValueError(f"approx: required for method {self.method!r}")


@dataclass(frozen=True)
class ExperimentKnobs(_Section):
    dismiss_fractions: tuple[float, ...] = _key(
        tuple(round(0.1 * i, 1) for i in range(10)), min=0.0, max=0.9
    )
    random_repeats: int = _key(3, min=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.dismiss_fractions:
            raise ValueError("dismiss_fractions: must not be empty")


@dataclass(frozen=True)
class ExperimentConfig(_Section):
    seed: int = _key(min=0)
    dataset: BlobsSpec | IdxSpec
    partition: PartitionSpec
    training: TrainingSpec
    valuation: ValuationSpec = ValuationSpec()
    corruption: LabelFlipConfig | BackdoorConfig | None = None
    experiment: ExperimentKnobs = ExperimentKnobs()
    output_dir: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.dataset, BlobsSpec):
            if self.partition.participants > self.dataset.samples:
                raise ValueError("partition.participants: exceeds dataset samples")
        backdoor = self.corruption
        if isinstance(self.dataset, BlobsSpec) and isinstance(backdoor, BackdoorConfig):
            # An idx dataset's class and feature counts are only known once
            # it is loaded; the backdoor checks its own bounds then.
            if backdoor.target_label >= self.dataset.classes:
                raise ValueError(
                    f"corruption.target_label: must be below dataset.classes "
                    f"({self.dataset.classes}), got {backdoor.target_label}"
                )
            for index, feature in enumerate(backdoor.trigger_indices):
                if feature >= self.dataset.features:
                    raise ValueError(
                        f"corruption.trigger_indices[{index}]: must be below "
                        f"dataset.features ({self.dataset.features}), got {feature}"
                    )
        if self.corruption is not None:
            # Participant ids are 0 .. participants - 1 in every partition mode.
            participants = self.partition.participants
            for index, pid in enumerate(self.corruption.affected or ()):
                if not 0 <= pid < participants:
                    raise ValueError(
                        f"corruption.affected[{index}]: participant {pid} is not among "
                        f"the partition's ids 0..{participants - 1}"
                    )
            count = self.corruption.affected_count
            if count is not None and count > participants:
                raise ValueError(
                    f"corruption.affected_count: must be at most partition.participants "
                    f"({participants}), got {count}"
                )


_SCALARS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _mapping(node: Any, path: str) -> dict[str, Any]:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _parse(expected: Any, node: Any, path: str) -> Any:
    """The value of type ``expected`` that a document node gives."""
    members = get_args(expected)
    if get_origin(expected) in (Union, types.UnionType):
        if node is None and type(None) in members:
            return None
        sections = [m for m in members if m is not type(None)]
        if len(sections) == 1:
            return _parse(sections[0], node, path)
        doc = _mapping(node, path)
        if "kind" not in doc:
            raise ConfigError(f"{path}: missing required key 'kind'")
        by_kind = {section.kind: section for section in sections}
        chosen = _parse(str, doc["kind"], f"{path}.kind")
        problem = _violation(chosen, {"choices": tuple(by_kind)})
        if problem is not None:
            raise ConfigError(f"{path}.kind: {problem}")
        rest = {key: value for key, value in doc.items() if key != "kind"}
        return _parse(by_kind[chosen], rest, path)
    if get_origin(expected) is tuple:
        if not isinstance(node, list):
            raise ConfigError(f"{path}: expected a list, got {node!r}")
        return tuple(_parse(members[0], item, f"{path}[{i}]") for i, item in enumerate(node))
    if is_dataclass(expected):
        return _parse_section(expected, node, path)
    accepted = (int, float) if expected is float else (expected,)
    if isinstance(node, bool) != (expected is bool) or not isinstance(node, accepted):
        raise ConfigError(f"{path}: expected {_SCALARS[expected]}, got {node!r}")
    return float(node) if expected is float else node


def _parse_section(cls: type, node: Any, path: str) -> Any:
    doc = _mapping(node, path)
    specs = fields(cls)
    unknown = sorted(set(doc) - {spec.name for spec in specs})
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    field_types = get_type_hints(cls)
    values = {}
    for spec in specs:
        if spec.name in doc:
            key_path = f"{path}.{spec.name}"
            values[spec.name] = _parse(field_types[spec.name], doc[spec.name], key_path)
        elif spec.default is MISSING:
            raise ConfigError(f"{path}: missing required key {spec.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        # Rules name the offending key first; other messages concern the section.
        head = re.split(r"[\s.:\[]", str(exc), maxsplit=1)[0]
        named = any(spec.name == head for spec in specs)
        raise ConfigError(f"{path}.{exc}" if named else f"{path}: {exc}") from exc


def config_from_dict(doc: Any, source: str = "config") -> ExperimentConfig:
    return _parse_section(ExperimentConfig, doc, source)


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return config_from_dict(doc, source=str(path))


def _dump(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_dump(item) for item in value]
    if not is_dataclass(value):
        return value
    doc = {"kind": value.kind} if hasattr(value, "kind") else {}
    for spec in fields(value):
        item = getattr(value, spec.name)
        if item is not None:
            doc[spec.name] = _dump(item)
    return doc


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """Fully resolved document; parsing it back yields an equal config."""
    return _dump(cfg)


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
    payload = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
    with write_atomically(Path(path)) as fh:
        fh.write(payload.encode("utf-8"))
