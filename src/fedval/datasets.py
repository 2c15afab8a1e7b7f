"""Dataset construction, participant partitioning, and corruption injection."""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX container; the message carries the failing byte offset."""


@dataclass
class Dataset:
    """Feature matrix with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty n x d matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")
        # A finite sum proves every entry finite without an n x d mask.
        if not (np.isfinite(self.features.sum()) or np.isfinite(self.features).all()):
            raise ValueError("features must be finite")
        if self.class_count < 2:
            raise ValueError("class_count must be at least 2")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError("labels must lie in [0, class_count)")

    def __len__(self) -> int:
        return self.features.shape[0]


# Bound on the bytes of one row chunk of a blobs draw: a chunk stays in
# cache while its centers are added, and dropped rows cost one chunk.
_CHUNK_BYTES = 1 << 20


def synth_blobs(
    samples: int,
    features: int,
    class_count: int,
    separation: float,
    seed: int | np.random.Generator,
    *,
    skip: int = 0,
    split: int | None = None,
) -> Dataset | tuple[Dataset, Dataset]:
    """Gaussian class clusters at random unit directions scaled by ``separation``.

    Labels are assigned round-robin, so class priors are uniform to
    within one sample. The noise is drawn in row chunks of at most
    ``_CHUNK_BYTES`` straight into the returned arrays; the first ``skip``
    rows are drawn into one reused chunk and dropped. With ``split``, the
    kept rows come back as two datasets in separate arrays, the rows
    before ``split`` and those from it on.
    """
    if samples < class_count:
        raise ValueError("need at least one sample per class")
    if features < 1 or class_count < 2:
        raise ValueError("invalid dimensions")
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(class_count, features))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    centers = separation * directions
    step = max(1, _CHUNK_BYTES // (8 * features))
    dropped = np.empty((min(step, skip), features))
    for first in range(0, skip, step):
        rng.standard_normal(out=dropped[: skip - first])
    cuts = [skip, samples] if split is None else [skip, split, samples]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        points = np.empty((hi - lo, features))
        for first in range(lo, hi, step):
            chunk = points[first - lo : first - lo + step]
            rng.standard_normal(out=chunk)
            for c in range(class_count):  # row i is of class i % class_count
                chunk[(c - first) % class_count :: class_count] += centers[c]
        parts.append(Dataset(points, np.arange(lo, hi) % class_count, class_count))
    return parts[0] if split is None else tuple(parts)


def _read_exact(fh: BinaryIO, count: int, offset: int, path: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise IdxFormatError(
            f"{path}: truncated at byte offset {offset}: "
            f"wanted {count} bytes, got {len(data)}"
        )
    return data


def _open_maybe_gzip(path: str | Path) -> BinaryIO:
    fh = open(path, "rb")
    head = fh.read(2)
    fh.seek(0)
    if head == b"\x1f\x8b":
        return gzip.open(fh, "rb")  # type: ignore[return-value]
    return fh


def load_idx(
    images_path: str | Path,
    labels_path: str | Path,
    *,
    class_count: int | None = None,
) -> Dataset:
    """Load an image/label pair of IDX containers (plain or gzipped).

    Pixels are scaled to [0, 1] and flattened to one row per image. The
    two files' record counts are cross-checked.
    """
    with _open_maybe_gzip(images_path) as fh:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(fh, 16, 0, str(images_path))
        )
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad image magic 0x{magic:08x} at byte offset 0"
            )
        pixels = _read_exact(fh, count * rows * cols, 16, str(images_path))
    with _open_maybe_gzip(labels_path) as fh:
        magic, label_count = struct.unpack(
            ">II", _read_exact(fh, 8, 0, str(labels_path))
        )
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x} at byte offset 0"
            )
        raw_labels = _read_exact(fh, label_count, 8, str(labels_path))
    if label_count != count:
        raise IdxFormatError(
            f"{labels_path}: {label_count} labels but {images_path} holds "
            f"{count} images"
        )
    features = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    inferred = int(labels.max()) + 1 if label_count else 0
    return Dataset(
        features.reshape(count, rows * cols),
        labels,
        class_count if class_count is not None else max(inferred, 2),
    )


@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of dataset row indices to participants."""

    assignment: dict[int, np.ndarray]

    def participants(self) -> list[int]:
        return sorted(self.assignment)


def _check_partition(assignment: dict[int, np.ndarray], n: int) -> None:
    combined = np.concatenate([assignment[pid] for pid in sorted(assignment)])
    if len(combined) != n or len(np.unique(combined)) != n:
        raise AssertionError("assignment is not a partition of the dataset")


def partition_iid(
    dataset: Dataset, participants: int, seed: int | np.random.Generator
) -> PartitionPlan:
    """Uniform shuffle followed by contiguous near-equal splits."""
    n = len(dataset)
    if participants < 1 or participants > n:
        raise ValueError(f"cannot split {n} samples across {participants} participants")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    pieces = np.array_split(order, participants)
    assignment = {pid: piece for pid, piece in enumerate(pieces)}
    _check_partition(assignment, n)
    return PartitionPlan(assignment)


def partition_noniid_shards(
    dataset: Dataset,
    participants: int,
    shards_per_participant: int,
    seed: int | np.random.Generator,
) -> PartitionPlan:
    """Label-sorted shards dealt randomly, a fixed number per participant.

    Each participant then sees at most ``shards_per_participant`` runs of
    consecutive labels, which skews local label distributions.
    """
    n = len(dataset)
    shard_count = participants * shards_per_participant
    if n % shard_count != 0:
        raise ValueError(f"shard_count {shard_count} does not divide {n} samples")
    rng = np.random.default_rng(seed)
    order = np.argsort(dataset.labels, kind="stable")
    shards = order.reshape(shard_count, n // shard_count)
    dealt = rng.permutation(shard_count)
    assignment = {
        pid: np.concatenate(
            shards[dealt[pid * shards_per_participant : (pid + 1) * shards_per_participant]]
        )
        for pid in range(participants)
    }
    _check_partition(assignment, n)
    return PartitionPlan(assignment)


@dataclass(frozen=True)
class LabelFlipSpec:
    """Relabel a fraction of each affected participant's samples."""

    affected: frozenset[int]
    flip_ratio: float

    def __post_init__(self) -> None:
        if not 0 < self.flip_ratio <= 1:
            raise ValueError(f"flip_ratio must lie in (0, 1], got {self.flip_ratio}")


@dataclass(frozen=True)
class BackdoorSpec:
    """Stamp a trigger pattern and retarget labels on a per-batch quota.

    ``mix_per_batch`` poisoned samples per ``batch_size`` window of each
    affected participant's shard.
    """

    affected: frozenset[int]
    trigger_indices: tuple[int, ...]
    trigger_value: float
    target_label: int
    mix_per_batch: int
    batch_size: int

    def __post_init__(self) -> None:
        if self.mix_per_batch < 1 or self.batch_size < 1:
            raise ValueError("mix_per_batch and batch_size must be positive")
        if self.mix_per_batch > self.batch_size:
            raise ValueError("mix_per_batch cannot exceed batch_size")


def _check_affected(plan: PartitionPlan, affected: frozenset[int]) -> None:
    unknown = affected - set(plan.assignment)
    if unknown:
        raise ValueError(f"affected participants not in partition: {sorted(unknown)}")


def flip_labels(
    dataset: Dataset,
    plan: PartitionPlan,
    spec: LabelFlipSpec,
    seed: int | np.random.Generator,
) -> Dataset:
    """Reassign a ``flip_ratio`` fraction of each affected shard's labels
    uniformly to a different class. Exactly ``floor(ratio * shard)`` labels
    change per affected participant; other shards are untouched."""
    _check_affected(plan, spec.affected)
    rng = np.random.default_rng(seed)
    labels = dataset.labels.copy()
    for pid in sorted(spec.affected):
        indices = plan.assignment[pid]
        flip_count = int(len(indices) * spec.flip_ratio)
        if flip_count == 0:
            continue
        chosen = indices[rng.choice(len(indices), size=flip_count, replace=False)]
        offsets = rng.integers(1, dataset.class_count, size=flip_count)
        labels[chosen] = (labels[chosen] + offsets) % dataset.class_count
    return Dataset(dataset.features, labels, dataset.class_count)


def _trigger_columns(dataset: Dataset, spec: BackdoorSpec) -> np.ndarray:
    """The trigger's feature columns, each checked to lie in ``dataset``."""
    columns = np.asarray(spec.trigger_indices, dtype=np.int64)
    if columns.size and (columns.min() < 0 or columns.max() >= dataset.features.shape[1]):
        raise ValueError("trigger indices fall outside the feature dimensions")
    return columns


def implant_backdoor(
    dataset: Dataset,
    plan: PartitionPlan,
    spec: BackdoorSpec,
    seed: int | np.random.Generator,
) -> Dataset:
    """Poison affected shards: in every ``batch_size`` window (after an
    in-shard shuffle) the first ``mix_per_batch`` samples get the trigger
    stamped onto their features and their label set to the target."""
    _check_affected(plan, spec.affected)
    columns = _trigger_columns(dataset, spec)
    rng = np.random.default_rng(seed)
    features = dataset.features.copy()
    labels = dataset.labels.copy()
    for pid in sorted(spec.affected):
        indices = plan.assignment[pid].copy()
        rng.shuffle(indices)
        for start in range(0, len(indices), spec.batch_size):
            hit = indices[start : start + spec.batch_size][: spec.mix_per_batch]
            if columns.size:
                features[np.ix_(hit, columns)] = spec.trigger_value
            labels[hit] = spec.target_label
    return Dataset(features, labels, dataset.class_count)


def triggered_test_set(dataset: Dataset, spec: BackdoorSpec) -> Dataset:
    """Copy of ``dataset`` with the trigger stamped on every sample and all
    labels set to the target, for measuring attack success."""
    columns = _trigger_columns(dataset, spec)
    features = dataset.features.copy()
    if columns.size:
        features[:, columns] = spec.trigger_value
    labels = np.full(len(dataset), spec.target_label, dtype=np.int64)
    return Dataset(features, labels, dataset.class_count)
