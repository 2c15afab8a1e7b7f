"""Dataset construction, participant partitioning, and corruption injection."""

from __future__ import annotations

import functools
import gzip
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable

import numpy as np

if TYPE_CHECKING:  # config imports engine, which imports this module
    from .config import BackdoorConfig, LabelFlipConfig

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
    held: np.ndarray | None = None,
    split: int | None = None,
) -> Dataset | tuple[Dataset, Callable[[], Dataset]]:
    """Gaussian class clusters at random unit directions scaled by ``separation``.

    Labels are assigned round-robin, so class priors are uniform to
    within one sample. Only the rows ``held`` (ascending row indices; all
    rows by default) come back, bitwise as one full draw gives them. The
    noise is drawn in row chunks of at most ``_CHUNK_BYTES``, runs of held
    rows straight into the returned arrays, other rows into one reused
    buffer and dropped. With ``split``, ``held`` indexes the rows before
    ``split``, and all rows from it on come back as a cached callable that
    draws them on its first call, continuing the generator where the first
    part stopped, into separate arrays.
    """
    if samples < class_count:
        raise ValueError("need at least one sample per class")
    if features < 1 or class_count < 2:
        raise ValueError("invalid dimensions")
    end = samples if split is None else split
    index = np.arange(end) if held is None else np.asarray(held, dtype=np.int64)
    if split is not None and not 0 < split < samples:
        raise ValueError("every part needs at least one row")
    if not len(index) or index[0] < 0 or index[-1] >= end or (np.diff(index) <= 0).any():
        raise ValueError("held must name at least one row of the part, ascending")
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(class_count, features))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    centers = separation * directions
    step = max(1, _CHUNK_BYTES // (8 * features))
    dropped = np.empty((0, features))

    def rows(lo: int, hi: int, index: np.ndarray) -> Dataset:
        # Rows ``index`` of the generator's next rows lo..hi.
        nonlocal dropped
        points = np.empty((len(index), features))
        for first in range(lo, hi, step):
            last = min(first + step, hi)
            a, b = np.searchsorted(index, (first, last))
            kept = index[a:b]
            # Cut the chunk at each end of a run of held rows, so that each
            # piece is held whole, drawn straight into its rows, or dropped.
            runs = np.flatnonzero(np.diff(kept) != 1) + 1
            ends = (kept[np.r_[0, runs]], kept[np.r_[runs - 1, -1]] + 1) if b > a else ()
            cuts = np.sort(np.concatenate(([first], *ends, [last])))
            at = (np.searchsorted(kept, cuts) + a).tolist()
            for start, stop, i, j in zip(cuts.tolist(), cuts[1:].tolist(), at, at[1:]):
                if j > i:
                    piece = points[i:j]
                    rng.standard_normal(out=piece)
                    # Row start + k is of class (start + k) % class_count.
                    for k in range(min(class_count, j - i)):
                        piece[k::class_count] += centers[(start + k) % class_count]
                elif stop > start:
                    if len(dropped) < stop - start:
                        dropped = np.empty((stop - start, features))
                    rng.standard_normal(out=dropped[: stop - start])
        return Dataset(points, index % class_count, class_count)

    if split is None:
        return rows(0, samples, index)
    head = rows(0, split, index)
    tail = functools.partial(rows, split, samples, np.arange(split, samples))
    return head, functools.cache(tail)


def _read_exact(fh: BinaryIO, count: int, offset: int, path: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise IdxFormatError(
            f"{path}: truncated at byte offset {offset}: "
            f"wanted {count} bytes, got {len(data)}"
        )
    return data


def _open_maybe_gzip(path: str | Path) -> BinaryIO:
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")  # type: ignore[return-value]
    return open(path, "rb")


@dataclass(frozen=True)
class IdxImages:
    """An IDX image/label pair as stored: one row of raw uint8 pixels per
    image, so that only the rows a caller keeps are ever scaled."""

    pixels: np.ndarray
    labels: np.ndarray
    class_count: int

    def __len__(self) -> int:
        return len(self.labels)

    def rows(self, index: np.ndarray | slice) -> Dataset:
        """The images at ``index``, pixels scaled to [0, 1]."""
        features = self.pixels[index].astype(np.float64)
        features /= 255.0
        return Dataset(features, self.labels[index], self.class_count)


def read_idx(
    images_path: str | Path,
    labels_path: str | Path,
    *,
    class_count: int | None = None,
) -> IdxImages:
    """Read an image/label pair of IDX containers (plain or gzipped).

    Images are flattened to one row each. The two files' record counts
    are cross-checked, and so is every label against ``class_count`` when
    it is given.
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
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    inferred = int(labels.max()) + 1 if label_count else 0
    if class_count is not None and inferred > class_count:
        raise ValueError(
            f"{labels_path}: holds label {inferred - 1}, but class_count is {class_count}"
        )
    return IdxImages(
        np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols),
        labels,
        class_count if class_count is not None else max(inferred, 2),
    )


def _held_positions(held: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``rows`` sits in ``held`` (ascending row indices), and
    whether ``held`` holds it there."""
    at = np.minimum(np.searchsorted(held, rows), len(held) - 1)
    return at, held[at] == rows


@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of dataset row indices to participants."""

    assignment: dict[int, np.ndarray]

    def participants(self) -> list[int]:
        return sorted(self.assignment)

    def over(self, held: np.ndarray) -> PartitionPlan:
        """The plan over a dataset of the rows ``held`` (ascending row
        indices): each shard as the positions there of its held rows, in
        shard order; every participant keeps its id."""
        positions = {pid: _held_positions(held, rows) for pid, rows in self.assignment.items()}
        return PartitionPlan({pid: at[ok] for pid, (at, ok) in positions.items()})


def _check_partition(assignment: dict[int, np.ndarray], n: int) -> None:
    combined = np.concatenate([assignment[pid] for pid in sorted(assignment)])
    # Sorted, a partition of 0..n-1 is exactly arange(n); np.unique would
    # also import numpy.ma, a cost every run would pay.
    if not np.array_equal(np.sort(combined), np.arange(n)):
        raise AssertionError("assignment is not a partition of the dataset")


def partition_iid(
    labels: np.ndarray, participants: int, seed: int | np.random.Generator
) -> PartitionPlan:
    """Uniform shuffle of the rows of ``labels`` followed by contiguous
    near-equal splits."""
    n = len(labels)
    if participants < 1 or participants > n:
        raise ValueError(f"cannot split {n} samples across {participants} participants")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    pieces = np.array_split(order, participants)
    assignment = {pid: piece for pid, piece in enumerate(pieces)}
    _check_partition(assignment, n)
    return PartitionPlan(assignment)


def partition_noniid_shards(
    labels: np.ndarray,
    participants: int,
    shards_per_participant: int,
    seed: int | np.random.Generator,
) -> PartitionPlan:
    """Label-sorted shards of the rows of ``labels`` dealt randomly, a
    fixed number per participant.

    Each participant then sees at most ``shards_per_participant`` runs of
    consecutive labels, which skews local label distributions.
    """
    n = len(labels)
    shard_count = participants * shards_per_participant
    if n % shard_count != 0:
        raise ValueError(f"shard_count {shard_count} does not divide {n} samples")
    rng = np.random.default_rng(seed)
    order = np.argsort(labels, kind="stable")
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


def _check_affected(
    plan: PartitionPlan, corruption: LabelFlipConfig | BackdoorConfig
) -> list[int]:
    """The section's participant ids in ascending order, refused while only
    ``affected_count`` is set or if one is not in ``plan``."""
    if corruption.affected is None:
        raise ValueError("corruption.affected: unresolved; name the participants")
    unknown = set(corruption.affected) - set(plan.assignment)
    if unknown:
        raise ValueError(f"affected participants not in partition: {sorted(unknown)}")
    return sorted(corruption.affected)


# The corruptions below draw from their generator exactly as over the
# whole partitioned dataset, participant by participant, and change in
# place only the rows that ``data`` holds: ``data`` holds the rows
# ``held`` (ascending row indices) of the dataset that ``plan`` partitions.


def flip_labels(
    data: Dataset,
    plan: PartitionPlan,
    corruption: LabelFlipConfig,
    seed: int | np.random.Generator,
    held: np.ndarray,
) -> None:
    """Reassign a ``flip_ratio`` fraction of each affected shard's labels
    uniformly to a different class. Exactly ``floor(ratio * shard)`` labels
    change per affected participant; other shards are untouched."""
    affected = _check_affected(plan, corruption)
    rng = np.random.default_rng(seed)
    for pid in affected:
        indices = plan.assignment[pid]
        flip_count = int(len(indices) * corruption.flip_ratio)
        if flip_count == 0:
            continue
        chosen = indices[rng.choice(len(indices), size=flip_count, replace=False)]
        offsets = rng.integers(1, data.class_count, size=flip_count)
        at, ok = _held_positions(held, chosen)
        rows = at[ok]
        data.labels[rows] = (data.labels[rows] + offsets[ok]) % data.class_count


def _trigger_columns(dataset: Dataset, corruption: BackdoorConfig) -> np.ndarray:
    """The trigger's feature columns, refused past ``dataset``'s width."""
    columns = np.asarray(corruption.trigger_indices, dtype=np.int64)
    if columns.size and columns.max() >= dataset.features.shape[1]:
        raise ValueError("trigger indices fall outside the feature dimensions")
    return columns


def implant_backdoor(
    data: Dataset,
    plan: PartitionPlan,
    corruption: BackdoorConfig,
    seed: int | np.random.Generator,
    held: np.ndarray,
) -> None:
    """Poison the shards of ``corruption.affected``: in every
    ``poison_batch_size`` window (after an in-shard shuffle) the first
    ``mix_per_batch`` samples get the trigger stamped onto their features
    and their label set to ``target_label``."""
    affected = _check_affected(plan, corruption)
    columns = _trigger_columns(data, corruption)
    if corruption.target_label >= data.class_count:
        raise ValueError("target_label must be below the dataset's class count")
    rng = np.random.default_rng(seed)
    for pid in affected:
        indices = plan.assignment[pid].copy()
        rng.shuffle(indices)
        at, ok = _held_positions(held, indices)
        for start in range(0, len(indices), corruption.poison_batch_size):
            # The section holds mix_per_batch to at most poison_batch_size.
            window = slice(start, start + corruption.mix_per_batch)
            hit = at[window][ok[window]]
            if columns.size:
                data.features[np.ix_(hit, columns)] = corruption.trigger_value
            data.labels[hit] = corruption.target_label


def triggered_test_set(dataset: Dataset, corruption: BackdoorConfig) -> Dataset:
    """Copy of ``dataset`` with the trigger stamped on every sample and all
    labels set to the target, for measuring attack success."""
    columns = _trigger_columns(dataset, corruption)
    features = dataset.features.copy()
    if columns.size:
        features[:, columns] = corruption.trigger_value
    labels = np.full(len(dataset), corruption.target_label, dtype=np.int64)
    return Dataset(features, labels, dataset.class_count)
