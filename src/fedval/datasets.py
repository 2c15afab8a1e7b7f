"""Dataset construction, participant partitioning, and corruption injection."""

from __future__ import annotations

import functools
import gzip
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Sequence

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
    out: np.ndarray | None = None,
    deferred: Sequence[np.ndarray] = (),
) -> Dataset | tuple[Dataset, list[Redraw], Callable[[], Dataset]]:
    """Gaussian class clusters at random unit directions scaled by ``separation``.

    Labels are assigned round-robin, so class priors are uniform to
    within one sample. Only the rows ``held`` (ascending row indices; all
    rows by default) come back, bitwise as one full draw gives them, in
    ``out`` when it is given. The noise is drawn in row chunks of at most
    ``_CHUNK_BYTES``, each cut into pieces of consecutive rows of one kind:
    held rows are drawn straight into their rows, other rows into one
    reused buffer and dropped. Each array of ``deferred`` (ascending rows,
    apart from ``held`` and from each other) is dropped too, but the
    generator's state is recorded at each of its pieces, so that its
    ``Redraw`` draws those rows again, bitwise, into the slots a caller
    gives it. With ``split``, ``held`` and ``deferred`` index the rows
    before ``split``, and the call returns the held rows, the redraws in
    ``deferred``'s order, and all rows from ``split`` on as a cached
    callable that draws them on its first call, continuing the generator
    where the first part stopped, into separate arrays.
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
    # Redraws rebuild each recorded state from this one: a blobs draw
    # takes 64-bit outputs only, so only the 128-bit state moves.
    template = rng.bit_generator.state

    def rows(
        lo: int, hi: int, index: np.ndarray, points: np.ndarray | None,
        deferred: Sequence[np.ndarray],
    ) -> tuple[Dataset, list[Redraw]]:
        # Rows ``index`` of the generator's next rows lo..hi, into
        # ``points`` or a new array.
        nonlocal dropped
        if points is None:
            points = np.empty((len(index), features))
        elif points.shape != (len(index), features):
            raise ValueError(f"out has shape {points.shape}, not one row per held row")
        # Each row's kind: 0 held, g + 1 in deferred[g], -1 dropped.
        kind = np.full(hi - lo, -1, np.int32)
        kind[index - lo] = 0
        for g, group in enumerate(deferred):
            kind[group - lo] = g + 1
        runs: list[list[tuple[int, int, int]]] = [[] for _ in deferred]
        filled = 0
        for first in range(lo, hi, step):
            last = min(first + step, hi)
            part = kind[first - lo : last - lo]
            cuts = [first, *(np.flatnonzero(part[1:] != part[:-1]) + first + 1).tolist(), last]
            for start, stop in zip(cuts, cuts[1:]):
                g = part[start - first]
                if g == 0:
                    _draw_rows(rng, points[filled : filled + stop - start], start, centers)
                    filled += stop - start
                    continue
                if g > 0:
                    runs[g - 1].append((start, stop, rng.bit_generator.state["state"]["state"]))
                if len(dropped) < stop - start:
                    dropped = np.empty((stop - start, features))
                rng.standard_normal(out=dropped[: stop - start])
        redraws = [Redraw(template, group, centers) for group in runs]
        return Dataset(points, index % class_count, class_count), redraws

    head, redraws = rows(0, end, index, out, deferred)
    if split is None:
        return head
    tail = functools.partial(rows, split, samples, np.arange(split, samples), None, ())
    return head, redraws, functools.cache(lambda: tail()[0])


def _draw_rows(rng: np.random.Generator, piece: np.ndarray, start: int, centers: np.ndarray) -> None:
    """Rows ``start`` on of a blobs draw into ``piece``: the generator's
    next noise, plus each row's class center."""
    rng.standard_normal(out=piece)
    class_count = len(centers)
    # Row start + k is of class (start + k) % class_count.
    for k in range(min(class_count, len(piece))):
        piece[k::class_count] += centers[(start + k) % class_count]


@dataclass(frozen=True)
class Redraw:
    """Rows of a blobs draw that were dropped when it was made, drawn
    again on demand: ``runs`` holds, per piece of consecutive rows, its
    first and end row and the generator's 128-bit state where it began."""

    template: dict
    runs: list[tuple[int, int, int]]
    centers: np.ndarray

    def __call__(self, out: np.ndarray, slots: np.ndarray) -> None:
        """Draw the rows, in ascending order, into ``out[slots]``."""
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)
        scratch = np.empty((max(stop - start for start, stop, _ in self.runs), out.shape[1]))
        inc = self.template["state"]["inc"]
        at = 0
        for start, stop, state in self.runs:
            bit_generator.state = {**self.template, "state": {"state": state, "inc": inc}}
            piece = scratch[: stop - start]
            _draw_rows(rng, piece, start, self.centers)
            out[slots[at : at + stop - start]] = piece
            at += stop - start


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

    def scaler(self, index: np.ndarray) -> Callable[[np.ndarray, np.ndarray], None]:
        """The images at ``index``, kept raw (1 B a pixel), as a callable
        that scales them, as ``rows`` does, into ``out[slots]``."""
        return functools.partial(_scale_into, self.pixels[index])


def _scale_into(pixels: np.ndarray, out: np.ndarray, slots: np.ndarray) -> None:
    # In row chunks, so that no scaled copy of all the rows is made.
    step = max(1, _CHUNK_BYTES // (8 * pixels.shape[1]))
    for first in range(0, len(pixels), step):
        out[slots[first : first + step]] = pixels[first : first + step] / 255.0


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
# place only the labels of the rows ``held`` (ascending row indices of the
# dataset that ``plan`` partitions): ``labels[i]`` is row ``held[i]``'s.


def flip_labels(
    labels: np.ndarray,
    class_count: int,
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
        offsets = rng.integers(1, class_count, size=flip_count)
        at, ok = _held_positions(held, chosen)
        rows = at[ok]
        labels[rows] = (labels[rows] + offsets[ok]) % class_count


def _trigger_columns(width: int, corruption: BackdoorConfig) -> np.ndarray:
    """The trigger's feature columns, refused past a ``width``-feature row."""
    columns = np.asarray(corruption.trigger_indices, dtype=np.int64)
    if columns.size and columns.max() >= width:
        raise ValueError("trigger indices fall outside the feature dimensions")
    return columns


def implant_backdoor(
    labels: np.ndarray,
    class_count: int,
    plan: PartitionPlan,
    corruption: BackdoorConfig,
    seed: int | np.random.Generator,
    held: np.ndarray,
) -> np.ndarray:
    """Poison the shards of ``corruption.affected``: in every
    ``poison_batch_size`` window (after an in-shard shuffle) the first
    ``mix_per_batch`` samples get their label set to ``target_label``.
    Returns their positions in ``held``, whose features ``stamp_trigger``
    then stamps, once they are drawn."""
    affected = _check_affected(plan, corruption)
    if corruption.target_label >= class_count:
        raise ValueError("target_label must be below the dataset's class count")
    rng = np.random.default_rng(seed)
    poisoned = [np.empty(0, np.int64)]
    for pid in affected:
        indices = plan.assignment[pid].copy()
        rng.shuffle(indices)
        at, ok = _held_positions(held, indices)
        for start in range(0, len(indices), corruption.poison_batch_size):
            # The section holds mix_per_batch to at most poison_batch_size.
            window = slice(start, start + corruption.mix_per_batch)
            hit = at[window][ok[window]]
            labels[hit] = corruption.target_label
            poisoned.append(hit)
    return np.concatenate(poisoned)


def stamp_trigger(features: np.ndarray, rows: np.ndarray, corruption: BackdoorConfig) -> None:
    """Stamp the trigger onto ``features[rows]``, refused past its width."""
    columns = _trigger_columns(features.shape[1], corruption)
    if columns.size:
        features[np.ix_(rows, columns)] = corruption.trigger_value


def triggered_test_set(dataset: Dataset, corruption: BackdoorConfig) -> Dataset:
    """Copy of ``dataset`` with the trigger stamped on every sample and all
    labels set to the target, for measuring attack success."""
    columns = _trigger_columns(dataset.features.shape[1], corruption)
    features = dataset.features.copy()
    if columns.size:
        features[:, columns] = corruption.trigger_value
    labels = np.full(len(dataset), corruption.target_label, dtype=np.int64)
    return Dataset(features, labels, dataset.class_count)


class TrainingRows:
    """The training rows of every participant a schedule selects, each held
    only from its first round to its last, in one arena of row slots.

    A run trains ``passes`` passes of ``schedule`` (each round's selected
    ids) in turn: one for a run that trains once, two for one that then
    replays its rounds in a retrain grid, so that a participant's last
    round is in the grid. ``held`` are the scheduled participants' rows
    (ascending indices into the training split) and ``labels`` theirs
    (8 B a row), so that a corruption can change them before any feature
    row is drawn. The arena is allocated once, sized to
    the most rows that are held at once. A participant's rows enter when
    its first round opens, or at round 0 where the arena has room for them
    until then anyway (every row, with a retrain grid). They take the
    lowest free slots, ascending row by row, and they are freed when its
    last round closes; once the run's last round closes, the arena is
    released.

    ``entering`` holds the rows that enter at each round that has any, in
    round order. ``entering[0]`` enters at round 0 and takes the first
    slots, so its rows are drawn straight into ``features[:len(entering[0])]``
    before round 0 opens; each later entry is drawn by the callable
    ``fill_later`` registers for it. Labels, and a trigger that ``stamp``
    registers, are written into a participant's slots as it enters;
    ``held`` and ``labels`` are let go once every participant has entered.
    """

    def __init__(
        self,
        plan: PartitionPlan,
        schedule: Sequence[tuple[int, ...]],
        passes: int,
        labels: np.ndarray,
        n_features: int,
        class_count: int,
    ) -> None:
        self.plan = plan
        self._rounds = len(schedule)
        self._positions = len(schedule) * passes
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for position, selected in enumerate(list(schedule) * passes):
            for pid in selected:
                first.setdefault(pid, position)
                last[pid] = position
        self.held = np.sort(np.concatenate([plan.assignment[pid] for pid in first]))
        self.labels = labels[self.held]
        # Rows held while each position trains, each participant's from its
        # first position through its last.
        alive = np.zeros(self._positions, np.int64)
        for pid in first:
            alive[first[pid] : last[pid] + 1] += len(plan.assignment[pid])
        capacity = int(alive.max())
        # A participant enters at round 0 where the arena has room for it
        # until its first round anyway: its rows are then drawn in the one
        # pass and never again. With a retrain grid every row has room.
        for pid in sorted(first, key=first.__getitem__):
            if (alive[: first[pid]] + len(plan.assignment[pid]) <= capacity).all():
                alive[: first[pid]] += len(plan.assignment[pid])
                first[pid] = 0
        arriving: dict[int, list[int]] = {}
        self._leaving: dict[int, list[int]] = {}
        for pid in sorted(first):
            arriving.setdefault(first[pid], []).append(pid)
            self._leaving.setdefault(last[pid], []).append(pid)
        self._arriving = {
            position: (np.sort(np.concatenate([plan.assignment[pid] for pid in pids])), pids)
            for position, pids in sorted(arriving.items())
        }
        # Zeros, so that the slots no participant has entered yet are valid rows.
        self.features: np.ndarray | None = np.zeros((capacity, n_features))
        self._data: Dataset | None = Dataset(self.features, np.zeros(capacity, np.int64), class_count)
        self._free = np.arange(capacity)
        self._shards: dict[int, np.ndarray] = {}
        self._fills: dict[int, Callable[[np.ndarray, np.ndarray], None]] = {}
        self._trigger: tuple[np.ndarray, BackdoorConfig] | None = None
        self._position = 0

    def participants(self) -> list[int]:
        return self.plan.participants()

    @property
    def entering(self) -> list[np.ndarray]:
        """The ascending rows that enter at each round still to open that
        has any, in round order."""
        return [rows for rows, _ in self._arriving.values()]

    def fill_later(self, fills: Sequence[Callable[[np.ndarray, np.ndarray], None]]) -> None:
        """Draw ``entering[i + 1]`` with ``fills[i]``, called as
        ``fill(features, slots)`` to write those rows, ascending, into
        ``features[slots]`` when they enter."""
        self._fills = dict(zip(list(self._arriving)[1:], fills, strict=True))

    def stamp(self, positions: np.ndarray, corruption: BackdoorConfig) -> None:
        """Stamp ``corruption``'s trigger onto the rows ``held[positions]``
        as they enter; a trigger past the rows' width is refused here."""
        _trigger_columns(self.features.shape[1], corruption)
        stamped = np.zeros(len(self.held), bool)
        stamped[positions] = True
        self._trigger = stamped, corruption

    def open_round(self, round_index: int) -> tuple[Dataset, dict[int, np.ndarray]]:
        """The arena and each held participant's shard, as its slots in
        shard order, for the next round of the run, which must be round
        ``round_index``; the participants that enter at it enter first."""
        position = self._position
        if self._data is None:
            raise ValueError("the training rows were already released")
        if round_index != position % self._rounds:
            raise ValueError(
                f"round {round_index} opened where round {position % self._rounds} is next"
            )
        if position in self._arriving:
            rows, pids = self._arriving.pop(position)
            # A copy, so that the rest does not keep every slot's index alive.
            slots, self._free = self._free[: len(rows)], self._free[len(rows) :].copy()
            if position in self._fills:
                self._fills.pop(position)(self._data.features, slots)
            at = np.searchsorted(self.held, rows)
            self._data.labels[slots] = self.labels[at]
            if self._trigger is not None:
                stamped, corruption = self._trigger
                stamp_trigger(self._data.features, slots[stamped[at]], corruption)
            for pid in pids:
                self._shards[pid] = slots[np.searchsorted(rows, self.plan.assignment[pid])]
            if not self._arriving:  # every participant has entered
                self.held = self.labels = self._trigger = None
        return self._data, self._shards

    def close_round(self) -> None:
        """End the open round: free the slots of the participants whose last
        round it was, and release the arena after the run's last round."""
        freed = [self._shards.pop(pid) for pid in self._leaving.pop(self._position, ())]
        if freed:
            self._free = np.sort(np.concatenate([self._free, *freed]))
        self._position += 1
        if self._position == self._positions:
            self.features = self._data = self._free = None
