"""Simulated synchronous federated training with replayable round records.

Each round samples participants, runs their local updates from the
current global model, and averages the results into the next global
model. Everything needed to value the run afterwards is captured in
round records: the incoming global model, every participant update, and
the outgoing average. Valuation replays these records; it never touches
the training trajectory.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import re
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .datasets import Dataset
from .estimators import (
    ApproxParams,
    group_testing_round,
    permutation_sampling_round,
    round_plan,
)
from .models import (
    ModelLayout,
    accuracy,
    count_label_at_max,
    init_params,
    logits,
    loss_and_gradient,
    mlp_logits_into,
)
from .seeding import substream
from .values import (
    ValuationReport,
    ValueVector,
    build_report,
    exact_federated_round_shapley,
    federated_loo_round,
    mask_bits,
)

if TYPE_CHECKING:  # config imports this module
    from .config import TrainingConfig

SNAPSHOT_MAGIC = b"FEDVALRND1\n"

VALUATION_METHODS = ("exact", "permutation", "group_testing", "loo")


class TrainingError(RuntimeError):
    """Local training produced non-finite parameters."""


class HistoryMismatchError(ValueError):
    """A utility query names a round or participants the run did not record."""


class SnapshotFormatError(ValueError):
    """A round snapshot file is malformed."""


@dataclass
class RoundRecord:
    """Frozen state of one round: incoming model, updates, outgoing average.

    ``selected`` is ascending, and row ``b`` of the (len(selected), P)
    ``updates`` is ``selected[b]``'s: the participant bit ``b`` of a mask
    selects."""

    round_index: int
    global_before: np.ndarray
    selected: tuple[int, ...]
    updates: np.ndarray
    global_after: np.ndarray


def round_size(participant_fraction: float, participant_count: int) -> int:
    """Participants drawn per round: the fraction rounded up, at least one."""
    return max(1, min(participant_count, math.ceil(participant_fraction * participant_count - 1e-9)))


def initial_model(cfg: TrainingConfig) -> np.ndarray:
    """The global model every run of ``cfg`` starts from."""
    return init_params(cfg.layout, substream(cfg.seed, "init"), cfg.init_scale)


# Bound on the bytes one lockstep call works in (see ``_row_bytes``):
# ``_train_jobs`` trains each group of equal shard sizes in slices of rows
# that fit it, so every call, in a training round and in a retrain round,
# stacks at most one slice. Narrow models fit a whole round in one slice;
# a 784-feature model with 50-sample minibatches trains 3 rows per slice.
# ``_advance_grid`` still batches incoming models by the same bound,
# because the updates and incoming models a batch holds until its
# children are averaged are not part of any one call.
_SLICE_BYTES = 4 << 20


def _row_bytes(cfg: TrainingConfig) -> int:
    """Bytes one training row works in during a lockstep step: three
    parameter-sized arrays (start, trained copy, gradient, which is scaled
    in place) and, per minibatch sample, a few copies of its features and
    activations."""
    layout = cfg.layout
    per_sample = 3 * (layout.n_features + layout.hidden_units + layout.n_classes)
    return 8 * (3 * layout.param_count + cfg.batch_size * per_sample)


def _lockstep_sgd(
    thetas: np.ndarray,
    owners: Sequence[int],
    features: np.ndarray,
    labels: np.ndarray,
    shards: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    cfg: TrainingConfig,
    round_index: int,
) -> np.ndarray:
    """Local mini-batch SGD of k parameter rows over g equal-sized shards,
    each an array of row indices into ``features`` and ``labels``.

    Row i starts from ``thetas[i]`` and trains on ``shards[owners[i]]``;
    ``thetas`` is updated in place and returned. Shard j composes each
    per-epoch order it draws from ``rngs[j]`` with its indices once, and
    every row it owns shares those orders and one gathered minibatch. The
    rows share a step schedule, so each step stacks every row's minibatch
    into one (k, b, d) array and takes one stacked gradient step. Features
    are gathered through the composed orders into reused buffers, never
    copied for whole shards; the (g, n) labels once per epoch, and each
    step's (k, b) labels from them. Every step writes its gradients into
    one (k, P) array of the call.
    """
    k, g = len(owners), len(shards)
    n, width = len(shards[0]), features.shape[1]
    if n == 0:
        raise ValueError("refusing to train on an empty shard")
    rate = cfg.learning_rate * cfg.lr_decay**round_index
    batch = min(cfg.batch_size, n)
    gathered = np.empty((g, batch, width), features.dtype)
    # Owners are numbered by first appearance, so k == g means one row each.
    rows = gathered if k == g else np.empty((k, batch, width), gathered.dtype)
    grads = np.empty_like(thetas)
    for _ in range(cfg.local_epochs):
        orders = [idx[rng.permutation(n)] for idx, rng in zip(shards, rngs)]
        epoch_labels = np.stack([labels[order] for order in orders])
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            # mode="clip" gathers straight into the buffers, where "raise"
            # would gather into a copy first; every index is in range.
            for buffer, order in zip(gathered, orders):
                np.take(
                    features, order[start:stop], axis=0, mode="clip", out=buffer[: stop - start]
                )
            step_labels = epoch_labels[:, start:stop]
            if k != g:
                np.take(
                    gathered[:, : stop - start], owners, axis=0, mode="clip",
                    out=rows[:, : stop - start],
                )
                step_labels = step_labels[owners]
            loss_and_gradient(
                cfg.layout, thetas, rows[:, : stop - start], step_labels, out=grads
            )
            # Scaled in place: the same IEEE products as ``rate * grads``,
            # in the one (k, P) gradient array of the call.
            np.multiply(grads, rate, out=grads)
            thetas -= grads
    return thetas


def _train_jobs(
    starts: np.ndarray,
    jobs: Sequence[tuple[int, int]],
    data: Dataset,
    shards: Mapping[int, np.ndarray],
    cfg: TrainingConfig,
    round_index: int,
) -> np.ndarray:
    """Local updates of round ``round_index`` for (start row, participant)
    jobs, as a (len(jobs), P) array in job order.

    Participant ``pid`` draws from ``substream(seed, "local", round_index,
    pid)``, so its update depends only on its incoming model. Jobs whose
    shards (row indices into ``data``) have equal sizes run the same step
    schedule and train in lockstep, in slices of rows that fit
    ``_SLICE_BYTES``.
    """
    groups: dict[int, list[int]] = {}
    for i, (_, pid) in enumerate(jobs):
        groups.setdefault(len(shards[pid]), []).append(i)
    step = max(1, _SLICE_BYTES // _row_bytes(cfg))
    trained = np.empty((len(jobs), starts.shape[1]))
    for group in groups.values():
        for first in range(0, len(group), step):
            rows = group[first : first + step]
            pids = list(dict.fromkeys(jobs[i][1] for i in rows))
            owner = {pid: j for j, pid in enumerate(pids)}
            trained[rows] = _lockstep_sgd(
                starts[[jobs[i][0] for i in rows]],
                [owner[jobs[i][1]] for i in rows],
                data.features,
                data.labels,
                [shards[pid] for pid in pids],
                [substream(cfg.seed, "local", round_index, pid) for pid in pids],
                cfg,
                round_index,
            )
    return trained


def _check_finite(theta: np.ndarray, round_index: int, participant_id: int | None) -> None:
    if not np.isfinite(theta).all():
        raise TrainingError(
            f"training diverged at round {round_index}, participant {participant_id}"
        )


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
    """Local mini-batch SGD from the global model on one shard, drawing
    its epoch orders from ``rng``."""
    start = np.array(global_params, dtype=np.float64)[None]
    rows = np.arange(len(labels))
    theta = _lockstep_sgd(start, [0], features, labels, [rows], [rng], cfg, round_index)[0]
    _check_finite(theta, round_index, participant_id)
    return theta


def train_round(
    global_params: np.ndarray,
    data: Dataset,
    shards: Mapping[int, np.ndarray],
    participants: Sequence[int],
    cfg: TrainingConfig,
    round_index: int,
) -> np.ndarray:
    """Every participant's local update in one round, as rows in the
    order of ``participants``: the one-model case of the lockstep kernel.
    A divergence names the first diverging participant in the given order.
    """
    start = np.asarray(global_params, dtype=np.float64)[None]
    thetas = _train_jobs(start, [(0, pid) for pid in participants], data, shards, cfg, round_index)
    for pid, theta in zip(participants, thetas):
        _check_finite(theta, round_index, pid)
    return thetas


def aggregate_subset(record: RoundRecord, subset: Iterable[int]) -> np.ndarray:
    """Average of the chosen participants' updates; the incoming global
    model when the subset is empty."""
    row_of = {pid: b for b, pid in enumerate(record.selected)}
    members = sorted(subset)
    unknown = [pid for pid in members if pid not in row_of]
    if unknown:
        raise ValueError(
            f"participants {unknown} were not selected in round {record.round_index}"
        )
    if not members:
        return record.global_before.copy()
    return record.updates[[row_of[pid] for pid in members]].mean(axis=0)


def evaluate_utility(
    layout: ModelLayout,
    params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
) -> float:
    """Accuracy of the model on a validation set, in [0, 1]."""
    if features.shape[0] == 0:
        raise ValueError("validation set must be nonempty")
    return accuracy(layout, params, features, labels)


# Bound on the bytes the stages of one slice of a round's MLP subset
# utilities write (see ``RoundOracle._subset_utilities``), per worker
# thread, which keeps its slices within its core's L2 cache (2 MB on the
# 2-core Xeon this was tuned on). A worker holds less: per mask of a slice
# an average and its scores, and one buffer that the gathered member rows,
# the hidden activations, and the argmax and hits take in turn. Results
# do not depend on it, nor on the number of workers. An eighth of it
# bounds one batch of logistic subset utilities
# (``_averaged_logits_utilities``), whose walk also holds the member
# logits and their partial sums: a whole slice per batch was no faster
# and raised peak memory.
_UTILITY_SLICE_BYTES = 2 << 20


class RoundOracle:
    """Utility of recorded training states under partial round aggregation.

    ``players(t)`` is round ``t``'s recorded ``selected``, which must be
    strictly ascending, so bit ``b`` of a mask selects row ``b`` of the
    round's ``updates``. ``evaluate_many(t, masks)`` gives the utilities
    of the recorded rounds before ``t`` followed by the members of round
    ``t`` that each mask selects, resolved against that round's stored
    updates (no retraining); ``evaluate(t, mask)`` is a batch of one.
    Results are kept in one cache, a pair of arrays per round: the masks
    computed so far, ascending (int64 below 64 players, Python ints from
    64 on, as ``mask_bits`` splits them), and their float64 utilities,
    16 B a utility below 64 players. A call looks its masks up by binary
    search and merges the ones it computes in. Caching is safe because
    evaluation is deterministic, so every value rule run on one oracle
    shares the utilities the others computed.

    Mask 0 is the stored incoming model and the full mask the stored
    outgoing one. ``evaluate_many`` hands all of a call's uncached proper
    subsets, ascending, to one kernel, chosen by architecture. Logits of a
    logistic model are affine in its parameters, so a proper subset's
    logits are the mean of its members' logits: those are computed once
    per call, held class-major and dropped when it returns. The call's
    masks are visited in bit-reversed order, so masks that share their low
    bits are adjacent and reuse one partial sum per depth over those
    members; each sum is still a left fold in bit (row) order, then
    divided by the member count. The averages are counted in batches of at
    most ``_UTILITY_SLICE_BYTES // 8`` bytes by ``count_label_at_max``,
    which takes a label score at its row's single maximum as a hit and
    falls back to argmax for a batch with a tie or NaN. The MLP
    averages the members' parameters instead, in one stacked kernel: for
    a slice of masks, each mask's member rows are gathered in bit order
    and summed row by row, and the slice's averages run one stacked
    forward pass. Slices are bounded by ``_UTILITY_SLICE_BYTES`` and run
    on one thread per CPU the process may use. Each thread holds the
    averages and scores of a slice, and one buffer that its stages share
    by lifetime: the gathered rows, then the hidden activations, then the
    argmax and hits. Each MLP utility is bitwise the accuracy of
    ``aggregate_subset``'s average, whichever thread runs it.
    """

    def __init__(
        self,
        layout: ModelLayout,
        records: Sequence[RoundRecord],
        features: np.ndarray,
        labels: np.ndarray,
    ) -> None:
        if not records:
            raise ValueError("at least one round record required")
        for position, record in enumerate(records):
            if record.round_index != position:
                raise ValueError("round records must be consecutive from round 0")
            ids = list(record.selected)
            if ids != sorted(set(ids)):
                raise ValueError(f"round {position}: selected {ids} is not strictly ascending")
            if np.shape(record.updates) != (len(ids), layout.param_count):
                raise ValueError(
                    f"round {position}: updates have shape {np.shape(record.updates)}, "
                    f"not one row of {layout.param_count} per selected participant"
                )
        if features.shape[0] == 0:
            raise ValueError("validation set must be nonempty")
        if features.ndim != 2 or features.shape[1] != layout.n_features:
            raise ValueError(
                f"validation features have shape {features.shape}; the layout "
                f"needs (n, {layout.n_features})"
            )
        if labels.shape != features.shape[:1]:
            raise ValueError(
                f"validation labels have shape {labels.shape}, features have "
                f"shape {features.shape}; one label per feature row required"
            )
        if labels.min() < 0 or labels.max() >= layout.n_classes:
            raise ValueError(f"validation labels must lie in [0, {layout.n_classes})")
        self._layout = layout
        self.records = list(records)
        self._features = features
        self._labels = labels
        # Per round: the masks evaluated so far, ascending, and their utilities.
        self._cache = [
            (np.empty(0, mask_bits(len(record.selected)).dtype), np.empty(0))
            for record in self.records
        ]

    def players(self, round_index: int) -> tuple[int, ...]:
        if not 0 <= round_index < len(self.records):
            raise HistoryMismatchError(
                f"round {round_index} was not recorded; the run has "
                f"{len(self.records)} rounds"
            )
        return self.records[round_index].selected

    def evaluate(self, round_index: int, mask: int) -> float:
        return float(self.evaluate_many(round_index, [mask])[0])

    def evaluate_many(self, round_index: int, masks: np.ndarray | Sequence[int]) -> np.ndarray:
        """Utilities of round ``round_index`` under each of ``masks``, in
        order; masks may repeat. Every mask is checked before any is
        evaluated, and each distinct uncached mask is then computed once,
        in ascending order; the call's utilities are cached only once all
        of them are computed."""
        m = len(self.players(round_index))
        full = (1 << m) - 1
        cached, known = self._cache[round_index]
        try:
            queried = np.asarray(masks, dtype=cached.dtype)
        except OverflowError:  # a mask beyond int64, so outside the round
            queried = np.asarray(masks, dtype=object)
        outside = (queried < 0) | (queried > full)
        if outside.any():
            raise HistoryMismatchError(
                f"mask {int(queried[outside.argmax()]):#x} selects outside the {m} "
                f"participants of round {round_index}"
            )
        distinct = np.sort(queried)
        first = np.ones(len(distinct), dtype=bool)
        first[1:] = distinct[1:] != distinct[:-1]
        distinct = distinct[first]
        # A mask is uncached where no cached mask equals it.
        at = np.searchsorted(cached, distinct)
        missing = np.searchsorted(cached, distinct, side="right") == at
        new, at = distinct[missing], at[missing]
        if len(new):
            record = self.records[round_index]
            utilities = np.empty(len(new))
            ends = (new == 0) | (new == full)
            for i in np.flatnonzero(ends):
                params = record.global_before if new[i] == 0 else record.global_after
                utilities[i] = evaluate_utility(self._layout, params, self._features, self._labels)
            if not ends.all():
                logistic = self._layout.arch == "logistic"
                kernel = self._averaged_logits_utilities if logistic else self._subset_utilities
                utilities[~ends] = kernel(record, new[~ends].tolist())
            cached, known = np.insert(cached, at, new), np.insert(known, at, utilities)
            self._cache[round_index] = cached, known
        return known[np.searchsorted(cached, queried)]

    def _averaged_logits_utilities(self, record: RoundRecord, masks: list[int]) -> list[float]:
        """Logistic utilities of proper-subset ``masks`` of ``record``'s
        round, from its members' logits, each bitwise the accuracy of its
        members' logits summed in ascending id order and divided by their
        count."""
        labels = self._labels
        m, c, n = len(record.selected), self._layout.n_classes, labels.shape[0]
        # Each member's (n, c) logits, copied class-major to (c, n); lists,
        # so that the walk makes no view per step.
        members = list(
            logits(self._layout, record.updates, self._features).transpose(0, 2, 1).copy()
        )
        # In bit-reversed order, masks that share their low bits are adjacent.
        order = sorted(range(len(masks)), key=lambda i: f"{masks[i]:0{m}b}"[::-1])
        # Bytes per mask of a batch: its (c, n) average, and what
        # count_label_at_max works in for it: a byte per score, and per
        # sample a row maximum and two flags.
        step = max(1, _UTILITY_SLICE_BYTES // 8 // ((9 * c + 10) * n))
        batch = np.empty((min(step, len(masks)), c, n))
        slots = list(batch)
        # sums[d] is the current mask's lowest d + 1 members summed in
        # ascending order; for d >= 1 it is held in depths[d - 1].
        depths = list(np.empty((max(mask.bit_count() for mask in masks) - 1, c, n)))
        sums: list[np.ndarray] = []
        utilities = np.empty(len(masks))
        previous = 0
        for position, i in enumerate(order):
            mask = masks[i]
            differ = mask ^ previous
            low = differ & -differ
            # The previous mask's sums over members below the lowest
            # differing bit are this mask's; its other members follow.
            del sums[(mask & (low - 1)).bit_count():]
            rest = mask & -low
            while rest:
                member = members[(rest & -rest).bit_length() - 1]
                sums.append(np.add(sums[-1], member, out=depths[len(sums) - 1]) if sums else member)
                rest &= rest - 1
            slot = position % step
            np.divide(sums[-1], len(sums), out=slots[slot])
            if slot == step - 1 or position == len(masks) - 1:
                hits = count_label_at_max(batch[: slot + 1], labels)
                utilities[order[position - slot : position + 1]] = hits / n
            previous = mask
        return utilities.tolist()

    def _subset_utilities(self, record: RoundRecord, masks: list[int]) -> list[float]:
        """MLP utilities of proper-subset ``masks`` of ``record``'s round,
        computed a slice of masks at a time, each slice on one of the
        threads of ``_run_on_threads``."""
        layout, features, labels = self._layout, self._features, self._labels
        m, n = len(record.selected), features.shape[0]
        size, h, c = layout.param_count, layout.hidden_units, layout.n_classes
        bits = mask_bits(m)
        # Row m is zero: it pads every mask's members to the slice's
        # largest subset. Adding zero changes a sum at most in the sign of
        # a zero, which no score comparison sees.
        updates = np.concatenate([record.updates, np.zeros((1, size))])
        # Bytes per mask that a slice's stages write: its gathered rows and
        # their average, then per sample its hidden activations, scores and
        # argmax. A worker holds less, as its stages share a buffer.
        per_mask = 8 * ((m + 1) * size + n * (h + c + 1))
        step = max(1, _UTILITY_SLICE_BYTES // per_mask)
        firsts = range(0, len(masks), step)
        width = min(step, len(masks))
        utilities = np.empty(len(masks))

        def worker() -> Callable[[int], None]:
            # Allocated here, in the calling thread: each worker writes
            # every slice into a prefix of its own arrays, the averages,
            # the scores and one buffer shared by lifetime. The gathered
            # member rows fill it, the hidden activations overwrite them
            # once they are summed, and the argmax, then the hits in the
            # bytes after it, overwrite the activations once the scores
            # are taken. With one hidden unit the argmax and hits (9 B a
            # sample) outgrow the activations (8 B).
            averaged, scores = np.empty(width * size), np.empty(width * n * c)
            shared = np.empty(width * max(m * size, n * h, (9 * n + 7) // 8))
            best, hits = shared.view(np.intp), shared.view(bool)

            def run(first: int) -> None:
                chunk = np.array(masks[first : first + step], dtype=bits.dtype)
                k = len(chunk)
                members = (chunk[:, None] & bits) != 0
                counts = members.sum(axis=1)
                rows = np.sort(np.where(members, np.arange(m), m), axis=1)[:, : counts.max()]
                stacked = np.take(
                    updates, rows, axis=0, mode="clip",
                    out=_prefix(shared, *rows.shape, size),
                )
                params = np.sum(stacked, axis=1, out=_prefix(averaged, k, size))
                params /= counts[:, None]
                out = mlp_logits_into(
                    layout, params, features, _prefix(shared, k, n, h), _prefix(scores, k, n, c)
                )
                chosen = np.argmax(out, axis=2, out=_prefix(best, k, n))
                right = np.equal(chosen, labels, out=_prefix(hits[chosen.nbytes :], k, n))
                np.divide(np.count_nonzero(right, axis=1), n, out=utilities[first : first + k])

            return run

        workers = [worker() for _ in range(min(_utility_workers(), len(firsts)))]
        _run_on_threads(firsts, workers)
        return utilities.tolist()


def _prefix(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The leading elements of a flat ``buffer`` as a C-contiguous array of ``shape``."""
    return buffer[: math.prod(shape)].reshape(shape)


def _utility_workers() -> int:
    """Threads for a call's MLP subset utilities: one per CPU this process
    may run on, or per CPU where the platform keeps no affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_on_threads(tasks: Sequence[int], workers: Sequence[Callable[[int], None]]) -> None:
    """Call one of ``workers`` on each of ``tasks``, every worker on its own
    thread and the first on the calling one, so a single worker starts no
    thread. Each started thread runs in a copy of the caller's context, so
    a caller's ``np.errstate`` holds on every thread. Workers take tasks in
    order until none is left or one has raised; every thread is joined
    before the first exception raised is re-raised, unchanged."""
    pending = iter(tasks)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def drain(worker: Callable[[int], None]) -> None:
        try:
            while True:
                with lock:
                    task = None if errors else next(pending, None)
                if task is None:
                    return
                worker(task)
        except BaseException as error:  # re-raised by the calling thread
            with lock:
                errors.append(error)

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(drain, worker))
        for worker in workers[1:]
    ]
    for thread in threads:
        thread.start()
    try:
        drain(workers[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def value_rounds(
    oracle: RoundOracle,
    method: str,
    *,
    approx: ApproxParams | None = None,
    seed: int = 0,
) -> ValuationReport:
    """Value every round recorded in ``oracle`` with the chosen method.

    Methods valued through one oracle read the same records and share its
    utility cache, so method comparisons isolate the valuation rule
    itself. Estimator randomness is drawn from per-round substreams of
    ``seed``.
    """
    if method not in VALUATION_METHODS:
        raise ValueError(f"unknown valuation method {method!r}")
    if method in ("permutation", "group_testing") and approx is None:
        raise ValueError(f"method {method!r} needs approximation parameters")
    initial = oracle.evaluate(0, 0)
    per_round: list[ValueVector] = []
    deltas: list[float] = []
    for t in range(len(oracle.records)):
        players = oracle.players(t)
        before = oracle.evaluate(t, 0)
        after = oracle.evaluate(t, (1 << len(players)) - 1)
        deltas.append(after - before)
        rng = substream(seed, "valuation", t)
        plan = round_plan(method, approx, len(players))
        if method == "loo":
            vector = federated_loo_round(oracle, t)
        elif method == "permutation":
            vector = permutation_sampling_round(oracle, t, players, plan, rng)
        elif plan is not None:
            vector = group_testing_round(oracle, t, plan, rng)
        else:  # exact, or a group-testing round without a plan
            vector = exact_federated_round_shapley(oracle, t)
        per_round.append(vector)
    return build_report(per_round, deltas, initial)


def round_selections(
    cfg: TrainingConfig, participant_ids: Iterable[int]
) -> list[tuple[int, ...]]:
    """Each round's selection, ascending: round ``t`` draws
    ``round_size`` of the sorted ids from ``substream(seed, "select", t)``,
    so the schedule is fixed before any data is drawn."""
    ids = sorted(participant_ids)
    if not ids:
        raise ValueError("at least one participant shard required")
    m = round_size(cfg.participant_fraction, len(ids))
    selections = []
    for t in range(cfg.rounds):
        chosen = substream(cfg.seed, "select", t).choice(len(ids), size=m, replace=False)
        selections.append(tuple(sorted(ids[j] for j in chosen)))
    return selections


def run_federated_training(
    data: Dataset,
    shards: Mapping[int, np.ndarray],
    cfg: TrainingConfig,
    *,
    snapshot_dir: str | Path | None = None,
) -> list[RoundRecord]:
    """Run the full federated process and return its round records; the
    final model is the last record's ``global_after``.

    Participant ``pid`` trains on the rows ``shards[pid]`` of ``data``,
    in the rounds ``round_selections(cfg, shards)`` selects it; a
    participant no round selects may hold no rows. The trajectory depends
    only on the selected participants' rows, the config and its seed.
    With a ``snapshot_dir``, each round is persisted as it completes, so a
    training failure leaves the finished rounds on disk.
    """
    theta = initial_model(cfg)
    records: list[RoundRecord] = []
    for t, selected in enumerate(round_selections(cfg, shards)):
        updates = train_round(theta, data, shards, selected, cfg, t)
        after = updates.mean(axis=0)
        record = RoundRecord(t, theta.copy(), selected, updates, after.copy())
        records.append(record)
        if snapshot_dir is not None:
            save_round_records([record], cfg.layout, snapshot_dir)
        theta = after
    return records


# The participants a retrain replay keeps of round t's sorted selection.
KeepRule = Callable[[int, tuple[int, ...]], Iterable[int]]

def _retained(keep: KeepRule, t: int, selected: tuple[int, ...]) -> tuple[int, ...]:
    retained = tuple(sorted(set(keep(t, selected))))
    if not retained:
        raise ValueError(f"round {t} would retain no participants")
    if not set(retained) <= set(selected):
        raise ValueError(f"round {t} retains participants that were not selected")
    return retained


def _advance_grid(
    models: list[np.ndarray | None],
    children: Sequence[tuple[int, tuple[int, ...]]],
    data: Dataset,
    shards: Mapping[int, np.ndarray],
    cfg: TrainingConfig,
    t: int,
    selected_count: int,
) -> list[np.ndarray]:
    """Round ``t`` of a retrain grid: the outgoing model of every
    (incoming model, retained set) child, in child order.

    Each (incoming model, participant) update trains once, however many
    children average it. An incoming model trains at most
    ``selected_count`` rows, and models are taken in batches whose rows
    fit ``_SLICE_BYTES``; once a batch's children are averaged, its
    updates and incoming models (set to None in ``models``) are released.
    """
    by_parent: dict[int, list[int]] = {}
    for c, (parent, _) in enumerate(children):
        by_parent.setdefault(parent, []).append(c)
    parents = list(by_parent)
    step = max(1, _SLICE_BYTES // (_row_bytes(cfg) * selected_count))
    outgoing: dict[int, np.ndarray] = {}
    for first in range(0, len(parents), step):
        batch = parents[first : first + step]
        jobs = [
            (i, pid)
            for i, parent in enumerate(batch)
            for pid in sorted({pid for c in by_parent[parent] for pid in children[c][1]})
        ]
        trained = _train_jobs(np.stack([models[p] for p in batch]), jobs, data, shards, cfg, t)
        row_of = {job: row for row, job in enumerate(jobs)}
        for i, parent in enumerate(batch):
            for c in by_parent[parent]:
                updates = [trained[row_of[i, pid]] for pid in children[c][1]]
                for pid, theta in zip(children[c][1], updates):
                    _check_finite(theta, t, pid)
                outgoing[c] = np.mean(updates, axis=0)
            models[parent] = None
    return [outgoing[c] for c in range(len(children))]


def rerun_with_selections(
    data: Dataset,
    shards: Mapping[int, np.ndarray],
    cfg: TrainingConfig,
    selections: Sequence[Sequence[int]],
    keeps: Sequence[KeepRule],
) -> list[np.ndarray]:
    """Retrain once per keep rule with a fixed per-round selection,
    aggregating only the participants the rule retains each round; returns
    the final models in rule order.

    Every rule's retained sets are resolved and checked before any
    training, rule by rule and round by round. The replays then advance
    round by round in lockstep: replays whose retained sets agree on every
    round so far share one model (and one returned array), each distinct
    (retained prefix, participant) update trains once, and a round's
    updates with equal shard sizes take one stacked SGD step per
    minibatch. Local update streams are keyed by (round, participant), so
    each final model is bitwise the one a replay of that rule alone gives,
    and a rule that keeps everyone reproduces the original trajectory.
    """
    if len(selections) != cfg.rounds:
        raise ValueError("one recorded selection required per round")
    rounds = [tuple(sorted(selection)) for selection in selections]
    plans = [[_retained(keep, t, selected) for t, selected in enumerate(rounds)] for keep in keeps]
    models: list[np.ndarray | None] = [initial_model(cfg)]
    model_of = [0] * len(plans)
    for t in range(cfg.rounds):
        children: dict[tuple[int, tuple[int, ...]], int] = {}
        for r, plan in enumerate(plans):
            model_of[r] = children.setdefault((model_of[r], plan[t]), len(children))
        models = _advance_grid(models, list(children), data, shards, cfg, t, len(rounds[t]))
    return [models[i] for i in model_of]


@contextmanager
def write_atomically(path: Path) -> Iterator[BinaryIO]:
    """A binary file to write that replaces ``path`` only once complete.

    The content goes to a temporary file beside ``path``, which is moved
    into place when the block exits cleanly and deleted otherwise, so a
    reader never sees a half-written file.
    """
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}-")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def save_round_records(
    records: Sequence[RoundRecord], layout: ModelLayout, directory: str | Path
) -> None:
    """One self-contained binary snapshot file per round, each written
    atomically."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for record in records:
        header = {
            "format_version": 1,
            "round_index": record.round_index,
            "layout": layout.to_dict(),
            "selected": list(record.selected),
        }
        with write_atomically(directory / snapshot_name(record.round_index)) as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            np.save(fh, record.global_before, allow_pickle=False)
            np.save(fh, record.updates, allow_pickle=False)
            np.save(fh, record.global_after, allow_pickle=False)


def snapshot_name(round_index: int) -> str:
    return f"round_{round_index:05d}.fvr"


def _snapshot_index(path: Path) -> int:
    match = re.fullmatch(r"round_(\d+)\.fvr", path.name)
    if match is None:
        raise SnapshotFormatError(f"{path}: not a round snapshot file name")
    return int(match.group(1))


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _header_layout_and_selected(
    path: Path, header: dict
) -> tuple[ModelLayout, tuple[int, ...]]:
    """The model layout and the ascending participant ids a snapshot
    header names; a missing or ill-typed field, a round without
    participants, or ids that repeat or descend, names ``path``."""
    if "layout" not in header:
        raise SnapshotFormatError(f"{path}: header has no layout")
    try:
        layout = ModelLayout.from_dict(header["layout"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"{path}: malformed header layout: {exc!r}") from exc
    selected = header.get("selected")
    if not isinstance(selected, list) or any(type(pid) is not int for pid in selected):
        raise SnapshotFormatError(
            f"{path}: header selected must be a list of participant ids, "
            f"got {selected!r}"
        )
    if not selected:
        raise SnapshotFormatError(f"{path}: header selected names no participants")
    if selected != sorted(set(selected)):
        repeated = [pid for i, pid in enumerate(selected) if pid in selected[:i]]
        problem = (f"repeats participant {repeated[0]}" if repeated
                   else f"must list participant ids in ascending order, got {selected}")
        raise SnapshotFormatError(f"{path}: header selected {problem}")
    return layout, tuple(selected)


def load_round_records(directory: str | Path) -> tuple[list[RoundRecord], ModelLayout]:
    """Load a snapshot directory and verify that its rounds form one run.

    Round indices must run from 0 without gaps and agree with each
    file's header, each header must name a layout and one or more
    participant ids in strictly ascending order, every array must be
    complete and finite, every stored aggregate must be bitwise the mean
    of its updates, and every incoming model must be bitwise the previous
    round's outcome. Each failure names the offending file.
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
            try:
                header = json.loads(fh.readline().decode("utf-8"))
            except ValueError as exc:
                raise SnapshotFormatError(f"{path}: unreadable header: {exc}") from exc
            if not isinstance(header, dict):
                raise SnapshotFormatError(
                    f"{path}: header is a JSON {type(header).__name__}, not an object"
                )
            if header.get("format_version") != 1:
                raise SnapshotFormatError(
                    f"{path}: unsupported format version {header.get('format_version')}"
                )
            if header.get("round_index") != position:
                raise SnapshotFormatError(
                    f"{path}: header round_index {header.get('round_index')!r} "
                    f"does not match the file name"
                )
            file_layout, selected = _header_layout_and_selected(path, header)
            if layout is None:
                layout = file_layout
            elif layout != file_layout:
                raise SnapshotFormatError(f"{path}: layout differs across rounds")
            try:
                global_before = np.load(fh, allow_pickle=False)
                stacked = np.load(fh, allow_pickle=False)
                global_after = np.load(fh, allow_pickle=False)
            except (EOFError, ValueError) as exc:
                raise SnapshotFormatError(
                    f"{path}: truncated or unreadable arrays: {exc}"
                ) from exc
        if stacked.shape != (len(selected), layout.param_count):
            raise SnapshotFormatError(f"{path}: update matrix shape mismatch")
        if not all(np.isfinite(a).all() for a in (global_before, stacked, global_after)):
            raise SnapshotFormatError(f"{path}: stored arrays hold non-finite values")
        # Training stores exactly this mean.
        if not _bitwise_equal(stacked.mean(axis=0), global_after):
            raise SnapshotFormatError(
                f"{path}: stored aggregate disagrees with the stored updates"
            )
        if records and not _bitwise_equal(records[-1].global_after, global_before):
            raise SnapshotFormatError(
                f"{path}: incoming model is not the previous round's outcome; "
                f"the snapshots do not come from one run"
            )
        records.append(RoundRecord(position, global_before, selected, stacked, global_after))
    assert layout is not None
    return records, layout


def check_initial_model(
    records: Sequence[RoundRecord], cfg: TrainingConfig, directory: str | Path
) -> None:
    """Refuse records from ``directory`` whose round 0 does not start from
    ``cfg``'s initial model, so that replaying them under ``cfg`` values the run it trains."""
    if not _bitwise_equal(records[0].global_before, initial_model(cfg)):
        raise SnapshotFormatError(
            f"{Path(directory) / snapshot_name(0)}: incoming model is not the initial "
            f"model of the configured seed and init_scale; the snapshots come from "
            f"another run"
        )
