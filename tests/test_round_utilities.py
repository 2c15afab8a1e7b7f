"""Generated-input checks of the round utility path.

``RoundOracle`` values a logistic model's proper subsets from averaged
member logits, and an MLP's from slices of stacked parameter averages;
these tests hold both to the parameter-average definition on random
rounds, the logistic bitwise to a walk of each mask's member logits
whatever the batch bound, and the MLP bitwise whatever the slice bound,
worker thread count, request order and mix of batched and scalar
requests. The estimators pass their masks, repeats
and all, to the oracle's ``evaluate_many``; these tests hold them to the
one-call-per-draw loops they replaced, on rounds wider than int64 masks
too. ``TableGame`` answers each value rule's queries in one batch per
draw, bitwise as its per-mask lookups.
"""

from __future__ import annotations

import gc
import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedval import engine
from fedval.engine import (
    RoundOracle,
    RoundRecord,
    aggregate_subset,
    evaluate_utility,
)
from fedval.estimators import (
    ApproxParams,
    group_testing_plan,
    group_testing_round,
    permutation_sampling_round,
)
from fedval.models import ModelLayout, accuracy_from_logits, logits
from fedval.values import exact_federated_round_shapley, federated_loo_round

from conftest import exact_shapley_permutation_form, random_table_game, record_evaluations
from test_datasets import traced_peak

TIE_RTOL = 1e-12


def random_records(rng, layout, rounds, m, *, quantized):
    """Chained round records with random updates; quantized parameters
    (multiples of 1/4) make exactly tied logits common."""

    def draw():
        theta = rng.normal(size=layout.param_count)
        return np.round(theta * 4) / 4 if quantized else theta

    records = []
    before = draw()
    for t in range(rounds):
        selected = tuple(sorted(int(p) for p in rng.choice(3 * m, size=m, replace=False)))
        updates = np.array([draw() for _ in selected])
        after = updates.mean(axis=0)
        records.append(RoundRecord(t, before.copy(), selected, updates, after.copy()))
        before = after
    return records


def near_tie_count(layout, params, features):
    """Samples whose two best logits agree to TIE_RTOL relative to the
    magnitude of the terms summed into them, which bounds rounding error
    even where the logits themselves cancel to near zero."""
    d, c = layout.n_features, layout.n_classes
    weights, bias = params[: d * c].reshape(d, c), params[d * c :]
    scale = (np.abs(features) @ np.abs(weights) + np.abs(bias)).max(axis=1)
    scores = np.sort(logits(layout, params, features), axis=1)
    return int(np.count_nonzero(scores[:, -1] - scores[:, -2] <= TIE_RTOL * scale))


def members(record, mask):
    return [pid for b, pid in enumerate(record.selected) if mask >> b & 1]


round_shapes = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "features": st.integers(1, 64),
    "classes": st.integers(2, 10),
    "samples": st.integers(1, 40),
    "m": st.integers(1, 6),
    "rounds": st.integers(1, 3),
    "quantized": st.booleans(),
})


@settings(max_examples=40, deadline=None)
@given(round_shapes)
def test_logit_average_matches_parameter_average(shape):
    rng = np.random.default_rng(shape["seed"])
    layout = ModelLayout("logistic", shape["features"], shape["classes"])
    records = random_records(
        rng, layout, shape["rounds"], shape["m"], quantized=shape["quantized"]
    )
    features = rng.normal(size=(shape["samples"], shape["features"]))
    if shape["quantized"]:
        features = np.round(features)
    labels = rng.integers(0, shape["classes"], size=shape["samples"])
    oracle = RoundOracle(layout, records, features, labels)
    for t, record in enumerate(records):
        for mask in range(1 << len(record.selected)):
            params = aggregate_subset(record, members(record, mask))
            expected = evaluate_utility(layout, params, features, labels)
            got = oracle.evaluate(t, mask)
            # Accuracies are multiples of 1/n: count the flipped samples.
            flipped = round(abs(got - expected) * shape["samples"])
            assert flipped <= near_tie_count(layout, params, features), (mask, got, expected)


@settings(max_examples=25, deadline=None)
@given(round_shapes, st.randoms(use_true_random=False))
def test_request_order_does_not_change_values(shape, shuffler):
    rng = np.random.default_rng(shape["seed"])
    layout = ModelLayout("logistic", shape["features"], shape["classes"])
    records = random_records(
        rng, layout, shape["rounds"], shape["m"], quantized=shape["quantized"]
    )
    features = rng.normal(size=(shape["samples"], shape["features"]))
    labels = rng.integers(0, shape["classes"], size=shape["samples"])
    queries = [
        (t, mask)
        for t, record in enumerate(records)
        for mask in range(1 << len(record.selected))
    ]
    in_order = RoundOracle(layout, records, features, labels)
    reference = [in_order.evaluate(*query) for query in queries]
    # A shuffle interleaves rounds, so member logits are dropped and rebuilt.
    positions = list(range(len(queries)))
    shuffler.shuffle(positions)
    shuffled = RoundOracle(layout, records, features, labels)
    for position in positions:
        assert shuffled.evaluate(*queries[position]) == reference[position]


def logit_walk_utilities(layout, record, features, labels, masks):
    """Reference logistic utilities of proper-subset ``masks``, one walk
    per mask: its members' logits summed left to right in ascending id
    order, divided by their count, and scored by argmax."""
    member_logits = list(logits(layout, record.updates, features))
    utilities = []
    for mask in masks:
        rows = [row for b, row in enumerate(member_logits) if mask >> b & 1]
        averaged = rows[0].copy()
        for row in rows[1:]:
            averaged += row
        averaged /= len(rows)
        utilities.append(accuracy_from_logits(averaged, labels))
    return utilities


def round_utilities(layout, record, features, labels, masks):
    """Reference utilities of one round: the stored models at the empty and
    full masks, the per-mask walk elsewhere."""
    full = (1 << len(record.selected)) - 1
    subsets = [b for b in masks if 0 < b < full]
    walked = dict(zip(subsets, logit_walk_utilities(layout, record, features, labels, subsets)))
    walked[0] = evaluate_utility(layout, record.global_before, features, labels)
    walked[full] = evaluate_utility(layout, record.global_after, features, labels)
    return [walked[b] for b in masks]


logistic_walk_shapes = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "features": st.integers(1, 16),
    "classes": st.integers(2, 10),
    "samples": st.integers(1, 40),
    "m": st.integers(1, 12),
    "rounds": st.integers(1, 2),
    "quantized": st.booleans(),
    # 0 puts every mask in its own batch; the small bounds give batches of
    # a few masks each.
    "slice_bytes": st.sampled_from([0, 16_000, 80_000, engine._UTILITY_SLICE_BYTES]),
})


@settings(max_examples=40, deadline=None)
@given(logistic_walk_shapes, st.randoms(use_true_random=False))
def test_logistic_subset_utilities_equal_per_mask_walk(shape, shuffler):
    rng = np.random.default_rng(shape["seed"])
    layout = ModelLayout("logistic", shape["features"], shape["classes"])
    records = random_records(
        rng, layout, shape["rounds"], shape["m"], quantized=shape["quantized"]
    )
    features = rng.normal(size=(shape["samples"], shape["features"]))
    if shape["quantized"]:
        features = np.round(features)
    labels = rng.integers(0, shape["classes"], size=shape["samples"])
    with mock.patch.object(engine, "_UTILITY_SLICE_BYTES", shape["slice_bytes"]):
        oracle = RoundOracle(layout, records, features, labels)
        for t, record in enumerate(records):
            masks = list(range(1 << len(record.selected))) * 2
            shuffler.shuffle(masks)
            expected = round_utilities(layout, record, features, labels, masks)
            assert oracle.evaluate_many(t, np.array(masks)).tolist() == expected
            # Cached subsets mixed with a fresh round's: each call walks
            # only its own uncached masks.
            fresh = RoundOracle(layout, records, features, labels)
            some = masks[: len(masks) // 3]
            fresh.evaluate_many(t, some)
            assert fresh.evaluate_many(t, masks).tolist() == expected


def test_logistic_call_holds_member_logits_partial_sums_and_one_batch():
    m, c, n = 10, 4, 1_000
    rng = np.random.default_rng(6)
    layout = ModelLayout("logistic", 10, c)
    records = random_records(rng, layout, 1, m, quantized=False)
    features = rng.normal(size=(n, 10))
    labels = rng.integers(0, c, size=n)
    masks = list(range(1 << m))

    def call():
        return RoundOracle(layout, records, features, labels).evaluate_many(0, masks)

    def stub(self, record, subsets):
        return np.zeros(len(subsets)).tolist()

    with mock.patch.object(RoundOracle, "_averaged_logits_utilities", stub):
        _, bookkeeping = traced_peak(call)
    _, peak = traced_peak(call)
    # Beyond the call's own bookkeeping: the member logits, which the
    # stacked forward pass makes twice over (the product, then the bias
    # sum); the partial sums, fewer than m of one member's size, beside
    # them; and one batch of masks with its count. One (c, n) average per
    # mask of the call would alone take 32 MB.
    member_logits = m * n * c * 8
    assert peak < bookkeeping + 2 * member_logits + engine._UTILITY_SLICE_BYTES // 8


@pytest.mark.parametrize("workers", [1, 2])
def test_mlp_call_holds_an_average_scores_and_one_shared_buffer_per_worker(workers):
    m, (d, h, c), n = 20, (20, 16, 4), 1_000
    rng = np.random.default_rng(8)
    layout = ModelLayout("mlp", d, c, hidden_units=h)
    records = random_records(rng, layout, 1, m, quantized=False)
    features = rng.normal(size=(n, d))
    labels = rng.integers(0, c, size=n)
    masks = rng.integers(1, (1 << m) - 1, size=200).tolist()

    def call():
        return RoundOracle(layout, records, features, labels).evaluate_many(0, masks)

    def stub(self, record, subsets):
        return np.zeros(len(subsets)).tolist()

    with mock.patch.object(engine, "_utility_workers", lambda: workers):
        with mock.patch.object(RoundOracle, "_subset_utilities", stub):
            _, bookkeeping = traced_peak(call)
        _, peak = traced_peak(call)
    size = layout.param_count
    # A slice takes as many masks as fit the bound at the bytes its stages
    # write per mask: 8 at this shape.
    slice_masks = engine._UTILITY_SLICE_BYTES // (8 * ((m + 1) * size + n * (h + c + 1)))
    # Per mask of a slice, a worker holds its average, its scores, and its
    # share of one buffer that the gathered member rows, the hidden
    # activations, and the argmax and hits (9 B a sample) take in turn.
    # Six arrays per worker would hold 1.9 MB at this shape, not 1.3 MB.
    worker = slice_masks * 8 * (size + max(m * size, n * h, math.ceil(9 * n / 8)) + n * c)
    # Beside them: the updates with the zero padding row, once per call,
    # and per worker the cast buffer numpy counts a slice's hits through
    # (np.getbufsize() 8-byte elements), a slice's few (k, m) index
    # arrays and its thread's own objects, within 16 KiB.
    padded = (m + 1) * size * 8
    extra = 8 * np.getbufsize() + 16 * 1024
    assert peak < bookkeeping + padded + workers * (worker + extra)


mlp_round_shapes = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "features": st.integers(1, 12),
    "hidden": st.integers(1, 8),
    "classes": st.integers(2, 6),
    "samples": st.integers(1, 40),
    "m": st.integers(1, 6),
    "rounds": st.integers(1, 3),
    "quantized": st.booleans(),
    # 0 puts every mask in its own slice; the small bounds give slices of
    # a few masks each.
    "slice_bytes": st.sampled_from([0, 2_000, 10_000, engine._UTILITY_SLICE_BYTES]),
    # Threads a call's slices run on; 1 is the serial path.
    "workers": st.sampled_from([1, 2, 3]),
})


@settings(max_examples=40, deadline=None)
@given(mlp_round_shapes, st.randoms(use_true_random=False))
def test_mlp_subset_utilities_equal_parameter_average(shape, shuffler):
    rng = np.random.default_rng(shape["seed"])
    layout = ModelLayout(
        "mlp", shape["features"], shape["classes"], hidden_units=shape["hidden"]
    )
    records = random_records(
        rng, layout, shape["rounds"], shape["m"], quantized=shape["quantized"]
    )
    features = rng.normal(size=(shape["samples"], shape["features"]))
    if shape["quantized"]:
        features = np.round(features)
    labels = rng.integers(0, shape["classes"], size=shape["samples"])
    expected = {
        (t, mask): evaluate_utility(
            layout, aggregate_subset(record, members(record, mask)), features, labels
        )
        for t, record in enumerate(records)
        for mask in range(1 << len(record.selected))
    }
    with mock.patch.object(engine, "_UTILITY_SLICE_BYTES", shape["slice_bytes"]), \
            mock.patch.object(engine, "_utility_workers", lambda: shape["workers"]):
        # Every mask of a round in one batch, shuffled and with repeats.
        batched = RoundOracle(layout, records, features, labels)
        for t, record in enumerate(records):
            masks = list(range(1 << len(record.selected))) * 2
            shuffler.shuffle(masks)
            got = batched.evaluate_many(t, np.array(masks))
            assert got.tolist() == [expected[t, mask] for mask in masks]
        # Scalar calls and small batches across rounds, in shuffled order.
        mixed = RoundOracle(layout, records, features, labels)
        queries = list(expected)
        shuffler.shuffle(queries)
        for t, mask in queries:
            if shuffler.random() < 0.5:
                assert mixed.evaluate(t, mask) == expected[t, mask]
                continue
            size = 1 << len(records[t].selected)
            masks = [mask, *(shuffler.randrange(size) for _ in range(3))]
            got = mixed.evaluate_many(t, np.array(masks))
            assert got.tolist() == [expected[t, b] for b in masks]


def mlp_round(m=6, samples=30):
    rng = np.random.default_rng(m)
    layout = ModelLayout("mlp", 3, 3, hidden_units=4)
    records = random_records(rng, layout, 1, m, quantized=False)
    features = rng.normal(size=(samples, 3))
    labels = rng.integers(0, 3, size=samples)
    return layout, records, features, labels


def test_worker_exception_leaves_the_call_uncached(monkeypatch):
    layout, records, features, labels = mlp_round()
    oracle = RoundOracle(layout, records, features, labels)
    subsets = list(range(1, (1 << 6) - 1))
    # With the full mask, an endpoint evaluated before the kernel runs.
    masks = [*subsets, (1 << 6) - 1]
    failure = KeyError("worker failed")
    forward, calls, lock = engine.mlp_logits_into, [], threading.Lock()

    def fail_fifth(*args):
        with lock:
            calls.append(threading.get_ident())
            if len(calls) == 5:
                raise failure
        return forward(*args)

    threads = threading.active_count()
    with mock.patch.object(engine, "_UTILITY_SLICE_BYTES", 0), \
            mock.patch.object(engine, "_utility_workers", lambda: 3), \
            mock.patch.object(engine, "mlp_logits_into", fail_fifth):
        with pytest.raises(KeyError) as info:
            oracle.evaluate_many(0, masks)
    assert info.value is failure
    assert threading.active_count() == threads
    # Workers stop taking slices once one has raised.
    assert len(calls) < len(subsets)
    reference = AggregateSubsetOracle(layout, records[0], features, labels)
    handed = record_evaluations(monkeypatch)
    assert oracle.evaluate_many(0, masks).tolist() == [
        reference.evaluate(0, mask) for mask in masks
    ]
    # None of the failed call's utilities was cached: not the endpoint's,
    # nor those of the slices that completed.
    assert handed == ["endpoint", subsets]


def test_worker_threads_keep_the_callers_error_state():
    """Updates at 1e200 overflow the MLP's products. Under the caller's
    ``np.errstate`` that ignores it, no thread warns, and two threads give
    the serial utilities."""
    rng = np.random.default_rng(9)
    m, layout = 12, ModelLayout("mlp", 20, 4, hidden_units=16)
    updates = rng.normal(scale=1e200, size=(m, layout.param_count))
    record = RoundRecord(0, updates[0].copy(), tuple(range(m)), updates, updates[1].copy())
    features = rng.normal(size=(1_000, 20))
    labels = rng.integers(0, 4, size=1_000)
    oracle = RoundOracle(layout, [record], features, labels)
    masks = list(range(1, (1 << m) - 1))
    got = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(engine, "_UTILITY_SLICE_BYTES", 0):
            for workers in (1, 2):
                with mock.patch.object(engine, "_utility_workers", lambda: workers):
                    got[workers] = oracle._subset_utilities(record, masks)
    assert got[2] == got[1]


def test_more_workers_than_cpus_fill_every_slice():
    """Eight threads taking one-mask slices, switching every microsecond:
    a slice taken twice or never would differ from the serial run."""
    layout, records, features, labels = mlp_round(m=8)
    masks = list(range(1, (1 << 8) - 1))
    serial = RoundOracle(layout, records, features, labels)
    with mock.patch.object(engine, "_utility_workers", lambda: 1):
        expected = serial.evaluate_many(0, masks).tolist()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(engine, "_UTILITY_SLICE_BYTES", 0), \
                mock.patch.object(engine, "_utility_workers", lambda: 8):
            for _ in range(5):
                oracle = RoundOracle(layout, records, features, labels)
                assert oracle.evaluate_many(0, masks).tolist() == expected
    finally:
        sys.setswitchinterval(interval)


def test_mlp_members_summed_in_ascending_id_order():
    """Float addition is not associative: members 0, 1, 2 summed in id
    order give (1 + 2**60) - 2**60 = 0, in reverse order 1. Only the first
    leaves the class-1 output bias at 0, so the tie goes to class 0."""
    layout = ModelLayout("mlp", 1, 2, hidden_units=1)
    updates = np.zeros((4, layout.param_count))
    updates[:, -1] = [1.0, 2.0**60, -(2.0**60), 0.0]
    before = np.zeros(layout.param_count)
    after = updates.mean(axis=0)
    record = RoundRecord(0, before, (0, 1, 2, 3), updates, after)
    features, labels = np.ones((5, 1)), np.zeros(5, dtype=int)
    assert evaluate_utility(layout, aggregate_subset(record, [0, 1, 2]), features, labels) == 1.0
    assert RoundOracle(layout, [record], features, labels).evaluate(0, 0b0111) == 1.0


def test_logistic_members_summed_in_ascending_id_order():
    """As for the MLP: members 0, 1, 2 summed in id order leave the
    class-1 bias logit at 0, tied with class 0, and the tie goes to the
    label, class 0; in reverse order it is 1/3, and class 1 wins."""
    layout = ModelLayout("logistic", 1, 2)
    updates = np.zeros((4, layout.param_count))
    updates[:, -1] = [1.0, 2.0**60, -(2.0**60), 0.0]
    before = np.zeros(layout.param_count)
    record = RoundRecord(0, before, (0, 1, 2, 3), updates, updates.mean(axis=0))
    features, labels = np.ones((5, 1)), np.zeros(5, dtype=int)
    assert logit_walk_utilities(layout, record, features, labels, [0b0111]) == [1.0]
    assert RoundOracle(layout, [record], features, labels).evaluate(0, 0b0111) == 1.0
    # With 0b0011 and 0b0110 in the call, 0b0111 extends a shared prefix sum.
    masks = [0b0011, 0b0111, 0b0110]
    assert RoundOracle(layout, [record], features, labels).evaluate_many(0, masks).tolist() == (
        logit_walk_utilities(layout, record, features, labels, masks)
    )


def _reference_permutation(game, ids, sample_count, seed):
    """Ordering sampling of round 0 as a walk with one memoized call per
    prefix."""
    rng = np.random.default_rng(seed)
    m = len(ids)
    orderings = rng.permuted(np.tile(np.arange(m), (sample_count, 1)), axis=1)
    cache = {}

    def utility(mask):
        if mask not in cache:
            cache[mask] = game.evaluate(0, mask)
        return cache[mask]

    acc = np.zeros(m)
    base = utility(0)
    for row in orderings:
        mask, previous = 0, base
        for b in row:
            mask |= 1 << int(b)
            current = utility(mask)
            acc[b] += current - previous
            previous = current
    acc /= sample_count
    return {pid: float(acc[b]) for b, pid in enumerate(ids)}


def _reference_group_testing(game, ids, plan, seed):
    """Group testing of round 0 with one oracle call per test and per
    endpoint, anchored so the values sum to the round's utility gain."""
    m = len(ids)
    rng = np.random.default_rng(seed)

    def utility(mask):
        return game.evaluate(0, mask)

    sizes = rng.choice(np.arange(1, m), size=plan.t1, p=plan.subset_size_probs)
    order = np.argsort(rng.random((plan.t1, m)), axis=1)
    membership = np.zeros((plan.t1, m), dtype=bool)
    np.put_along_axis(membership, order, np.arange(m)[None, :] < sizes[:, None], axis=1)
    tests = np.array(
        [utility(sum(1 << int(b) for b in np.flatnonzero(row))) for row in membership]
    )
    loads = (plan.z / plan.t1) * (tests @ membership)
    gain = utility((1 << m) - 1) - utility(0)
    shift = (gain - math.fsum(loads)) / m
    return {pid: float(loads[b] + shift) for b, pid in enumerate(ids)}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 6),
    samples=st.integers(1, 60),
    epsilon=st.sampled_from([0.3, 0.5, 0.8]),
)
def test_estimates_unchanged_by_deduplicated_masks(seed, m, samples, epsilon):
    rng = np.random.default_rng(seed)
    ids = sorted(int(p) for p in rng.choice(20, size=m, replace=False))
    game = random_table_game([ids], rng)
    permutation = permutation_sampling_round(game, 0, ids, samples, seed)
    assert permutation.values == _reference_permutation(game, ids, samples, seed)
    plan = group_testing_plan(m, ApproxParams(epsilon=epsilon, delta=0.3))
    grouped = group_testing_round(game, 0, plan, seed)
    assert grouped.values == _reference_group_testing(game, ids, plan, seed)


@pytest.mark.parametrize("m, batch", [
    (4, np.array([7, 0, 3, 7, 0, 5])),
    # Python ints: these masks do not fit in int64.
    (70, [(1 << 69) | 1, 0, 1 << 63, (1 << 69) | 1, 6]),
], ids=["int64", "python_ints"])
def test_oracle_evaluates_each_uncached_mask_once_ascending(m, batch):
    rng = np.random.default_rng(4)
    layout = ModelLayout("mlp", 3, 3, hidden_units=4)
    records = random_records(rng, layout, 1, m, quantized=False)
    features = rng.normal(size=(20, 3))
    labels = rng.integers(0, 3, size=20)
    reference = AggregateSubsetOracle(layout, records[0], features, labels)
    oracle = RoundOracle(layout, records, features, labels)
    subset_utilities = RoundOracle._subset_utilities
    calls = []

    def counted(self, record, masks):
        calls.append(masks)
        if len(calls) > 2:
            raise KeyError("backend gone")
        return subset_utilities(self, record, masks)

    proper = sorted({int(mask) for mask in batch} - {0})
    with mock.patch.object(RoundOracle, "_subset_utilities", counted):
        got = oracle.evaluate_many(0, batch)
        assert got.tolist() == [reference.evaluate(0, mask) for mask in batch]
        # Each proper subset once, ascending, in one call, as Python ints.
        assert calls == [proper]
        assert all(type(mask) is int for mask in calls[0])
        # Cached masks reach no kernel; only the new one does.
        again = [proper[-1], 0, 9, proper[0]]
        assert oracle.evaluate_many(0, again).tolist() == [
            reference.evaluate(0, mask) for mask in again
        ]
        assert calls == [proper, [9]]
        # The kernel's own error reaches the caller.
        with pytest.raises(KeyError):
            oracle.evaluate_many(0, [1])


def test_oracle_holds_sixteen_bytes_per_cached_utility():
    """A round's cache is an int64 mask and a float64 utility per mask it
    has computed, in two arrays, so exact SV grows an oracle by 16 B per
    utility. Each round may add up to 1 KiB for its arrays' headers."""
    m, rounds = 10, 2
    rng = np.random.default_rng(7)
    layout = ModelLayout("logistic", 3, 3)
    records = random_records(rng, layout, rounds, m, quantized=False)
    features = rng.normal(size=(50, 3))
    labels = rng.integers(0, 3, size=50)
    tracemalloc.start()
    try:
        # A first oracle fills the interpreter's and numpy's free lists
        # with traced blocks, which the measured one then reuses.
        exact_federated_round_shapley(RoundOracle(layout, records, features, labels), 0)
        oracle = RoundOracle(layout, records, features, labels)
        # Collected on both sides, so that garbage in reference cycles,
        # which no one holds, is not counted.
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for t in range(rounds):
            exact_federated_round_shapley(oracle, t)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 16 * rounds * (1 << m) + 1024 * rounds


def test_logistic_member_logits_live_for_one_call():
    rng = np.random.default_rng(5)
    layout = ModelLayout("logistic", 3, 3)
    records = random_records(rng, layout, 2, 4, quantized=False)
    features = rng.normal(size=(20, 3))
    labels = rng.integers(0, 3, size=20)
    per_mask = RoundOracle(layout, records, features, labels)
    oracle = RoundOracle(layout, records, features, labels)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return logits(*args)

    batch = [3, 0, 5, 3, 15, 6]
    with mock.patch.object(engine, "logits", counted):
        got = oracle.evaluate_many(0, batch)
        # Subsets 3, 5 and 6 share one computation of the member logits.
        assert len(calls) == 1 and calls[0] is records[0].updates
        oracle.evaluate_many(0, [6, 5])  # cached
        assert len(calls) == 1
        oracle.evaluate_many(0, [9])
        assert len(calls) == 2
    assert got.tolist() == [per_mask.evaluate(0, mask) for mask in batch]
    # No logits outlive the call that computed them.
    assert set(vars(oracle)) == {"_layout", "records", "_features", "_labels", "_cache"}


def refusal(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@settings(max_examples=40, deadline=None)
@given(
    rounds=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
        min_size=1, max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_table_game_batch_equals_per_mask_lookups(rounds, seed, data):
    game = random_table_game(rounds, np.random.default_rng(seed))
    for t, ids in enumerate(game.rounds):
        limit = 1 << len(ids)
        masks = data.draw(st.lists(st.integers(0, limit - 1), max_size=3 * limit))
        batch = game.evaluate_many(t, masks + masks[:2])
        single = np.array([game.evaluate(t, mask) for mask in masks + masks[:2]])
        assert batch.dtype == np.float64
        assert batch.tobytes() == single.tobytes()
        bad = data.draw(st.sampled_from([-1, limit, limit + 5]))
        at = data.draw(st.integers(0, len(masks)))
        assert refusal(lambda: game.evaluate_many(t, [*masks[:at], bad, *masks[at:]])) == (
            refusal(lambda: game.evaluate(t, bad))
        )
    for t in (-1, len(game.rounds)):
        assert refusal(lambda: game.evaluate_many(t, [0])) == refusal(
            lambda: game.evaluate(t, 0)
        )


@pytest.mark.parametrize("value, calls", [
    (lambda game, ids: exact_federated_round_shapley(game, 0), 1),
    (lambda game, ids: exact_shapley_permutation_form(game), 1),
    (lambda game, ids: federated_loo_round(game, 0), 1),
    (lambda game, ids: permutation_sampling_round(game, 0, ids, 20, 3), 1),
    # The tests, then the endpoints.
    (lambda game, ids: group_testing_round(
        game, 0, group_testing_plan(len(ids), ApproxParams(0.5, 0.3)), 3
    ), 2),
], ids=["exact", "ordering_form", "loo", "permutation", "group_testing"])
def test_table_game_answers_each_round_utility_in_one_batch(value, calls):
    ids = [2, 3, 5, 8]
    game = random_table_game([ids], np.random.default_rng(11))
    lookup = game.evaluate_many
    batches = []

    def counted(t, masks):
        batches.append(len(masks))
        return lookup(t, masks)

    def per_mask(t, mask):
        raise AssertionError("a table game is queried in batches")

    game.evaluate_many = counted
    assert game.evaluate(0, 5) == lookup(0, [5])[0]
    assert batches == [1]  # a lookup is a batch of one
    batches.clear()
    game.evaluate = per_mask
    value(game, ids)
    assert len(batches) == calls


class AdditiveGame:
    """Utility proportional to the summed weights of the selected
    participants; the weights are Python ints, so the sum is exact in any
    iteration order."""

    def __init__(self, weights):
        self.weights = weights
        self.ids = sorted(weights)
        self.scale = sum(weights.values())

    def players(self, round_index):
        return tuple(self.ids)

    def evaluate(self, round_index, mask):
        selected = (pid for b, pid in enumerate(self.ids) if mask >> b & 1)
        return sum(self.weights[pid] for pid in selected) / self.scale

    def evaluate_many(self, round_index, masks):
        return np.array([self.evaluate(round_index, mask) for mask in masks])


@pytest.mark.parametrize("m", [63, 64, 70])
def test_wide_rounds_keep_every_player(m):
    """Masks of 64 or more players do not fit in int64; every estimator
    must still see each player and credit it."""
    ids = list(range(3, 3 + 2 * m, 2))
    game = AdditiveGame({pid: pid for pid in ids})
    full = (1 << m) - 1
    loo = federated_loo_round(game, 0)
    assert loo.values == {
        pid: game.evaluate(0, full) - game.evaluate(0, full ^ (1 << b))
        for b, pid in enumerate(ids)
    }
    assert all(value > 0 for value in loo.values.values())

    permutation = permutation_sampling_round(game, 0, ids, 5, 11)
    assert permutation.values == _reference_permutation(game, ids, 5, 11)
    assert all(value > 0 for value in permutation.values.values())
    assert math.isclose(sum(permutation.values.values()), 1.0, rel_tol=1e-12)

    plan = group_testing_plan(m, ApproxParams(epsilon=1.0, delta=0.3))
    grouped = group_testing_round(game, 0, plan, 11)
    assert grouped.values == _reference_group_testing(game, ids, plan, 11)
    gain = game.evaluate(0, full) - game.evaluate(0, 0)
    assert abs(math.fsum(grouped.values.values()) - gain) <= 1e-12


class AggregateSubsetOracle:
    """Reference utilities of one recorded round: one ``aggregate_subset``
    and ``evaluate_utility`` call per mask."""

    def __init__(self, layout, record, features, labels):
        self.layout, self.record = layout, record
        self.features, self.labels = features, labels

    def players(self, round_index):
        assert round_index == 0
        return tuple(sorted(self.record.selected))

    def evaluate(self, round_index, mask):
        assert round_index == 0
        params = aggregate_subset(self.record, members(self.record, mask))
        return evaluate_utility(self.layout, params, self.features, self.labels)

    def evaluate_many(self, round_index, masks):
        return np.array([self.evaluate(round_index, mask) for mask in masks])


class LogitWalkOracle(AggregateSubsetOracle):
    """Reference logistic utilities of one recorded round: the per-mask
    walk of ``round_utilities``."""

    def evaluate(self, round_index, mask):
        assert round_index == 0
        return round_utilities(self.layout, self.record, self.features, self.labels, [mask])[0]


def assert_wide_round_matches(layout, m, reference_type):
    """Rounds of 64 or more players reach the oracle as Python-int masks;
    batched utilities must decode every member of them."""
    rng = np.random.default_rng(m)
    records = random_records(rng, layout, 1, m, quantized=False)
    features = rng.normal(size=(30, 3))
    labels = rng.integers(0, 3, size=30)
    ids = records[0].selected
    reference = reference_type(layout, records[0], features, labels)

    def fresh():
        return RoundOracle(layout, records, features, labels)

    high = [1 << 63, 1 << (m - 1), (1 << (m - 1)) | (1 << 63) | 1]
    assert fresh().evaluate_many(0, high).tolist() == [
        reference.evaluate(0, mask) for mask in high
    ]
    loo = federated_loo_round(fresh(), 0)
    assert loo.values == federated_loo_round(reference, 0).values
    permutation = permutation_sampling_round(fresh(), 0, ids, 5, 11)
    assert permutation.values == permutation_sampling_round(reference, 0, ids, 5, 11).values
    assert any(permutation.values[pid] != 0 for pid in ids[63:])
    plan = group_testing_plan(m, ApproxParams(epsilon=1.0, delta=0.3))
    grouped = group_testing_round(fresh(), 0, plan, 11)
    assert grouped.values == group_testing_round(reference, 0, plan, 11).values


@pytest.mark.parametrize("m", [64, 70])
def test_wide_mlp_rounds_match_per_mask_reference(m):
    assert_wide_round_matches(ModelLayout("mlp", 3, 3, hidden_units=4), m, AggregateSubsetOracle)


@pytest.mark.parametrize("m", [64, 70])
def test_wide_logistic_rounds_match_per_mask_walk(m):
    assert_wide_round_matches(ModelLayout("logistic", 3, 3), m, LogitWalkOracle)
