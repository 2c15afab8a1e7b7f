"""Generated-input checks of lockstep local training.

``train_round`` advances the participants with the same shard size as
stacked SGD runs of at most one ``_SLICE_BYTES`` slice of rows each, and
``rerun_with_selections`` advances a whole grid of retrain replays that
way. These tests hold the grid bitwise to one ``train_round`` per round
per keep rule, ``train_round`` bitwise to a per-participant loop over
the flat gradient at any slice size, and the stacked gradient bitwise
to the flat one and the flat one to the plain 2-D formulas.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedval import engine
from fedval.engine import (
    TrainingError,
    initial_model,
    rerun_with_selections,
    train_round,
)
from fedval.models import ModelLayout, loss_and_gradient
from fedval.seeding import substream

from conftest import HeldRows, index_shards, training
from test_datasets import traced_peak


@st.composite
def layouts(draw):
    arch = draw(st.sampled_from(["logistic", "mlp"]))
    d = draw(st.integers(1, 6))
    # Beyond 8 classes numpy sums rows pairwise rather than in sequence.
    c = draw(st.integers(2, 10))
    h = draw(st.integers(1, 5)) if arch == "mlp" else 0
    return ModelLayout(arch, d, c, h)


def random_params(layout, rng, count=None):
    shape = (layout.param_count,) if count is None else (count, layout.param_count)
    return rng.normal(0.0, 0.5, size=shape)


def reference_update(theta, features, labels, cfg, rng, round_index):
    """One participant's local SGD, step by step through the flat gradient."""
    theta = theta.copy()
    rate = cfg.learning_rate * cfg.lr_decay**round_index
    n = len(labels)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grad = loss_and_gradient(cfg.layout, theta, features[batch], labels[batch])
            theta -= rate * grad
    return theta


def plain_loss_and_gradient(layout, theta, features, labels):
    """The 2-D formulas written out for one parameter vector."""
    d, c, h = layout.n_features, layout.n_classes, layout.hidden_units
    rows = np.arange(len(labels))

    def log_softmax(scores):
        shifted = scores - scores.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    if layout.arch == "logistic":
        weights, bias = theta[: d * c].reshape(d, c), theta[d * c :]
        log_probs = log_softmax(features @ weights + bias)
    else:
        w1 = theta[: d * h].reshape(d, h)
        b1 = theta[d * h : d * h + h]
        w2 = theta[d * h + h : d * h + h + h * c].reshape(h, c)
        b2 = theta[d * h + h + h * c :]
        pre = features @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        log_probs = log_softmax(hidden @ w2 + b2)
    loss = float(-log_probs[rows, labels].mean())
    delta = np.exp(log_probs)
    delta[rows, labels] -= 1.0
    delta /= len(labels)
    if layout.arch == "logistic":
        parts = [(features.T @ delta).ravel(), delta.sum(axis=0)]
    else:
        back = delta @ w2.T
        back[pre <= 0.0] = 0.0
        parts = [
            (features.T @ back).ravel(), back.sum(axis=0),
            (hidden.T @ delta).ravel(), delta.sum(axis=0),
        ]
    return loss, np.concatenate(parts)


@settings(max_examples=60, deadline=None)
@given(
    layout=layouts(),
    sizes=st.lists(st.sampled_from([1, 5, 7, 12, 23]), min_size=1, max_size=6),
    batch_size=st.integers(1, 13),
    local_epochs=st.integers(1, 3),
    learning_rate=st.sampled_from([0.05, 0.3, 1.0]),
    lr_decay=st.sampled_from([1.0, 0.9, 0.5]),
    round_index=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    # 0 puts every row in its own slice.
    slice_bytes=st.sampled_from([engine._SLICE_BYTES, 0, 20_000]),
)
def test_lockstep_round_matches_per_participant_loop(
    layout, sizes, batch_size, local_epochs, learning_rate, lr_decay, round_index, seed,
    slice_bytes,
):
    # Mixed shard sizes put several lockstep groups in one round; sizes
    # that batch_size does not divide end each epoch on a partial batch.
    rng = np.random.default_rng(seed)
    # Unsorted ids: row i of the updates is participants[i]'s.
    participants = tuple(rng.choice(50, size=len(sizes), replace=False).tolist())
    parts = {
        pid: (rng.normal(size=(n, layout.n_features)), rng.integers(0, layout.n_classes, n))
        for pid, n in zip(participants, sizes)
    }
    data, shards = index_shards(parts, layout.n_classes, rng)
    cfg = training(
        layout, round_index + 1, 1.0, local_epochs, batch_size, learning_rate,
        seed=seed, lr_decay=lr_decay, init_scale=0.3,
    )
    theta = random_params(layout, rng)
    with mock.patch.object(engine, "_SLICE_BYTES", slice_bytes):
        updates = train_round(theta, data, shards, participants, cfg, round_index)
    assert updates.shape == (len(participants), layout.param_count)
    for row, pid in zip(updates, participants):
        expected = reference_update(
            theta, *parts[pid], cfg, substream(seed, "local", round_index, pid), round_index
        )
        assert row.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    layout=layouts(),
    k=st.integers(1, 5),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
def test_stacked_gradient_is_the_flat_gradient_per_slice(layout, k, n, seed):
    rng = np.random.default_rng(seed)
    thetas = random_params(layout, rng, k)
    features = rng.normal(size=(k, n, layout.n_features))
    labels = rng.integers(0, layout.n_classes, size=(k, n))
    losses, grads = loss_and_gradient(layout, thetas, features, labels)
    assert losses.shape == (k,) and grads.shape == (k, layout.param_count)
    # A caller's gradient array is written in full and returned.
    out = np.full_like(thetas, np.nan)
    out_losses, out_grads = loss_and_gradient(layout, thetas, features, labels, out=out)
    assert out_grads is out
    assert out_losses.tobytes() == losses.tobytes() and out.tobytes() == grads.tobytes()
    for i in range(k):
        loss, grad = loss_and_gradient(layout, thetas[i], features[i], labels[i])
        plain_loss, plain_grad = plain_loss_and_gradient(
            layout, thetas[i], features[i], labels[i]
        )
        flat_out = np.full(layout.param_count, np.nan)
        out_loss, out_grad = loss_and_gradient(
            layout, thetas[i], features[i], labels[i], out=flat_out
        )
        assert losses[i] == loss == plain_loss == out_loss
        assert grads[i].tobytes() == grad.tobytes() == plain_grad.tobytes()
        assert np.shares_memory(out_grad, flat_out) and flat_out.tobytes() == grad.tobytes()


def test_training_round_stacks_at_most_one_slice():
    layout = ModelLayout("logistic", 784, 10)
    rng = np.random.default_rng(5)
    parts = {pid: (rng.normal(size=(100, 784)), rng.integers(0, 10, 100)) for pid in range(10)}
    data, shards = index_shards(parts, 10, rng)
    cfg = training(layout, 1, 1.0, 1, 50, 0.5, seed=5, init_scale=0.3)
    theta = initial_model(cfg)
    slice_bytes = engine._row_bytes(cfg)
    # One row's working set and the (10, P) updates the round returns;
    # stacking all 10 minibatches at once needs 3.1 MB for them alone.
    bound = slice_bytes + len(parts) * layout.param_count * 8

    with mock.patch.object(engine, "_SLICE_BYTES", slice_bytes):
        _, peak = traced_peak(lambda: train_round(theta, data, shards, tuple(parts), cfg, 0))
    assert peak < bound


def replay_alone(data, shards, cfg, selections, keep):
    """One rule's retrain replay as a plain loop of ``train_round`` calls."""
    theta = initial_model(cfg)
    for t, selection in enumerate(selections):
        selected = tuple(sorted(selection))
        updates = train_round(theta, data, shards, tuple(sorted(keep(t, selected))), cfg, t)
        theta = updates.mean(axis=0)
    return theta


def table_rule(table):
    """A keep rule that retains ``table[t]`` in round t."""
    return lambda t, selected: table[t]


@st.composite
def grids(draw):
    layout = draw(layouts())
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # Mixed shard sizes split each round into several lockstep groups.
    sizes = draw(st.lists(st.sampled_from([4, 7, 12]), min_size=2, max_size=6))
    ids = rng.choice(40, size=len(sizes), replace=False).tolist()
    data, shards = index_shards(
        {
            pid: (rng.normal(size=(n, layout.n_features)), rng.integers(0, layout.n_classes, n))
            for pid, n in zip(ids, sizes)
        },
        layout.n_classes,
        rng,
    )
    rounds = draw(st.integers(1, 4))
    selections = [
        tuple(draw(st.lists(st.sampled_from(ids), min_size=1, unique=True)))
        for _ in range(rounds)
    ]

    def subset(selection):
        return tuple(draw(st.lists(st.sampled_from(selection), min_size=1, unique=True)))

    # Every table shares a prefix of the first one and then diverges.
    base = [subset(selection) for selection in selections]
    tables = [base]
    for _ in range(draw(st.integers(0, 4))):
        split = draw(st.integers(0, rounds))
        tables.append(base[:split] + [subset(selection) for selection in selections[split:]])
    cfg = training(
        layout, rounds, 1.0,
        local_epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 13)),
        learning_rate=draw(st.sampled_from([0.05, 0.3, 1.0])),
        seed=seed,
        lr_decay=draw(st.sampled_from([1.0, 0.9, 0.5])),
        # A zero start is refused for an MLP.
        init_scale=draw(st.sampled_from([0.0, 0.3] if layout.arch == "logistic" else [0.3])),
    )
    return cfg, data, shards, selections, tables


@settings(max_examples=60, deadline=None)
@given(
    case=grids(),
    twice=st.integers(0, 4),
    # 0 puts every incoming model in its own slice.
    slice_bytes=st.sampled_from([engine._SLICE_BYTES, 0, 20_000]),
)
def test_grid_replays_match_one_replay_per_rule(case, twice, slice_bytes):
    cfg, data, shards, selections, tables = case
    keeps = [table_rule(table) for table in tables]
    repeated = twice % len(keeps)
    keeps.append(keeps[repeated])  # the same rule given twice
    tables.append(tables[repeated])
    jobs = []
    real_train_jobs = engine._train_jobs

    def counted(starts, round_jobs, *args):
        jobs.extend(round_jobs)
        return real_train_jobs(starts, round_jobs, *args)

    with mock.patch.object(engine, "_SLICE_BYTES", slice_bytes), \
            mock.patch.object(engine, "_train_jobs", counted):
        finals = rerun_with_selections(HeldRows(data, shards), cfg, selections, keeps)
    assert len(finals) == len(keeps)
    for keep, table, final in zip(keeps, tables, finals):
        expected = replay_alone(data, shards, cfg, selections, keep)
        assert final.tobytes() == expected.tobytes()
    # Equal tables share one model, and each distinct (retained prefix,
    # participant) update trains once.
    for i, table in enumerate(tables):
        assert finals[i] is finals[tables.index(table)]
    distinct = {
        (tuple(tuple(sorted(kept)) for kept in table[:t]), pid)
        for table in tables
        for t in range(cfg.rounds)
        for pid in table[t]
    }
    assert len(jobs) == len(distinct)


def small_grid():
    layout = ModelLayout("logistic", 3, 2)
    rng = np.random.default_rng(4)
    parts = {pid: (rng.normal(size=(6, 3)), rng.integers(0, 2, 6)) for pid in range(4)}
    data, shards = index_shards(parts, 2, rng)
    cfg = training(layout, 3, 1.0, 1, 4, 0.3, seed=4)
    return cfg, data, shards, [(0, 1, 2, 3)] * 3


def test_diverging_replay_names_its_round_and_participant():
    cfg, data, shards, selections = small_grid()
    # Participant 2's huge features overflow its first trained model.
    data.features[shards[2]] *= 1e200
    clean = table_rule([(0, 1), (0, 1), (0, 1)])
    late = table_rule([(0, 1), (1, 3), (1, 2, 3)])
    message = "training diverged at round 2, participant 2"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=message):
            replay_alone(data, shards, cfg, selections, late)
        with pytest.raises(TrainingError, match=message):
            rerun_with_selections(HeldRows(data, shards), cfg, selections, [clean, late, clean])


@pytest.mark.parametrize(
    "tables, message",
    [
        ([[(0,), (1,), ()]], "round 2 would retain no participants"),
        ([[(0,), (1, 7), (2,)]], "round 1 retains participants that were not selected"),
        # The first rule's error wins, as in one replay after another.
        (
            [[(0,), (1,), ()], [(9,), (1,), (2,)]],
            "round 2 would retain no participants",
        ),
    ],
)
def test_grid_refuses_bad_retained_sets_before_training(tables, message):
    cfg, data, shards, selections = small_grid()
    untouched = mock.patch.object(
        engine, "_train_jobs", side_effect=AssertionError("trained before validating")
    )
    with untouched, pytest.raises(ValueError, match=message):
        rerun_with_selections(HeldRows(data, shards), cfg, selections, [table_rule(t) for t in tables])
