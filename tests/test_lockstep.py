"""Generated-input checks of lockstep local training.

``train_round`` advances every participant with the same shard size as
one stacked SGD run. These tests hold it bitwise to a per-participant
loop over the flat gradient, and hold the stacked gradient bitwise to
the flat one and the flat one to the plain 2-D formulas.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedval.engine import TrainingConfig, train_round
from fedval.models import ModelLayout, loss_and_gradient
from fedval.seeding import substream


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
)
def test_lockstep_round_matches_per_participant_loop(
    layout, sizes, batch_size, local_epochs, learning_rate, lr_decay, round_index, seed
):
    # Mixed shard sizes put several lockstep groups in one round; sizes
    # that batch_size does not divide end each epoch on a partial batch.
    rng = np.random.default_rng(seed)
    # Unsorted ids: updates come back keyed in the order given.
    participants = tuple(rng.choice(50, size=len(sizes), replace=False).tolist())
    shards = {
        pid: (rng.normal(size=(n, layout.n_features)), rng.integers(0, layout.n_classes, n))
        for pid, n in zip(participants, sizes)
    }
    cfg = TrainingConfig(
        layout, round_index + 1, 1.0, local_epochs, batch_size, learning_rate,
        seed=seed, lr_decay=lr_decay,
    )
    theta = random_params(layout, rng)
    updates = train_round(theta, shards, participants, cfg, round_index)
    assert list(updates) == list(participants)
    for pid in participants:
        expected = reference_update(
            theta, *shards[pid], cfg, substream(seed, "local", round_index, pid), round_index
        )
        assert updates[pid].tobytes() == expected.tobytes()


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
    for i in range(k):
        loss, grad = loss_and_gradient(layout, thetas[i], features[i], labels[i])
        plain_loss, plain_grad = plain_loss_and_gradient(
            layout, thetas[i], features[i], labels[i]
        )
        assert losses[i] == loss == plain_loss
        assert grads[i].tobytes() == grad.tobytes() == plain_grad.tobytes()
