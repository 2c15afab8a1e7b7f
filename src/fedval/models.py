"""Flat-parameter classifiers with closed-form gradients.

Two small models cover the simulator's needs without an autodiff
dependency: multinomial logistic regression and a one-hidden-layer ReLU
network. Parameters live in a single flat vector whose layout is fixed
by the architecture descriptor, which is what lets round aggregation
and snapshotting treat every model as plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

ARCHITECTURES = ("logistic", "mlp")


@dataclass(frozen=True)
class ModelLayout:
    """Architecture descriptor fixing the flat parameter layout."""

    arch: str
    n_features: int
    n_classes: int
    hidden_units: int = 0

    def __post_init__(self) -> None:
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be positive, got {self.n_features}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be at least 2, got {self.n_classes}")
        if self.arch == "mlp" and self.hidden_units < 1:
            raise ValueError("mlp needs hidden_units >= 1")
        if self.arch == "logistic" and self.hidden_units != 0:
            raise ValueError("logistic model takes no hidden_units")

    @property
    def param_count(self) -> int:
        d, c, h = self.n_features, self.n_classes, self.hidden_units
        if self.arch == "logistic":
            return d * c + c
        return d * h + h + h * c + c

    def to_dict(self) -> dict[str, Any]:
        return {
            "arch": self.arch,
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "hidden_units": self.hidden_units,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ModelLayout":
        return cls(
            arch=str(doc["arch"]),
            n_features=int(doc["n_features"]),
            n_classes=int(doc["n_classes"]),
            hidden_units=int(doc.get("hidden_units", 0)),
        )


def init_params(layout: ModelLayout, rng: np.random.Generator, scale: float) -> np.ndarray:
    """Zero parameters at ``scale`` 0, else Gaussian with that ``scale``."""
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    if scale == 0.0:
        return np.zeros(layout.param_count)
    return rng.normal(0.0, scale, size=layout.param_count)


def _unpack_logistic(layout: ModelLayout, theta: np.ndarray):
    """Weights and bias of a parameter vector, or of a stack of them along
    leading axes; the bias gains a row axis to broadcast over samples."""
    d, c = layout.n_features, layout.n_classes
    lead = theta.shape[:-1]
    weights = theta[..., : d * c].reshape(*lead, d, c)
    bias = theta[..., None, d * c :]
    return weights, bias


def _unpack_mlp(layout: ModelLayout, theta: np.ndarray):
    d, c, h = layout.n_features, layout.n_classes, layout.hidden_units
    lead = theta.shape[:-1]
    offset = 0
    w1 = theta[..., offset : offset + d * h].reshape(*lead, d, h)
    offset += d * h
    b1 = theta[..., None, offset : offset + h]
    offset += h
    w2 = theta[..., offset : offset + h * c].reshape(*lead, h, c)
    offset += h * c
    b2 = theta[..., None, offset:]
    return w1, b1, w2, b2


def logits(layout: ModelLayout, theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Class scores (n, c) of the n rows of ``features``.

    A stack of k parameter vectors (k, P) gives scores (k, n, c). Every
    slice runs the same 2-D products and elementwise steps as the flat
    call, which is the k = 1 case, so each is bitwise what the flat call
    on that vector returns.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim not in (1, 2) or theta.shape[-1] != layout.param_count:
        raise ValueError(
            f"parameter array has shape {theta.shape}, layout needs "
            f"({layout.param_count},) or (k, {layout.param_count})"
        )
    if layout.arch == "logistic":
        weights, bias = _unpack_logistic(layout, theta)
        return features @ weights + bias
    lead, n = theta.shape[:-1], features.shape[0]
    return mlp_logits_into(
        layout, theta, features,
        np.empty((*lead, n, layout.hidden_units)), np.empty((*lead, n, layout.n_classes)),
    )


def mlp_logits_into(
    layout: ModelLayout,
    theta: np.ndarray,
    features: np.ndarray,
    hidden: np.ndarray,
    scores: np.ndarray,
) -> np.ndarray:
    """An MLP's ``logits``, computed in caller-owned arrays and returned as
    ``scores``: ``hidden`` (k, n, h) takes the hidden activations and
    ``scores`` (k, n, c) the class scores of a stack ``theta`` (k, P), or
    (n, h) and (n, c) of one vector. No other array is allocated."""
    w1, b1, w2, b2 = _unpack_mlp(layout, theta)
    np.matmul(features, w1, out=hidden)
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    np.matmul(hidden, w2, out=scores)
    scores += b2
    return scores


def _row_max(scores: np.ndarray) -> np.ndarray:
    """``scores.max(axis=-1, keepdims=True)``, bit for bit, from a chain of
    elementwise maxima over the class columns, which skips the reduction's
    per-row overhead. They can differ only in which zero (+0.0 or -0.0) or
    NaN they return, so a zero or non-finite row maximum is the reduction's."""
    top = scores[..., :1].copy()
    for column in range(1, scores.shape[-1]):
        np.maximum(top, scores[..., column : column + 1], out=top)
    if top.all() and np.isfinite(top).all():
        return top
    return scores.max(axis=-1, keepdims=True)


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    """Log-probabilities of ``scores`` along the last axis, written over
    ``scores`` and returned: each row is shifted by its maximum, then by
    the log of its summed exponentials."""
    scores -= _row_max(scores)
    scores -= np.log(np.exp(scores).sum(axis=-1, keepdims=True))
    return scores


def loss_and_gradient(
    layout: ModelLayout,
    theta: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy and its gradient with respect to ``theta``.

    A leading participant axis computes k independent problems at once:
    ``theta`` (k, P), ``features`` (k, b, d) and ``labels`` (k, b) give
    losses (k,) and gradients (k, P). Every slice runs the same 2-D
    products and reductions as the flat call, which is the k = 1 case,
    so each is bitwise what the flat call on that slice returns. The
    gradient is written into ``out``, a C-contiguous float64 array shaped
    as ``theta``, when one is given, and into a new array otherwise.
    """
    theta = np.asarray(theta, dtype=np.float64)
    flat = theta.ndim == 1
    if flat:
        theta, features, labels = theta[None], features[None], labels[None]
        out = None if out is None else out[None]
    if theta.ndim != 2 or theta.shape[1] != layout.param_count:
        raise ValueError(
            f"parameter array has shape {theta.shape}, layout needs "
            f"({layout.param_count},) or (k, {layout.param_count})"
        )
    k, n = labels.shape
    # Biases are added in place and the scores turned into log-probabilities
    # in place: the same IEEE operations without a temporary per step.
    if layout.arch == "logistic":
        weights, bias = _unpack_logistic(layout, theta)
        scores = features @ weights
        scores += bias
    else:
        w1, b1, w2, b2 = _unpack_mlp(layout, theta)
        pre = features @ w1
        pre += b1
        hidden = np.maximum(pre, 0.0)
        scores = hidden @ w2
        scores += b2
    log_probs = _log_softmax(scores)
    # Flat position of each sample's label score in the (k, n, c) array.
    picks = np.arange(0, k * n * layout.n_classes, layout.n_classes).reshape(k, n) + labels
    losses = -log_probs.reshape(-1)[picks].sum(axis=1) / n
    delta = np.exp(log_probs, out=log_probs)
    delta.reshape(-1)[picks] -= 1.0
    delta /= n
    # Each gradient block is written straight into its place in the layout.
    grad = np.empty_like(theta) if out is None else out
    if layout.arch == "logistic":
        grad_weights, grad_bias = _unpack_logistic(layout, grad)
        np.matmul(features.transpose(0, 2, 1), delta, out=grad_weights)
        delta.sum(axis=1, keepdims=True, out=grad_bias)
    else:
        grad_w1, grad_b1, grad_w2, grad_b2 = _unpack_mlp(layout, grad)
        back = delta @ w2.transpose(0, 2, 1)
        back[pre <= 0.0] = 0.0
        np.matmul(features.transpose(0, 2, 1), back, out=grad_w1)
        back.sum(axis=1, keepdims=True, out=grad_b1)
        np.matmul(hidden.transpose(0, 2, 1), delta, out=grad_w2)
        delta.sum(axis=1, keepdims=True, out=grad_b2)
    if flat:
        return float(losses[0]), grad[0]
    return losses, grad


def accuracy_from_logits(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose highest score (the first one on ties) is the label."""
    return np.count_nonzero(scores.argmax(axis=1) == labels) / len(labels)


def label_positions(labels: np.ndarray) -> np.ndarray:
    """Flat position of each sample's label score in a class-major (c, n)
    slice: ``labels * n + arange(n)``, for ``count_label_at_max``."""
    return labels * len(labels) + np.arange(len(labels))


def count_label_at_max(scores: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``np.count_nonzero(scores.argmax(axis=1) == labels, axis=1)``: per
    slice of class-major scores (b, c, n), the samples whose highest score,
    the first one on ties, is their label's. ``positions`` are the labels'
    ``label_positions``, computed once by a caller that counts many batches.

    Where every sample has exactly one maximum and no NaN, a sample is a hit
    when its label's score equals its maximum, which skips argmax's
    per-sample overhead. The maximum is only compared, so which zero it
    is does not matter. A tie or NaN anywhere in the batch sends it to
    argmax, whose first-index and NaN rules then decide."""
    b, c, n = scores.shape
    top = scores.max(axis=1)
    at_top = scores == top[:, None]
    if np.count_nonzero(at_top) == b * n and not np.isnan(top).any():
        hits = np.take(at_top.reshape(b, c * n), positions, axis=1)
    else:
        hits = scores.argmax(axis=1) == positions // n
    return count_rows(hits)


def count_rows(flags: np.ndarray) -> np.ndarray:
    """The true entries of each row of a (b, n) bool array. A call per row:
    counting along an axis sums through a cast, which is slower for a few
    rows and allocates numpy's cast buffer."""
    return np.fromiter((np.count_nonzero(row) for row in flags), np.intp, len(flags))


def accuracy(
    layout: ModelLayout, theta: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> float:
    return accuracy_from_logits(logits(layout, theta, features), labels)
