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


def init_params(
    layout: ModelLayout,
    rng: np.random.Generator | None = None,
    scale: float = 0.0,
) -> np.ndarray:
    """Zero-initialized parameters, or Gaussian with ``scale`` when positive."""
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    if scale == 0.0:
        return np.zeros(layout.param_count)
    if rng is None:
        raise ValueError("random initialization needs a generator")
    return rng.normal(0.0, scale, size=layout.param_count)


def check_params(layout: ModelLayout, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (layout.param_count,):
        raise ValueError(
            f"parameter vector has shape {theta.shape}, layout needs "
            f"({layout.param_count},)"
        )
    return theta


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
    theta = check_params(layout, theta)
    if layout.arch == "logistic":
        weights, bias = _unpack_logistic(layout, theta)
        return features @ weights + bias
    w1, b1, w2, b2 = _unpack_mlp(layout, theta)
    hidden = np.maximum(features @ w1 + b1, 0.0)
    return hidden @ w2 + b2


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def loss_and_gradient(
    layout: ModelLayout,
    theta: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy and its gradient with respect to ``theta``.

    A leading participant axis computes k independent problems at once:
    ``theta`` (k, P), ``features`` (k, b, d) and ``labels`` (k, b) give
    losses (k,) and gradients (k, P). Every slice runs the same 2-D
    products and reductions as the flat call, which is the k = 1 case,
    so each is bitwise what the flat call on that slice returns.
    """
    theta = np.asarray(theta, dtype=np.float64)
    flat = theta.ndim == 1
    if flat:
        theta, features, labels = theta[None], features[None], labels[None]
    if theta.ndim != 2 or theta.shape[1] != layout.param_count:
        raise ValueError(
            f"parameter array has shape {theta.shape}, layout needs "
            f"({layout.param_count},) or (k, {layout.param_count})"
        )
    k, n = labels.shape
    if layout.arch == "logistic":
        weights, bias = _unpack_logistic(layout, theta)
        log_probs = _log_softmax(features @ weights + bias)
    else:
        w1, b1, w2, b2 = _unpack_mlp(layout, theta)
        pre = features @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        log_probs = _log_softmax(hidden @ w2 + b2)
    # Flat position of each sample's label score in the (k, n, c) array.
    picks = np.arange(0, k * n * layout.n_classes, layout.n_classes).reshape(k, n) + labels
    losses = -log_probs.reshape(-1)[picks].sum(axis=1) / n
    delta = np.exp(log_probs)
    delta.reshape(-1)[picks] -= 1.0
    delta /= n
    # Each gradient block is written straight into its place in the layout.
    grad = np.empty_like(theta)
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


def mean_cross_entropy(
    layout: ModelLayout, theta: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> float:
    log_probs = _log_softmax(logits(layout, theta, features))
    return float(-log_probs[np.arange(features.shape[0]), labels].mean())


def predict(layout: ModelLayout, theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    return logits(layout, theta, features).argmax(axis=1)


def accuracy_from_logits(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose highest score (the first one on ties) is the label."""
    return np.count_nonzero(scores.argmax(axis=1) == labels) / len(labels)


def accuracy(
    layout: ModelLayout, theta: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> float:
    return accuracy_from_logits(logits(layout, theta, features), labels)
