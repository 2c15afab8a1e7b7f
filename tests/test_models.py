import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedval.models import (
    ModelLayout,
    _row_max,
    accuracy,
    count_label_at_max,
    init_params,
    logits,
    loss_and_gradient,
)


def central_difference_gradient(layout, theta, features, labels, step=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] += step
        up, _ = loss_and_gradient(layout, bumped, features, labels)
        bumped[i] -= 2 * step
        down, _ = loss_and_gradient(layout, bumped, features, labels)
        grad[i] = (up - down) / (2 * step)
    return grad


class TestLayout:
    def test_param_counts(self):
        assert ModelLayout("logistic", 4, 3).param_count == 4 * 3 + 3
        assert ModelLayout("mlp", 4, 3, hidden_units=5).param_count == 4 * 5 + 5 + 5 * 3 + 3

    def test_rejects_unknown_architecture(self):
        with pytest.raises(ValueError):
            ModelLayout("cnn", 4, 3)

    def test_mlp_needs_hidden_units(self):
        with pytest.raises(ValueError):
            ModelLayout("mlp", 4, 3)

    def test_logistic_rejects_hidden_units(self):
        with pytest.raises(ValueError):
            ModelLayout("logistic", 4, 3, hidden_units=2)

    def test_dict_roundtrip(self):
        layout = ModelLayout("mlp", 8, 4, hidden_units=6)
        assert ModelLayout.from_dict(layout.to_dict()) == layout


class TestInit:
    def test_zero_by_default(self, rng):
        layout = ModelLayout("logistic", 3, 2)
        assert np.array_equal(init_params(layout, rng, 0.0), np.zeros(layout.param_count))

    def test_scaled_init(self, rng):
        layout = ModelLayout("mlp", 3, 2, hidden_units=4)
        theta = init_params(layout, rng, scale=0.5)
        assert theta.shape == (layout.param_count,)
        assert theta.std() == pytest.approx(0.5, rel=0.5)


class TestGradients:
    @pytest.mark.parametrize(
        "layout",
        [ModelLayout("logistic", 6, 4), ModelLayout("mlp", 6, 4, hidden_units=5)],
        ids=["logistic", "mlp"],
    )
    def test_matches_central_differences(self, layout, rng):
        for _ in range(10):
            features = rng.normal(size=(9, layout.n_features))
            labels = rng.integers(0, layout.n_classes, size=9)
            theta = rng.normal(0, 0.7, size=layout.param_count)
            _, grad = loss_and_gradient(layout, theta, features, labels)
            numeric = central_difference_gradient(layout, theta, features, labels)
            scale = np.maximum(np.abs(grad) + np.abs(numeric), 1e-4)
            assert (np.abs(grad - numeric) / scale).max() <= 1e-4

    def test_wrong_shape_rejected(self, rng):
        layout = ModelLayout("logistic", 6, 4)
        with pytest.raises(ValueError):
            loss_and_gradient(layout, np.zeros(3), rng.normal(size=(2, 6)), np.zeros(2, dtype=int))


# Scores from a small alphabet, so rows hold ties, zeros of both signs,
# infinities and NaN, next to ordinary draws.
SPECIAL_SCORES = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 40), st.integers(1, 12)),
    seed=st.integers(0, 2**32 - 1),
    special_share=st.sampled_from([0.0, 0.3, 1.0]),
)
# Rows whose maximum is 0.0 and -0.0 at once, where the reduction and an
# elementwise chain return different zeros.
@example(shape=(3, 5, 10), seed=62, special_share=0.3)
def test_row_max_is_bitwise_the_reduction(shape, seed, special_share):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=shape)
    special = rng.random(shape) < special_share
    scores[special] = rng.choice(SPECIAL_SCORES, size=int(special.sum()))
    assert _row_max(scores).tobytes() == scores.max(axis=-1, keepdims=True).tobytes()
    flat = scores[0]
    assert _row_max(flat).tobytes() == flat.max(axis=-1, keepdims=True).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(2, 12), st.integers(1, 40)),
    seed=st.integers(0, 2**32 - 1),
    special_share=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
)
def test_label_at_max_count_is_the_argmax_count(shape, seed, special_share):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=shape)
    special = rng.random(shape) < special_share
    scores[special] = rng.choice(SPECIAL_SCORES, size=int(special.sum()))
    labels = rng.integers(0, shape[1], size=shape[2])
    expected = np.count_nonzero(scores.argmax(axis=1) == labels, axis=1)
    assert count_label_at_max(scores, labels).tolist() == expected.tolist()


# Samples as rows (n, c); each case is one class-major slice (1, c, n).
@pytest.mark.parametrize("rows, labels", [
    # One maximum a row: the label's score at the row maximum is a hit.
    ([[1.0, 3.0, 2.0], [-0.0, -1.0, -2.0], [np.inf, 0.0, 1.0]], [1, 0, 2]),
    # Tied maxima, including +0.0 and -0.0: argmax takes the first.
    ([[2.0, 2.0], [-0.0, 0.0], [1.0, 0.0]], [1, 1, 0]),
    # A NaN row beside a tied row holds as many maxima as rows; argmax
    # takes the NaN's index in one and the first maximum in the other.
    ([[np.nan, 1.0], [2.0, 2.0]], [0, 0]),
    ([[1.0, np.nan], [-np.inf, -np.inf]], [1, 0]),
], ids=["unique", "ties", "nan_beside_tie", "nan_beside_infinite_tie"])
def test_label_at_max_count_keeps_argmax_rules(rows, labels):
    scores = np.array(rows).T[None].copy()
    labels = np.array(labels)
    expected = np.count_nonzero(scores.argmax(axis=1) == labels, axis=1)
    assert count_label_at_max(scores, labels).tolist() == expected.tolist()


class TestPrediction:
    def test_accuracy_matches_counting(self, rng):
        layout = ModelLayout("logistic", 5, 3)
        theta = rng.normal(size=layout.param_count)
        features = rng.normal(size=(40, 5))
        labels = rng.integers(0, 3, size=40)
        predicted = logits(layout, theta, features).argmax(axis=1)
        correct = sum(1 for guess, truth in zip(predicted, labels) if guess == truth)
        assert accuracy(layout, theta, features, labels) == correct / 40

    def test_zero_params_predict_first_class(self):
        layout = ModelLayout("logistic", 5, 3)
        features = np.ones((4, 5))
        scores = logits(layout, np.zeros(layout.param_count), features)
        assert (scores.argmax(axis=1) == 0).all()

    def test_cross_entropy_at_uniform(self):
        layout = ModelLayout("logistic", 5, 4)
        features = np.ones((6, 5))
        labels = np.arange(6) % 4
        ce, _ = loss_and_gradient(layout, np.zeros(layout.param_count), features, labels)
        assert ce == pytest.approx(np.log(4), abs=1e-12)

    def test_mlp_forward_shape(self, rng):
        layout = ModelLayout("mlp", 5, 3, hidden_units=7)
        theta = rng.normal(size=layout.param_count)
        scores = logits(layout, theta, rng.normal(size=(11, 5)))
        assert scores.shape == (11, 3)
