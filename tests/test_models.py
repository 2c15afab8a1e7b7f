import numpy as np
import pytest

from fedval.models import (
    ModelLayout,
    accuracy,
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
