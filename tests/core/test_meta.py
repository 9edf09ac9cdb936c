"""Tests for the logistic base classifier and self-training wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SelfTrainingClassifier, fit_logistic


def separable_data(rng, n=200):
    """1-D separable problem embedded in 3 features."""
    features = rng.random((n, 3))
    labels = (features[:, 0] > 0.5).astype(np.int64)
    return features, labels


class TestFitLogistic:
    def test_learns_separable_problem(self, rng):
        features, labels = separable_data(rng)
        model = fit_logistic(features, labels, l2=1e-3)
        predictions = model.predict_probability(features) > 0.5
        assert (predictions == labels).mean() > 0.95

    def test_informative_feature_gets_positive_weight(self, rng):
        features, labels = separable_data(rng)
        model = fit_logistic(features, labels, l2=1e-3)
        assert model.weights[0] > abs(model.weights[1])
        assert model.weights[0] > abs(model.weights[2])

    def test_requires_both_classes(self, rng):
        features = rng.random((10, 2))
        with pytest.raises(ValueError):
            fit_logistic(features, np.ones(10))

    def test_rejects_bad_labels(self, rng):
        with pytest.raises(ValueError):
            fit_logistic(rng.random((4, 2)), np.array([0, 1, 2, 1]))

    def test_balanced_weights_handle_imbalance(self, rng):
        # 5 positives vs 500 negatives; balanced fit must not collapse.
        negatives = rng.random((500, 1)) * 0.4
        positives = rng.random((5, 1)) * 0.4 + 0.6
        features = np.vstack([negatives, positives])
        labels = np.array([0] * 500 + [1] * 5)
        model = fit_logistic(features, labels)
        assert model.predict_probability(np.array([[0.9]]))[0] > 0.5
        assert model.predict_probability(np.array([[0.1]]))[0] < 0.5

    def test_nonnegative_projection(self, rng):
        # A feature anti-correlated with the label would get a negative
        # weight; projection clips it at zero.
        features = rng.random((100, 2))
        labels = (features[:, 1] < 0.5).astype(np.int64)  # anti-correlated
        model = fit_logistic(features, labels, nonnegative=True)
        assert (model.weights[:-1] >= 0).all()

    def test_active_bound_reaches_the_constrained_optimum(self):
        # Two informative features and a third that the label makes
        # slightly lower but that rides on the first: its weight wants to go
        # negative.  The plain projected Newton step cycles between two
        # points here; the fit must instead stop at the point where the free
        # weights' gradient vanishes and the held weight's pushes below zero.
        rng = np.random.default_rng(0)
        n, l2 = 2000, 0.5
        labels = (rng.random(n) < 0.02).astype(np.int64)
        base = rng.random(n) * 0.5 + 0.45 * labels
        first = np.clip(base + 0.1 * rng.standard_normal(n), 0, 1)
        second = np.clip(base + 0.1 * rng.standard_normal(n), 0, 1)
        third = np.clip(
            0.45 + 0.3 * (first - 0.5) - 0.04 * labels + 0.05 * rng.standard_normal(n),
            0,
            1,
        )
        features = np.column_stack([first, second, third])
        weights = fit_logistic(features, labels, l2=l2, nonnegative=True).weights

        design = np.column_stack([features, np.ones(n)])
        balance = np.where(labels == 1, 0.5 / labels.sum(), 0.5 / (n - labels.sum()))
        balance *= n / balance.sum()
        ridge = l2 * np.eye(4)
        ridge[-1, -1] = 0.0
        probabilities = 1.0 / (1.0 + np.exp(-(design @ weights)))
        gradient = design.T @ (balance * (probabilities - labels)) + ridge @ weights
        held = np.r_[weights[:-1] == 0.0, False]
        assert held[2] and not held[:2].any()
        assert gradient[held].min() > 0.0
        assert np.abs(gradient[~held]).max() < 1e-8

    def test_inactive_bound_leaves_newton_unchanged(self, rng):
        # Every weight stays positive along the path, so the bound never
        # acts and the fit is plain Newton, bit for bit.
        features = rng.random((300, 2))
        noise = 0.2 * rng.standard_normal(300)
        labels = (features.sum(axis=1) + noise > 1.0).astype(np.int64)
        plain = fit_logistic(features, labels, l2=0.5)
        assert (plain.weights[:-1] > 0).all()
        bounded = fit_logistic(features, labels, l2=0.5, nonnegative=True)
        np.testing.assert_array_equal(bounded.weights, plain.weights)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_property_probabilities_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        features, labels = separable_data(rng, n=50)
        model = fit_logistic(features, labels)
        probabilities = model.predict_probability(rng.random((20, 3)))
        assert ((0 <= probabilities) & (probabilities <= 1)).all()


class TestSelfTraining:
    def test_prior_fallback_without_labels(self, rng):
        classifier = SelfTrainingClassifier()
        features = rng.random((10, 3))
        labels = np.full(10, -1)
        assert classifier.fit(features, labels) is None
        predictions = classifier.predict(features)
        assert np.allclose(predictions, features.mean(axis=1))

    def test_prior_fallback_with_single_class(self, rng):
        classifier = SelfTrainingClassifier()
        features = rng.random((10, 3))
        labels = np.full(10, -1)
        labels[0] = 1
        assert classifier.fit(features, labels) is None

    def test_fits_with_both_classes(self, rng):
        classifier = SelfTrainingClassifier(rounds=2, l2=0.05)
        features, true_labels = separable_data(rng)
        labels = np.full(features.shape[0], -1)
        labels[:30] = true_labels[:30]
        result = classifier.fit(features, labels)
        assert result is not None
        predictions = classifier.predict(features) > 0.5
        assert (predictions == true_labels).mean() > 0.85

    def test_pseudo_labels_added(self, rng):
        classifier = SelfTrainingClassifier(rounds=3, confidence_threshold=0.8)
        features, true_labels = separable_data(rng)
        labels = np.full(features.shape[0], -1)
        labels[:40] = true_labels[:40]
        result = classifier.fit(features, labels)
        assert result is not None
        assert result.pseudo_labels_added > 0

    def test_prior_blend_shrinks_with_few_positives(self, rng):
        features, true_labels = separable_data(rng, n=60)
        labels = np.full(60, -1)
        # Two positives, several negatives.
        positive_ids = np.flatnonzero(true_labels == 1)[:2]
        negative_ids = np.flatnonzero(true_labels == 0)[:10]
        labels[positive_ids] = 1
        labels[negative_ids] = 0
        classifier = SelfTrainingClassifier(rounds=0, prior_blend_full_at=10)
        classifier.fit(features, labels)
        blended = classifier.predict(features)
        pure = classifier.model.predict_probability(features)
        prior = classifier.prior_scores(features)
        # Blend must lie between the prior and the learned model.
        expected = 0.2 * pure + 0.8 * prior
        assert np.allclose(blended, expected)

    def test_self_training_never_flips_user_labels(self, rng):
        classifier = SelfTrainingClassifier(rounds=3, l2=0.05)
        features, true_labels = separable_data(rng)
        labels = np.full(features.shape[0], -1)
        labels[:30] = true_labels[:30]
        classifier.fit(features, labels)
        # The fitted model at least classifies the given labels correctly.
        predictions = classifier.predict(features[:30]) > 0.5
        assert (predictions == true_labels[:30]).mean() > 0.9
