"""Semi-supervised meta-learner (Step 2 of the pipeline).

The base classifier is "a simple linear classifier using logistic loss"
(Section IV-D) over the featurizer scores.  It is wrapped in *self-training*:
fit on the labeled pairs, pseudo-label the unlabeled pairs the model is most
confident about, refit, repeat.  The light weight of the model is a
deliberate anti-overfitting choice the paper discusses in §VI-B.

The logistic regression is solved with iteratively reweighted least squares
(Newton's method) -- exact, deterministic and instant for 3-5 features --
with an L2 ridge and balanced class weights (each confirmed positive faces
~|A_t| negatives, so unweighted training would collapse to the majority
class).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.activations import sigmoid


@dataclass
class LogisticModel:
    """Fitted weights of the linear classifier (bias last)."""

    weights: np.ndarray

    def predict_probability(self, features: np.ndarray) -> np.ndarray:
        design = np.column_stack([features, np.ones(features.shape[0])])
        return sigmoid(design @ self.weights)


def fit_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    sample_weights: np.ndarray | None = None,
    l2: float = 1e-2,
    max_iterations: int = 50,
    tolerance: float = 1e-8,
    nonnegative: bool = False,
) -> LogisticModel:
    """Fit L2-regularised logistic regression by Newton/IRLS.

    ``labels`` are in {0, 1}.  Balanced class weights are applied on top of
    any ``sample_weights``: each class contributes equally to the loss.

    ``nonnegative=True`` projects the feature weights (not the bias) onto
    the non-negative orthant after each Newton step.  All LSM features are
    similarity scores, so a negative weight can only arise from small-sample
    artefacts (e.g. a labeled source whose lexically identical candidate is
    a non-match); projection keeps the combined score monotone in each
    featurizer.  Once the bound is active, a weight held at zero whose
    gradient still pushes it below sits out the Newton system, and the
    projected step is halved until the loss does not rise: the plain
    projected step can cycle between two points up to ``max_iterations``.
    While the bound is inactive the iterates are plain Newton steps.
    """
    if features.ndim != 2:
        raise ValueError("features must be 2-D")
    labels = np.asarray(labels, dtype=np.float64)
    if set(np.unique(labels)) - {0.0, 1.0}:
        raise ValueError("labels must be 0/1")

    num_samples, num_features = features.shape
    design = np.column_stack([features, np.ones(num_samples)])
    weights_vector = (
        np.ones(num_samples) if sample_weights is None else np.asarray(sample_weights, float)
    )

    positives = float(weights_vector[labels == 1].sum())
    negatives = float(weights_vector[labels == 0].sum())
    if positives == 0.0 or negatives == 0.0:
        raise ValueError("both classes must be present to fit the classifier")
    balance = np.where(labels == 1, 0.5 / positives, 0.5 / negatives) * weights_vector
    balance = balance * num_samples / balance.sum()  # keep the loss scale stable

    beta = np.zeros(num_features + 1)
    ridge = l2 * np.eye(num_features + 1)
    ridge[-1, -1] = 0.0  # do not penalise the bias

    def loss(beta: np.ndarray) -> float:
        logits = design @ beta
        return float(
            balance @ (np.logaddexp(0.0, logits) - labels * logits)
            + 0.5 * beta @ ridge @ beta
        )

    for iteration in range(max_iterations):
        probabilities = sigmoid(design @ beta)
        gradient = design.T @ (balance * (probabilities - labels)) + ridge @ beta
        curvature = balance * probabilities * (1.0 - probabilities)
        hessian = design.T @ (design * curvature[:, None]) + ridge
        hessian += 1e-9 * np.eye(num_features + 1)
        held = np.zeros(num_features + 1, dtype=bool)
        if nonnegative and iteration > 0:
            held[:-1] = (beta[:-1] == 0.0) & (gradient[:-1] > 0.0)
        free = ~held
        step = np.zeros(num_features + 1)
        step[free] = np.linalg.solve(hessian[np.ix_(free, free)], gradient[free])
        proposed = beta - step
        if not nonnegative or not (held.any() or (proposed[:-1] < 0.0).any()):
            beta = proposed
            if float(np.abs(step).max()) < tolerance:
                break
            continue
        # The bound is active: shorten the projected step until the loss
        # does not rise, and stop once the projected iterate stops moving.
        start, start_loss = beta, loss(beta)
        scale = 1.0
        while True:
            beta = start - scale * step
            beta[:-1] = np.maximum(beta[:-1], 0.0)
            if scale < 1e-6 or loss(beta) <= start_loss:
                break
            scale *= 0.5
        if float(np.abs(beta - start).max()) < tolerance:
            break
    return LogisticModel(weights=beta)


@dataclass
class SelfTrainingResult:
    """Fitted model plus diagnostics of the self-training run."""

    model: LogisticModel
    rounds_used: int
    pseudo_labels_added: int


class SelfTrainingClassifier:
    """Self-training wrapper around the logistic base classifier.

    Falls back to the *prior model* -- the plain mean of the featurizer
    scores -- whenever the labeled set does not yet contain both classes
    (before the first iteration, the paper's model also has nothing but the
    pre-trained featurizers to rank with).
    """

    def __init__(
        self,
        rounds: int = 2,
        confidence_threshold: float = 0.9,
        l2: float = 0.5,
        prior_blend_full_at: int = 5,
    ) -> None:
        self.rounds = rounds
        self.confidence_threshold = confidence_threshold
        self.l2 = l2
        #: Number of positive labels at which the learned model fully takes
        #: over from the prior.  With one or two (possibly unrepresentative)
        #: positives against hundreds of auto-generated negatives, an
        #: unconstrained logistic fit can invert feature signs; shrinking
        #: towards the prior keeps early-iteration rankings sane.
        self.prior_blend_full_at = prior_blend_full_at
        self.model: LogisticModel | None = None
        self.last_result: SelfTrainingResult | None = None
        self._num_positives = 0

    @staticmethod
    def prior_scores(features: np.ndarray) -> np.ndarray:
        """Label-free fallback ranking: the mean of the featurizer scores."""
        if features.shape[0] == 0:
            return np.zeros(0)
        return features.mean(axis=1)

    def _can_fit(self, labels: np.ndarray) -> bool:
        labeled = labels[labels >= 0]
        return bool((labeled == 1).any() and (labeled == 0).any())

    def fit(self, features: np.ndarray, labels: np.ndarray) -> SelfTrainingResult | None:
        """Fit with self-training.  ``labels``: 1 / 0 / -1 (unlabeled).

        Returns None (and clears the model) when fitting is impossible; the
        caller should use :meth:`predict` which falls back to the prior.
        """
        self._num_positives = int((labels == 1).sum())
        if not self._can_fit(labels):
            self.model = None
            self.last_result = None
            return None

        working = labels.astype(np.int64).copy()
        pseudo_mask = np.zeros(labels.shape[0], dtype=bool)
        added_total = 0
        rounds_used = 0
        model = None
        for round_index in range(self.rounds + 1):
            labeled_mask = working >= 0
            model = fit_logistic(
                features[labeled_mask],
                working[labeled_mask],
                l2=self.l2,
                nonnegative=True,
            )
            rounds_used = round_index
            if round_index == self.rounds:
                break
            unlabeled_ids = np.flatnonzero(working < 0)
            if unlabeled_ids.size == 0:
                break
            probabilities = model.predict_probability(features[unlabeled_ids])
            confident_pos = unlabeled_ids[probabilities >= self.confidence_threshold]
            confident_neg = unlabeled_ids[probabilities <= 1.0 - self.confidence_threshold]
            if confident_pos.size == 0 and confident_neg.size == 0:
                break
            working[confident_pos] = 1
            working[confident_neg] = 0
            pseudo_mask[confident_pos] = True
            pseudo_mask[confident_neg] = True
            added_total += int(confident_pos.size + confident_neg.size)

        assert model is not None
        self.model = model
        self.last_result = SelfTrainingResult(
            model=model, rounds_used=rounds_used, pseudo_labels_added=added_total
        )
        return self.last_result

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Matching probabilities for each pair.

        Falls back to the prior when unfit, and blends model and prior
        while the positive-label count is still small (shrinkage towards
        the pre-trained featurizer ranking).
        """
        prior = self.prior_scores(features)
        if self.model is None:
            return prior
        learned = self.model.predict_probability(features)
        alpha = min(1.0, self._num_positives / max(1, self.prior_blend_full_at))
        return alpha * learned + (1.0 - alpha) * prior
