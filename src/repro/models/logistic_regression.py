"""Trainable multiclass logistic-regression classifier.

Replaces the scikit-learn ``LogisticRegression`` the paper uses for accuracy
evaluation (§ IV-A).  The interface intentionally mirrors the scikit-learn
estimator API (``fit`` / ``predict`` / ``predict_proba`` / ``score``) so the
active-learning driver reads like the original experimental setup, and the
hyperparameters stay fixed across rounds as in the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import optimize

from repro.models.softmax import nll_and_gradient
from repro.utils.validation import check_features, check_labels, require

__all__ = ["LogisticRegressionClassifier"]


class LogisticRegressionClassifier:
    """Multinomial logistic regression trained with L-BFGS.

    Parameters
    ----------
    num_classes:
        Total number of classes ``c``.  Passing it explicitly (rather than
        inferring it from the training labels) matters in active learning:
        early rounds may not contain every class yet, but predictions must
        still range over all ``c`` classes.
    l2_regularization:
        L2 penalty strength (the classifier stays fixed across active-learning
        rounds, matching the paper's protocol).
    max_iterations:
        L-BFGS iteration cap.
    tolerance:
        L-BFGS gradient tolerance.
    fit_intercept:
        Whether to append a constant feature internally.
    warm_start:
        When true, re-fitting starts from the previous solution, which speeds
        up the per-round retraining in multi-round experiments.
    """

    def __init__(
        self,
        num_classes: int,
        *,
        l2_regularization: float = 1e-3,
        max_iterations: int = 200,
        tolerance: float = 1e-6,
        fit_intercept: bool = True,
        warm_start: bool = True,
    ):
        require(num_classes >= 2, "num_classes must be at least 2")
        require(l2_regularization >= 0.0, "l2_regularization must be non-negative")
        require(max_iterations > 0, "max_iterations must be positive")
        self.num_classes = int(num_classes)
        self.l2_regularization = float(l2_regularization)
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.fit_intercept = bool(fit_intercept)
        self.warm_start = bool(warm_start)
        self.weights_: Optional[np.ndarray] = None  # shape (d(+1), c)
        self.n_features_: Optional[int] = None
        self.converged_: Optional[bool] = None
        self.final_loss_: Optional[float] = None

    # ------------------------------------------------------------------ #
    def _design_matrix(self, X) -> np.ndarray:
        """Validated float64 features, with the intercept column when enabled.

        The intercept variant is built in one ``(n, d + 1)`` allocation
        instead of a float64 copy followed by a concatenation.
        """

        if not self.fit_intercept:
            X = np.asarray(X, dtype=np.float64)
            check_features(X)
            return X
        X = np.asarray(X)
        require(X.ndim == 2, f"X must be 2-D (n, d); got shape {tuple(X.shape)}")
        n, d = X.shape
        Xa = np.empty((n, d + 1), dtype=np.float64)
        Xa[:, :d] = X
        check_features(Xa[:, :d])
        Xa[:, d] = 1.0
        return Xa

    def _check_dimension(self, Xa: np.ndarray) -> None:
        require(Xa.shape[1] - int(self.fit_intercept) == self.n_features_, "feature dimension mismatch")

    def fit(self, X, y, sample_weight=None) -> "LogisticRegressionClassifier":
        """Fit the classifier on labeled data.

        Returns ``self`` to allow scikit-learn style chaining.
        """

        Xa = self._design_matrix(X)
        y = check_labels(y, num_classes=self.num_classes)
        require(Xa.shape[0] == y.shape[0], "X and y must have the same number of rows")
        self.n_features_ = Xa.shape[1] - int(self.fit_intercept)
        d_aug = Xa.shape[1]

        if self.warm_start and self.weights_ is not None and self.weights_.shape == (d_aug, self.num_classes):
            theta0 = self.weights_.astype(np.float64)
        else:
            theta0 = np.zeros((d_aug, self.num_classes), dtype=np.float64)

        def objective(flat_theta: np.ndarray):
            theta = flat_theta.reshape(d_aug, self.num_classes)
            loss, grad = nll_and_gradient(
                theta,
                Xa,
                y,
                l2_regularization=self.l2_regularization,
                sample_weight=sample_weight,
            )
            return loss, grad.ravel()

        result = optimize.minimize(
            objective,
            theta0.ravel(),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iterations, "gtol": self.tolerance},
        )
        self.weights_ = result.x.reshape(d_aug, self.num_classes)
        self.converged_ = bool(result.success)
        self.final_loss_ = float(result.fun)
        return self

    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> None:
        if self.weights_ is None:
            raise RuntimeError("classifier is not fitted; call fit() first")

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities ``p(y | x)`` for every row of ``X``.

        :func:`~repro.models.softmax.softmax_probabilities`' formula
        ``exp(shifted - log(sum(exp(shifted))))`` in the same operation
        order, computed in place on the logits.  The design matrix is
        released before the softmax allocates its one temporary.
        """

        self._check_fitted()
        Xa = self._design_matrix(X)
        self._check_dimension(Xa)
        logits = Xa @ self.weights_
        del Xa
        logits -= logits.max(axis=1, keepdims=True)
        logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
        return np.exp(logits, out=logits)

    def predict(self, X) -> np.ndarray:
        """Most likely class index for every row of ``X``."""

        return np.argmax(self.predict_proba(X), axis=1)

    def decision_function(self, X) -> np.ndarray:
        """Raw logits ``X theta`` (with intercept if enabled)."""

        self._check_fitted()
        Xa = self._design_matrix(X)
        self._check_dimension(Xa)
        return Xa @ self.weights_

    def score(self, X, y) -> float:
        """Mean accuracy on the given data."""

        y = check_labels(y, num_classes=self.num_classes)
        return float(np.mean(self.predict(X) == y))

    def clone(self) -> "LogisticRegressionClassifier":
        """Return an unfitted copy with identical hyperparameters."""

        return LogisticRegressionClassifier(
            self.num_classes,
            l2_regularization=self.l2_regularization,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            fit_intercept=self.fit_intercept,
            warm_start=self.warm_start,
        )
