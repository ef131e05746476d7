"""Tests for the multinomial logistic-regression classifier."""

import numpy as np
import pytest

from repro.models.logistic_regression import LogisticRegressionClassifier
from repro.models.softmax import softmax_probabilities


def make_separable_data(seed=0, n_per_class=30, num_classes=3, dimension=4):
    rng = np.random.default_rng(seed)
    means = np.eye(num_classes, dimension) * 5.0
    X, y = [], []
    for k in range(num_classes):
        X.append(means[k] + rng.standard_normal((n_per_class, dimension)) * 0.5)
        y.append(np.full(n_per_class, k))
    return np.concatenate(X), np.concatenate(y)


class TestFitPredict:
    def test_learns_separable_data(self):
        X, y = make_separable_data()
        clf = LogisticRegressionClassifier(num_classes=3)
        clf.fit(X, y)
        assert clf.score(X, y) > 0.95

    def test_predict_proba_rows_sum_to_one(self):
        X, y = make_separable_data()
        clf = LogisticRegressionClassifier(num_classes=3).fit(X, y)
        probs = clf.predict_proba(X)
        assert probs.shape == (X.shape[0], 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-8)

    def test_predict_matches_argmax_of_proba(self):
        X, y = make_separable_data(seed=1)
        clf = LogisticRegressionClassifier(num_classes=3).fit(X, y)
        np.testing.assert_array_equal(clf.predict(X), np.argmax(clf.predict_proba(X), axis=1))

    def test_predicts_all_classes_even_if_absent_from_training(self):
        """Active learning can start with missing classes; the probability
        vector must still span all c classes."""

        X, y = make_separable_data()
        mask = y != 2
        clf = LogisticRegressionClassifier(num_classes=3).fit(X[mask], y[mask])
        probs = clf.predict_proba(X)
        assert probs.shape[1] == 3

    def test_regularization_shrinks_weights(self):
        X, y = make_separable_data()
        weak = LogisticRegressionClassifier(num_classes=3, l2_regularization=1e-6).fit(X, y)
        strong = LogisticRegressionClassifier(num_classes=3, l2_regularization=100.0).fit(X, y)
        assert np.linalg.norm(strong.weights_) < np.linalg.norm(weak.weights_)

    def test_training_reduces_loss_vs_zero_weights(self):
        X, y = make_separable_data(seed=2)
        clf = LogisticRegressionClassifier(num_classes=3).fit(X, y)
        assert clf.final_loss_ < np.log(3.0)

    def test_sample_weight_changes_fit(self):
        X, y = make_separable_data(seed=3)
        w = np.ones(len(y))
        w[y == 0] = 100.0
        a = LogisticRegressionClassifier(num_classes=3, warm_start=False).fit(X, y)
        b = LogisticRegressionClassifier(num_classes=3, warm_start=False).fit(X, y, sample_weight=w)
        assert not np.allclose(a.weights_, b.weights_)

    def test_without_intercept(self):
        X, y = make_separable_data()
        clf = LogisticRegressionClassifier(num_classes=3, fit_intercept=False).fit(X, y)
        assert clf.weights_.shape == (X.shape[1], 3)
        assert clf.score(X, y) > 0.9

    def test_with_intercept_weight_shape(self):
        X, y = make_separable_data()
        clf = LogisticRegressionClassifier(num_classes=3).fit(X, y)
        assert clf.weights_.shape == (X.shape[1] + 1, 3)

    def test_warm_start_reuses_weights(self):
        X, y = make_separable_data()
        clf = LogisticRegressionClassifier(num_classes=3, warm_start=True).fit(X, y)
        first = clf.weights_.copy()
        clf.fit(X, y)
        # With a warm start from the optimum the second fit barely moves.
        assert np.linalg.norm(clf.weights_ - first) < 1.0

    def test_decision_function_shape(self):
        X, y = make_separable_data()
        clf = LogisticRegressionClassifier(num_classes=3).fit(X, y)
        assert clf.decision_function(X).shape == (X.shape[0], 3)

    def test_clone_is_unfitted_with_same_hyperparameters(self):
        clf = LogisticRegressionClassifier(num_classes=4, l2_regularization=0.5)
        clone = clf.clone()
        assert clone.weights_ is None
        assert clone.num_classes == 4
        assert clone.l2_regularization == 0.5


def with_ones(X):
    """The intercept-augmented design matrix, built the straightforward way."""

    X = np.asarray(X, dtype=np.float64)
    return np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)


class TestInPlacePrediction:
    """``predict_proba`` builds the design matrix in one allocation and runs
    the softmax in place; every value must equal the textbook formula's."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_predict_proba_bit_identical_to_softmax_formula(self, seed, dtype):
        X, y = make_separable_data(seed=seed, num_classes=4, dimension=5)
        clf = LogisticRegressionClassifier(num_classes=4).fit(X, y)
        rng = np.random.default_rng(seed)
        queries = (rng.standard_normal((257, 5)) * 3.0).astype(dtype)
        expected = softmax_probabilities(with_ones(queries), clf.weights_)
        np.testing.assert_array_equal(clf.predict_proba(queries), expected)
        np.testing.assert_array_equal(clf.decision_function(queries), with_ones(queries) @ clf.weights_)

    def test_predict_proba_without_intercept_bit_identical(self):
        X, y = make_separable_data(seed=5)
        clf = LogisticRegressionClassifier(num_classes=3, fit_intercept=False).fit(X, y)
        np.testing.assert_array_equal(clf.predict_proba(X), softmax_probabilities(X, clf.weights_))

    def test_fit_sees_the_same_design_matrix(self):
        """Fitting with an intercept equals fitting the explicit ``[X, 1]`` matrix."""

        X, y = make_separable_data(seed=6)
        implicit = LogisticRegressionClassifier(num_classes=3).fit(X, y)
        explicit = LogisticRegressionClassifier(num_classes=3, fit_intercept=False).fit(with_ones(X), y)
        np.testing.assert_array_equal(implicit.weights_, explicit.weights_)
        assert implicit.n_features_ == X.shape[1]

    def test_integer_features_accepted(self):
        X, y = make_separable_data(seed=7)
        clf = LogisticRegressionClassifier(num_classes=3).fit(X, y)
        queries = np.rint(X).astype(np.int64)
        np.testing.assert_array_equal(
            clf.predict_proba(queries), softmax_probabilities(with_ones(queries), clf.weights_)
        )


class TestValidation:
    def test_unfitted_predict_raises(self):
        clf = LogisticRegressionClassifier(num_classes=3)
        with pytest.raises(RuntimeError):
            clf.predict(np.zeros((2, 3)))

    def test_invalid_num_classes(self):
        with pytest.raises(ValueError):
            LogisticRegressionClassifier(num_classes=1)

    def test_feature_dimension_mismatch_on_predict(self):
        X, y = make_separable_data()
        clf = LogisticRegressionClassifier(num_classes=3).fit(X, y)
        with pytest.raises(ValueError):
            clf.predict(np.zeros((2, X.shape[1] + 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        X, y = make_separable_data()
        clf = LogisticRegressionClassifier(num_classes=3).fit(X, y)
        queries = X[:4].copy()
        queries[2, 1] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            clf.predict_proba(queries)

    def test_one_dimensional_features_rejected(self):
        X, y = make_separable_data()
        clf = LogisticRegressionClassifier(num_classes=3).fit(X, y)
        with pytest.raises(ValueError, match="2-D"):
            clf.predict_proba(X[0])

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegressionClassifier(num_classes=2).fit(np.zeros((3, 2)), np.zeros(4, dtype=int))
