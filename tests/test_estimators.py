"""The fit/predict classifiers and the window scaler: parameter protocol,
validation helpers, and learning behavior."""

import numpy as np
import pytest

from nowcast.errors import NotFittedError
from nowcast.estimators import (
    BiLstmClassifier,
    Conv1dClassifier,
    WindowMinMaxScaler,
    check_binary_target,
    check_matrix,
)
from nowcast.pipeline import NormStats, WindowConfig, WindowedDataset, apply_normalizer
from nowcast.training import evaluate


def toy_problem(n=80, lookback=4, features=5, seed=0):
    """Balanced labels driven by the anchor-hour feature block."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, lookback * features))
    w = np.zeros(lookback * features)
    w[-features:] = rng.standard_normal(features)
    score = X @ w
    y = (score > np.median(score)).astype(float)
    return X, y


class TestParameterProtocol:
    def test_get_params_round_trip(self):
        est = BiLstmClassifier(lookback=12, epochs=7, seed=3)
        params = est.get_params()
        assert params["lookback"] == 12
        assert params["epochs"] == 7
        clone = BiLstmClassifier(**params)
        assert clone.get_params() == params

    def test_set_params_returns_self(self):
        est = Conv1dClassifier()
        out = est.set_params(epochs=2, learning_rate=0.01)
        assert out is est
        assert est.epochs == 2 and est.learning_rate == 0.01

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            BiLstmClassifier().set_params(widgets=3)

    def test_repr_lists_params(self):
        text = repr(BiLstmClassifier(lookback=12))
        assert "BiLstmClassifier" in text and "lookback=12" in text


class TestValidationHelpers:
    def test_check_matrix_shape(self):
        with pytest.raises(ValueError):
            check_matrix(np.zeros(5))
        with pytest.raises(ValueError):
            check_matrix(np.zeros((3, 4)), width=5)

    def test_check_matrix_finite(self):
        bad = np.zeros((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            check_matrix(bad)

    def test_check_binary_target(self):
        with pytest.raises(ValueError):
            check_binary_target([0, 1, 2], 3)
        with pytest.raises(ValueError):
            check_binary_target([0, 1], 3)
        out = check_binary_target([0, 1, 1], 3)
        assert out.dtype == np.float64


class TestBiLstmClassifier:
    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            BiLstmClassifier().predict(np.zeros((2, 120)))

    def test_fit_predict_shapes_and_learning(self):
        X, y = toy_problem()
        est = BiLstmClassifier(lookback=4, epochs=40, learning_rate=0.02,
                               batch_size=16, seed=0)
        assert est.fit(X, y) is est
        proba = est.predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        pred = est.predict(X)
        assert set(np.unique(pred)) <= {0, 1}
        assert est.score(X, y) >= 0.9
        assert est.n_features_in_ == 20
        assert np.array_equal(est.classes_, [0, 1])

    def test_same_seed_same_predictions(self):
        X, y = toy_problem(seed=1)
        p1 = BiLstmClassifier(lookback=4, epochs=3, seed=5).fit(X, y).decision_function(X)
        p2 = BiLstmClassifier(lookback=4, epochs=3, seed=5).fit(X, y).decision_function(X)
        assert np.array_equal(p1, p2)

    def test_wrong_width_rejected(self):
        X, y = toy_problem()
        est = BiLstmClassifier(lookback=4, epochs=1).fit(X, y)
        with pytest.raises(ValueError):
            est.predict(np.zeros((2, 21)))

    def test_validation_fraction_with_patience(self):
        X, y = toy_problem(n=60, seed=2)
        est = BiLstmClassifier(lookback=4, epochs=50, validation_fraction=0.2,
                               patience=2, learning_rate=0.0, seed=0)
        est.fit(X, y)
        assert len(est.log_.records) == 3  # baseline epoch + two stale epochs

    def test_negative_validation_fraction_rejected(self):
        X, y = toy_problem()
        with pytest.raises(ValueError):
            BiLstmClassifier(lookback=4, epochs=1, validation_fraction=-0.5).fit(X, y)

    @pytest.mark.parametrize("setting", [
        {"epochs": -1}, {"patience": 0}, {"learning_rate": float("nan")},
    ])
    def test_bad_training_setting_rejected(self, setting):
        X, y = toy_problem()
        with pytest.raises(ValueError):
            BiLstmClassifier(lookback=4, **{"epochs": 1, **setting}).fit(X, y)

    @pytest.mark.parametrize("setting", [
        {"batch_size": 2.5}, {"epochs": 1.5}, {"epochs": float("nan")}, {"patience": 1.5},
    ])
    def test_non_integer_count_rejected_before_training(self, setting):
        X, y = toy_problem()
        est = BiLstmClassifier(lookback=4, **{"epochs": 1, **setting})
        with pytest.raises(ValueError, match=next(iter(setting))):
            est.fit(X, y)
        assert getattr(est, "model_", None) is None

    def test_non_integer_window_size_rejected_before_training(self):
        X, y = toy_problem(lookback=1)  # 5 columns, as lookback 2.5 x 2 features
        est = BiLstmClassifier(lookback=2.5, features=2, epochs=1)
        with pytest.raises(ValueError, match="lookback"):
            est.fit(X, y)
        assert getattr(est, "model_", None) is None

    def test_scores_rows_in_the_blocks_evaluate_uses(self):
        # a row's bits depend on how many rows share its forward; more than
        # one 512-row block, so one forward over every row would differ
        X, y = toy_problem(n=1500, lookback=24, seed=3)
        est = BiLstmClassifier(lookback=24, epochs=0, seed=3).fit(X, y)
        blocks = np.concatenate([est.model_.forward(X[a:a + 512]) for a in range(0, 1500, 512)])
        assert np.array_equal(est.decision_function(X).view(np.uint64), blocks.view(np.uint64))
        m = evaluate(est.model_, WindowedDataset(X, y, WindowConfig(24, 1)))
        assert m.tp + m.fp == est.predict(X).sum()

    @pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.1])
    def test_bad_threshold_rejected_by_predict(self, threshold):
        X, y = toy_problem()
        est = BiLstmClassifier(lookback=4, epochs=0, threshold=threshold).fit(X, y)
        with pytest.raises(ValueError, match="threshold"):
            est.predict(X)


class TestConv1dClassifier:
    def test_fit_predict_on_flat_windows(self):
        X, y = toy_problem(n=70, lookback=12, seed=3)
        est = Conv1dClassifier(lookback=12, epochs=12, learning_rate=0.003,
                               batch_size=16, seed=1)
        est.fit(X, y)
        proba = est.decision_function(X)
        assert proba.shape == (70,)
        assert np.all((proba > 0) & (proba < 1))

    def test_threshold_parameter(self):
        X, y = toy_problem(n=40, lookback=12, seed=4)
        est = Conv1dClassifier(lookback=12, epochs=1, seed=0, threshold=1.0)
        est.fit(X, y)
        assert est.predict(X).sum() == 0  # nothing reaches p >= 1.0


class TestWindowMinMaxScaler:
    def test_matches_pipeline_normalizer(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-3.0, 7.0, (20, 15))  # 3 timesteps x 5 features
        scaler = WindowMinMaxScaler(features=5)
        out = scaler.fit_transform(X)
        ds = WindowedDataset(
            inputs=X, targets=np.zeros(20, dtype=np.uint8),
            config=WindowConfig(lookback=3, horizon=1),
        )
        stats = NormStats(mins=scaler.mins_, maxs=scaler.maxs_)
        assert np.array_equal(out, apply_normalizer(ds, stats).inputs)

    def test_fitted_rows_in_unit_interval(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0.0, 10.0, (30, 10))
        out = WindowMinMaxScaler(features=5).fit_transform(X)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_out_of_range_transform_clamps(self):
        scaler = WindowMinMaxScaler(features=1)
        scaler.fit(np.array([[0.0], [10.0]]))
        out = scaler.transform(np.array([[100.0], [-100.0]]))
        assert out[0, 0] == 1.5 and out[1, 0] == -0.5

    def test_unfitted_transform_raises(self):
        with pytest.raises(NotFittedError):
            WindowMinMaxScaler().transform(np.zeros((2, 5)))

    def test_width_must_be_multiple_of_features(self):
        with pytest.raises(ValueError):
            WindowMinMaxScaler(features=5).fit(np.zeros((2, 7)))

    @pytest.mark.parametrize("features", [0, 2.5, "5"])
    def test_features_must_be_a_positive_integer(self, features):
        with pytest.raises(ValueError, match="features"):
            WindowMinMaxScaler(features=features).fit(np.ones((2, 10)))
