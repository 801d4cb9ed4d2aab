"""Estimator-style front end: fit/predict classifiers and a fit/transform
window scaler that follow the scikit-learn parameter protocol
(``get_params`` / ``set_params`` over constructor arguments), so the
classifiers drop into pipelines, grid searches, and cross-validation
helpers without this package depending on scikit-learn itself.

X is always the flattened window matrix of shape (n_rows, lookback *
features), timestep-major; y is a binary vector.
"""

import inspect

import numpy as np

from .errors import NotFittedError
from .pipeline import (
    NormStats,
    WindowConfig,
    WindowedDataset,
    apply_normalizer,
    check_int,
    fit_normalizer,
)
from .training import RunSpec, TrainConfig, check_threshold, probabilities, run


def check_matrix(X, width=None, name="X"):
    """Validate a 2-D finite float matrix, optionally of a fixed width."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {X.shape}")
    if width is not None and X.shape[1] != width:
        raise ValueError(f"{name} must have {width} columns, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite values")
    return X


def check_binary_target(y, n_rows):
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != n_rows:
        raise ValueError(f"y has {y.shape[0]} rows, X has {n_rows}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("y must be binary {0, 1}")
    return y


class _ParamsMixin:
    """get_params/set_params over the constructor signature."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class _WindowNetClassifier(_ParamsMixin):
    """Shared parameters and fit/predict plumbing for the two network
    classifiers; a subclass names its ``_model`` key."""

    def __init__(
        self,
        lookback=24,
        features=5,
        learning_rate=1e-3,
        batch_size=32,
        epochs=100,
        seed=0,
        validation_fraction=0.0,
        patience=None,
        threshold=0.5,
    ):
        self.lookback = lookback
        self.features = features
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.epochs = epochs
        self.seed = seed
        self.validation_fraction = validation_fraction
        self.patience = patience
        self.threshold = threshold

    def fit(self, X, y):
        """Train on rows in time order; the last ``validation_fraction``
        of them is held out as the validation tail."""
        # the horizon is not known here, and training does not read it
        window = WindowConfig(self.lookback, 1, self.features)
        X = check_matrix(X, width=window.width)
        y = check_binary_target(y, X.shape[0])
        config = TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs,
            seed=self.seed,
            patience=self.patience,
        )
        data = WindowedDataset(X, y, window)
        spec = RunSpec(self._model, self.validation_fraction, config)
        self.model_, self.log_ = run(spec, data)
        self.n_features_in_ = X.shape[1]
        self.classes_ = np.array([0, 1])
        return self

    def _require_fitted(self):
        if getattr(self, "model_", None) is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted; call fit first")

    def decision_function(self, X):
        """Probability of rain for each row, shape (n_rows,), scored in the
        blocks ``training.evaluate`` uses, so both give a row the same bits."""
        self._require_fitted()
        X = check_matrix(X, width=self.n_features_in_)
        return probabilities(self.model_, X)

    def predict_proba(self, X):
        p = self.decision_function(X)
        return np.column_stack([1.0 - p, p])

    def predict(self, X):
        check_threshold(self.threshold)
        return (self.decision_function(X) >= self.threshold).astype(int)

    def score(self, X, y):
        y = check_binary_target(y, np.asarray(X).shape[0])
        return float((self.predict(X) == y).mean())


class BiLstmClassifier(_WindowNetClassifier):
    """Stacked bidirectional-recurrent rain classifier over flattened windows.

    Rows reshape to (lookback, features) sequences internally.
    """

    _model = "bilstm"


class Conv1dClassifier(_WindowNetClassifier):
    """Deep 1D-convolutional rain classifier over flattened windows.

    The conv stack's receptive field is longer than a 12- or 24-step
    sequence, so rows feed it as a single-channel sequence of length
    lookback * features.
    """

    _model = "cnn"


class WindowMinMaxScaler(_ParamsMixin):
    """Per-feature min-max scaling for timestep-major window matrices.

    Statistics pool every timestep of every fitted row per original
    feature, not per column, so a feature scales identically wherever it
    appears in the window. Transformed out-of-range values clamp to
    [-0.5, 1.5]; constant features map to 0.
    """

    def __init__(self, features=5):
        self.features = features

    def _dataset(self, X):
        check_int("features", self.features, 1)
        X = check_matrix(X)
        if X.shape[1] % self.features:
            raise ValueError(
                f"width {X.shape[1]} is not a multiple of features={self.features}"
            )
        config = WindowConfig(X.shape[1] // self.features, 1, self.features)
        return WindowedDataset(X, np.zeros(X.shape[0]), config)

    def fit(self, X, y=None):
        stats = fit_normalizer(self._dataset(X))
        self.mins_, self.maxs_ = stats.mins, stats.maxs
        return self

    def transform(self, X):
        if getattr(self, "mins_", None) is None:
            raise NotFittedError("WindowMinMaxScaler is not fitted; call fit first")
        stats = NormStats(mins=self.mins_, maxs=self.maxs_)
        return apply_normalizer(self._dataset(X), stats).inputs

    def fit_transform(self, X, y=None):
        return self.fit(X).transform(X)
