"""Precipitation nowcasting toolkit.

Hourly station weather series become leakage-safe windowed datasets
(``pipeline``), which train two from-scratch classifiers -- a stacked
bidirectional-LSTM network and a deep 1D CNN (``models`` / ``nn``) -- via
a seeded mini-batch loop (``training``). ``estimators`` wraps the models
in a scikit-learn-style fit/predict API and ``cli`` drives dataset
preparation, single runs, the full evaluation grid, parameter-parity
verification, and checkpoint inspection.
"""

from .estimators import BiLstmClassifier, Conv1dClassifier, WindowMinMaxScaler
from .models import build_cnn_model, build_lstm_model, verify_parity
from .pipeline import (
    NormStats,
    Observation,
    ObservationSeries,
    SplitSpec,
    WindowConfig,
    WindowedDataset,
    apply_normalizer,
    filter_monsoon,
    fit_normalizer,
    load_windowed,
    make_windows,
    parse_raw_csv,
    resample_hourly,
    save_windowed,
    split_chronological,
)
from .training import TrainConfig, TrainLog, evaluate, fit

__version__ = "0.1.0"

__all__ = [
    "BiLstmClassifier",
    "Conv1dClassifier",
    "NormStats",
    "Observation",
    "ObservationSeries",
    "SplitSpec",
    "TrainConfig",
    "TrainLog",
    "WindowConfig",
    "WindowMinMaxScaler",
    "WindowedDataset",
    "apply_normalizer",
    "build_cnn_model",
    "build_lstm_model",
    "evaluate",
    "filter_monsoon",
    "fit",
    "fit_normalizer",
    "load_windowed",
    "make_windows",
    "parse_raw_csv",
    "resample_hourly",
    "save_windowed",
    "split_chronological",
    "verify_parity",
]
