"""The one training runner behind every front end: ``nowcast train``, the
estimators and a grid cell build, split and fit a net the same way."""

import os

import numpy as np
import pytest

from nowcast import cli, pipeline, synthetic, training
from nowcast.cli import main
from nowcast.errors import InputTooShort
from nowcast.estimators import BiLstmClassifier, Conv1dClassifier
from nowcast.nn import load_model
from nowcast.pipeline import WindowConfig, WindowedDataset
from nowcast.training import RunSpec, TrainConfig, run


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    root = tmp_path_factory.mktemp("runner")
    csv_path = str(root / "station.csv")
    synthetic.write_indian_csv(synthetic.make_series(400, seed=7, label_noise=0.05), csv_path)
    out = str(root / "prepared")
    code = main([
        "prepare", "--input", csv_path, "--out", out,
        "--lookback", "12", "--horizon", "1", "--months", "all",
    ])
    assert code == 0
    return csv_path, out


def param_bytes(model):
    return [(name, arr.tobytes()) for name, arr in model.params().items()]


def toy_dataset(n, lookback=2, features=5, seed=0):
    rng = np.random.default_rng(seed)
    return WindowedDataset(
        inputs=rng.uniform(0.0, 1.0, (n, lookback * features)),
        targets=rng.integers(0, 2, n).astype(np.uint8),
        config=WindowConfig(lookback=lookback, horizon=1, features=features),
    )


@pytest.mark.parametrize("net, estimator", [
    ("bilstm", BiLstmClassifier),
    ("cnn", Conv1dClassifier),
])
def test_train_estimator_and_grid_cell_agree(prepared, tmp_path, monkeypatch, net, estimator):
    csv_path, data_dir = prepared
    train_path = os.path.join(data_dir, "train.nwc")
    seed = cli.cell_seed(0, net, 12, 1)

    out = tmp_path / "train"
    code = main([
        "train", "--train", train_path, "--test", os.path.join(data_dir, "test.nwc"),
        "--model", net, "--epochs", "2", "--seed", str(seed), "--val-split", "0.1",
        "--out", str(out),
    ])
    assert code == 0
    trained = load_model(str(out / "model.nwm"))
    log_text = (out / "trainlog.csv").read_text()

    ds = pipeline.load_windowed(train_path)
    est = estimator(lookback=12, epochs=2, seed=seed, validation_fraction=0.1)
    est.fit(ds.inputs, ds.targets)

    fitted = []
    real_fit = training.fit

    def keep_model(model, *args, **kwargs):
        fitted.append(model)
        return real_fit(model, *args, **kwargs)

    monkeypatch.setattr(training, "fit", keep_model)
    monkeypatch.delenv("NOWCAST_THREADS", raising=False)  # the cell trains in this process
    grid = tmp_path / "grid"
    code = main([
        "grid", "--input", csv_path, "--months", "all", "--lookbacks", "12",
        "--horizons", "1", "--models", net, "--epochs", "2", "--seed", "0",
        "--val-split", "0.1", "--out", str(grid),
    ])
    assert code == 0
    assert len(fitted) == 1

    assert len(log_text.splitlines()) == 3  # header and two epochs
    assert est.log_.to_csv_text() == log_text
    assert (grid / f"trainlog_{net}_L12_h1.csv").read_text() == log_text
    assert param_bytes(est.model_) == param_bytes(trained)
    assert param_bytes(fitted[0]) == param_bytes(trained)


class TestRun:
    def test_validation_tail_is_the_last_rows(self, monkeypatch):
        seen = {}
        monkeypatch.setattr(
            training, "fit",
            lambda model, train, validation=None, test=None, cfg=None: seen.update(
                train=train, validation=validation) or training.TrainLog(),
        )
        ds = toy_dataset(25)
        run(RunSpec("bilstm", 0.1, TrainConfig(epochs=0)), ds)
        # round(2.5) is 2: n_val = max(1, round(n * fraction))
        assert seen["train"].n_rows == 23 and seen["validation"].n_rows == 2
        assert np.array_equal(seen["validation"].inputs, ds.inputs[23:])
        assert np.array_equal(seen["train"].targets, ds.targets[:23])
        run(RunSpec("bilstm", 0.0, TrainConfig(epochs=0)), ds)
        assert seen["train"] is ds and seen["validation"] is None

    def test_tail_must_leave_training_rows(self):
        with pytest.raises(ValueError):
            run(RunSpec("bilstm", 0.5, TrainConfig(epochs=0)), toy_dataset(1))

    def test_cnn_trains_flat_form(self):
        model, _ = run(RunSpec("cnn", 0.0, TrainConfig(epochs=0)), toy_dataset(4, lookback=12))
        assert model.mode == "flat" and model.input_shape == (60, 1)

    def test_short_cnn_window_raises(self):
        with pytest.raises(InputTooShort):
            run(RunSpec("cnn", 0.0, TrainConfig(epochs=0)), toy_dataset(4, lookback=2))

    def test_long_cnn_window_trains_flat_form(self):
        # from lookback 59 on, a (lookback, 5) multichannel sequence would be
        # long enough for the conv stack; the runner and the estimator still
        # build the one flat form
        ds = toy_dataset(4, lookback=60)
        model, _ = run(RunSpec("cnn", 0.0, TrainConfig(epochs=0)), ds)
        est = Conv1dClassifier(lookback=60, epochs=0).fit(ds.inputs, ds.targets)
        for built in (model, est.model_):
            assert built.mode == "flat" and built.input_shape == (300, 1)
