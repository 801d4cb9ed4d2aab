"""Architecture builders, reference-table verification, and checkpoints."""

import json
import struct
import time

import numpy as np
import pytest

from nowcast import models
from nowcast.errors import (
    CorruptCheckpoint,
    InputTooShort,
    KernelTooLarge,
    PoolTooLarge,
    ShapeMismatch,
    UnexpectedMismatch,
)
from nowcast.nn import BiLSTM, Conv1D, Dense, LSTM, MaxPool1D, Model, load_model, save_model


class TestLstmBuilder:
    def test_parity_total(self):
        assert models.build_lstm_model("parity").param_count() == 283647

    def test_parity_per_layer_counts(self):
        model = models.build_lstm_model("parity")
        counts = [c for (_, kind, _, c) in model.layer_summary() if kind not in ("relu", "sigmoid")]
        assert counts == [68400, 9408, 2816, 67854, 134912, 257]

    def test_canonical_first_layer_count(self):
        model = models.build_lstm_model("canonical", lookback=24, features=5)
        assert model.layers[0].param_count() == 2 * 4 * 45 * (5 + 45 + 1) == 18360

    def test_canonical_and_parity_share_dense_head_counts(self):
        def head(model):
            return [l.param_count() for l in model.layers if l.kind == "dense"]
        assert head(models.build_lstm_model("parity")) == head(
            models.build_lstm_model("canonical", lookback=12, features=5)
        ) == [2816, 67854, 134912, 257]

    def test_shape_chaining_with_zero_tensor(self):
        model = models.build_lstm_model("canonical", lookback=12, features=5)
        declared = model.output_shapes()
        x = np.zeros((2, 12, 5))
        for layer, shape in zip(model.layers, declared):
            x = layer.forward(x)
            assert x.shape == (2, *shape)

    def test_forward_probability_range(self):
        model = models.build_lstm_model("canonical", lookback=12, features=5, seed=3)
        p = model.forward(np.random.default_rng(0).standard_normal((4, 60)))
        assert p.shape == (4,)
        assert np.all((p > 0) & (p < 1))


class TestCnnBuilder:
    def test_parity_totals(self):
        model = models.build_cnn_model("parity")
        assert model.param_count() == 151809

    def test_parity_conv_counts(self):
        model = models.build_cnn_model("parity")
        counts = [c for (_, kind, _, c) in model.layer_summary() if kind == "conv1d"]
        assert counts == [288, 5152, 6208, 12352, 12352, 16512, 32896, 65792]

    def test_parity_length_chain(self):
        model = models.build_cnn_model("parity")
        lengths = [s[0] for s in model.output_shapes() if len(s) == 2]
        assert lengths == [137, 133, 44, 44, 42, 40, 13, 12, 11, 10]

    def test_min_length(self):
        assert models.cnn_min_length() == 59

    def test_short_flat_lookback_raises_with_minimum(self):
        with pytest.raises(InputTooShort) as exc_info:
            models.build_cnn_model("flat", lookback=11, features=5)
        assert exc_info.value.length == 55
        assert exc_info.value.min_length == models.cnn_min_length()

    def test_no_multichannel_build(self):
        with pytest.raises(ValueError, match="unknown mode"):
            models.build_cnn_model("canonical", lookback=60, features=5)

    def test_flat_mode_accepts_short_lookbacks(self):
        model = models.build_cnn_model("flat", lookback=12, features=5)
        assert model.input_shape == (60, 1)
        p = model.forward(np.zeros((2, 60)))
        assert p.shape == (2,)

    def test_dropout_layer_has_zero_params(self):
        model = models.build_cnn_model("parity")
        drop = [l for l in model.layers if l.kind == "dropout"]
        assert len(drop) == 1 and drop[0].param_count() == 0 and drop[0].rate == 0.4

    def test_shape_chaining_with_zero_tensor(self):
        model = models.build_cnn_model("flat", lookback=24, features=5, seed=1)
        declared = model.output_shapes()
        x = np.zeros((1, 120, 1))
        for layer, shape in zip(model.layers, declared):
            x = layer.forward(x)
            assert x.shape == (1, *shape)


class TestShapeChain:
    @pytest.mark.parametrize("input_shape, layers, error", [
        ((12, 5), [BiLSTM(6, 4)], ShapeMismatch),
        ((12, 5), [BiLSTM(5, 4), Dense(8, 1)], ShapeMismatch),
        ((5, 1), [Conv1D(1, 2, 8)], KernelTooLarge),
        ((2, 1), [MaxPool1D(3)], PoolTooLarge),
    ])
    def test_a_chain_that_does_not_fit_fails_at_build(self, input_shape, layers, error):
        with pytest.raises(error):
            Model("test", "canonical", input_shape, layers)

    def test_a_long_sequence_builds_without_stepping(self):
        # the build's zero-row forward skips the recurrent scan; stepping
        # ten million empty steps would take minutes
        t0 = time.perf_counter()
        layers = [BiLSTM(5, 2), LSTM(4, 3, return_sequences=False)]
        model = Model("test", "canonical", (10**7, 5), layers)
        assert time.perf_counter() - t0 < 30.0
        assert model.output_shapes() == [(10**7, 4), (3,)]


class TestVerifyParity:
    def test_lstm_report_clean(self):
        report = models.verify_parity(models.build_lstm_model("parity"))
        assert report.unexpected() == []
        assert report.expected_total == report.computed_total == 283647
        assert all(r.params_match for r in report.rows)

    def test_cnn_report_totals_and_notes(self):
        report = models.verify_parity(models.build_cnn_model("parity"))
        assert report.unexpected() == []
        assert report.expected_total == 151808
        assert report.computed_total == 151809
        assert report.stated_total == 151809
        by_label = {r.label: r for r in report.rows}
        # the two published shape-cell inconsistencies
        assert not by_label["conv1d_3"].shape_match and by_label["conv1d_3"].note
        assert not by_label["conv1d_5"].shape_match and by_label["conv1d_5"].note
        # the bias off-by-one
        assert not by_label["dense_1"].params_match and "bias" in by_label["dense_1"].note
        # every conv parameter row matches exactly
        assert all(r.params_match for r in report.rows if r.label.startswith("conv"))

    def test_wrong_hidden_size_is_unexpected(self):
        # consistent stack, wrong width: BiLSTM(H=44) feeding an 88-wide LSTM
        rng = np.random.default_rng(0)
        reference = models.build_lstm_model("parity")
        layers = [BiLSTM(144, 44, rng=rng), LSTM(88, 21, return_sequences=False, rng=rng)]
        layers += reference.layers[2:]
        model = Model(models.BILSTM_NET, "parity", (1, 144), layers)
        report = models.verify_parity(model)
        bad = report.unexpected()
        assert ("bidirectional_1", "params", 68400, 66528) in bad
        with pytest.raises(UnexpectedMismatch) as exc_info:
            report.require_clean()
        assert exc_info.value.layer == "bidirectional_1"

    def test_canonical_mode_rejected(self):
        with pytest.raises(ValueError):
            models.verify_parity(models.build_lstm_model("canonical"))

    def test_report_text_mentions_known_rows(self):
        text = models.verify_parity(models.build_cnn_model("parity")).to_text()
        assert "known" in text and "151,808" in text and "151,809" in text


class TestBuildDispatch:
    def test_aliases(self):
        assert models.build_model("bilstm").name == models.BILSTM_NET
        assert models.build_model("cnn").name == models.CNN_NET

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            models.build_model("perceptron")


class TestBackwardContract:
    @pytest.mark.parametrize("name, mode", [("bilstm", "canonical"), ("cnn", "flat")])
    def test_backward_needs_train_mode_forward(self, name, mode):
        model = models.build_model(name, lookback=24, features=5)
        assert model.mode == mode  # the form the net is trained in
        x = np.random.default_rng(0).random((3, model.input_width))
        dy = np.ones(3)
        with pytest.raises(RuntimeError, match="train-mode forward"):
            model.backward(dy)  # before any forward
        model.forward(x, train=True, rng=np.random.default_rng(1))
        model.layer_summary()  # reads the build's shapes, runs no forward
        assert model.backward(dy).shape == x.shape
        model.forward(x)
        with pytest.raises(RuntimeError, match="train-mode forward"):
            model.backward(dy)


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        model = models.build_lstm_model("canonical", lookback=12, features=5, seed=9)
        x = np.random.default_rng(1).standard_normal((3, 60))
        before = model.forward(x)
        path = tmp_path / "model.nwm"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.name == model.name
        assert loaded.mode == model.mode
        assert loaded.input_shape == model.input_shape
        assert loaded.param_count() == model.param_count()
        for k, v in model.params().items():
            assert np.array_equal(loaded.params()[k], v)
        assert np.array_equal(loaded.forward(x), before)

    def test_cnn_round_trip(self, tmp_path):
        model = models.build_cnn_model("flat", lookback=12, features=5, seed=2)
        path = tmp_path / "cnn.nwm"
        save_model(model, str(path))
        assert load_model(str(path)).param_count() == model.param_count()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nwm"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(CorruptCheckpoint):
            load_model(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        model = models.build_lstm_model("canonical", lookback=12, features=5)
        path = tmp_path / "model.nwm"
        save_model(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptCheckpoint):
            load_model(str(path))

    def test_bilstm_sequence_switch_rejected(self, tmp_path, monkeypatch):
        model = models.build_lstm_model("canonical", lookback=4, features=5)
        monkeypatch.setattr(BiLSTM, "hyperparams", LSTM.hyperparams)
        path = tmp_path / "model.nwm"
        save_model(model, str(path))
        monkeypatch.undo()
        with pytest.raises(CorruptCheckpoint):
            load_model(str(path))

    @pytest.mark.parametrize("name, input_shape", [
        ("bilstm", [24, 6]), ("bilstm", [0, 5]), ("bilstm", [-1, 5]), ("cnn", [5, 1]),
    ])
    def test_input_shape_the_layers_do_not_fit_rejected(self, tmp_path, name, input_shape):
        path = tmp_path / "model.nwm"
        save_model(models.build_model(name, lookback=24, features=5), str(path))
        blob = path.read_bytes()
        (n,) = struct.unpack("<I", blob[8:12])
        meta = json.loads(blob[12:12 + n])
        meta["input_shape"] = input_shape
        raw = json.dumps(meta).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + n:])
        with pytest.raises(CorruptCheckpoint):
            load_model(str(path))

    def test_trailing_garbage_rejected(self, tmp_path):
        model = models.build_lstm_model("canonical", lookback=12, features=5)
        path = tmp_path / "model.nwm"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CorruptCheckpoint):
            load_model(str(path))
