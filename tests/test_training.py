"""Loss, optimizer, epoch loop, evaluation, and full-fit behavior."""

import copy
import math
import pickle

import numpy as np
import pytest

from helpers import adam_reference, make_model

from nowcast.errors import EmptyDataset, NonFiniteLoss
from nowcast.nn import LSTM, BiLSTM, Dense, Sigmoid
from nowcast.nn.model import bce_with_grad as bce_loss
from nowcast.pipeline import WindowConfig, WindowedDataset
from nowcast.training import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    fit,
    train_epoch,
)


def dataset(inputs, targets):
    inputs = np.asarray(inputs, dtype=float)
    return WindowedDataset(
        inputs=inputs,
        targets=np.asarray(targets, dtype=np.uint8),
        config=WindowConfig(lookback=inputs.shape[1], horizon=1, features=1),
    )


def linear_head(width, seed=0):
    rng = np.random.default_rng(seed)
    return make_model((width,), [Dense(width, 1, rng=rng), Sigmoid()])


def separable_dataset(n=64, width=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, width))
    w = rng.standard_normal(width)
    y = (x @ w > 0).astype(float)
    return dataset(x, y)


class TestBceLoss:
    def test_half_gives_log_two(self):
        for y in (0.0, 1.0):
            loss, _ = bce_loss(np.array([0.5]), np.array([y]))
            assert loss[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        loss, _ = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert np.all(loss <= 1e-11)

    def test_point_nine(self):
        loss, _ = bce_loss(np.array([0.9]), np.array([1.0]))
        assert loss[0] == pytest.approx(0.105361, abs=5e-7)

    def test_gradient_sign_and_value(self):
        p = np.array([0.8])
        loss_hi, dp = bce_loss(p, np.array([0.0]))
        # d/dp of -ln(1-p) is 1/(1-p)
        assert dp[0] == pytest.approx(1.0 / 0.2, rel=1e-12)
        _, dp1 = bce_loss(p, np.array([1.0]))
        assert dp1[0] == pytest.approx(-1.0 / 0.8, rel=1e-12)

    def test_saturated_probabilities_stay_finite(self):
        loss, dp = bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss).all() and np.isfinite(dp).all()


class TestTrainConfig:
    @pytest.mark.parametrize("setting", [
        {"epochs": -1},
        {"patience": 0},
        {"patience": -2},
        {"learning_rate": np.nan},
        {"learning_rate": np.inf},
        {"learning_rate": -1e-3},
    ])
    def test_bad_setting_rejected(self, setting):
        with pytest.raises(ValueError):
            TrainConfig(**setting)

    @pytest.mark.parametrize("name, value", [
        ("batch_size", 2.5), ("batch_size", 32.0), ("epochs", 1.5), ("epochs", float("nan")),
        ("patience", 1.5), ("seed", 0.5), ("epochs", "3"),
    ])
    def test_non_integer_count_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_integer_like_counts_accepted(self):
        cfg = TrainConfig(batch_size=np.int64(8), epochs=np.int32(2), patience=None)
        assert (cfg.batch_size, cfg.epochs, cfg.patience) == (8, 2, None)

    def test_edge_settings_accepted(self):
        cfg = TrainConfig(epochs=0, patience=1, learning_rate=0.0)
        assert (cfg.epochs, cfg.patience, cfg.learning_rate) == (0, 1, 0.0)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        grads = {"w": np.zeros(3)}
        state = AdamState.for_params(params)
        adam_step(params, grads, state, TrainConfig(), t=1)
        assert np.array_equal(params["w"], [1.0, -2.0, 3.0])

    def test_first_step_magnitude_approx_lr(self):
        cfg = TrainConfig(learning_rate=0.05)
        for g in (0.3, -4.0, 100.0):
            params = {"w": np.array([0.0])}
            grads = {"w": np.array([g])}
            state = AdamState.for_params(params)
            adam_step(params, grads, state, cfg, t=1)
            step = abs(params["w"][0])
            assert 0.99 * cfg.learning_rate <= step <= cfg.learning_rate
            assert np.sign(params["w"][0]) == -np.sign(g)

    def test_three_steps_match_scalar_oracle(self):
        cfg = TrainConfig(learning_rate=0.1)
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params)
        expected = adam_reference(0.0, [1.0, 1.0, 1.0], lr=0.1)
        for t in range(1, 4):
            adam_step(params, {"w": np.array([1.0])}, state, cfg, t=t)
            assert params["w"][0] == pytest.approx(expected[t - 1], abs=1e-12)

    def test_step_index_starts_at_one(self):
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.array([1.0])}, state, TrainConfig(), t=0)


class TestTrainEpoch:
    def test_zero_learning_rate_leaves_params_bitwise_unchanged(self):
        model = linear_head(4)
        ds = separable_dataset(20, 4, seed=1)
        before = {k: v.copy() for k, v in model.params().items()}
        train_epoch(model, ds, TrainConfig(learning_rate=0.0, batch_size=8),
                    np.random.default_rng(0))
        for k, v in model.params().items():
            assert np.array_equal(before[k], v)

    def test_single_step_matches_hand_computed_update(self):
        # one parameter, no bias path: p = sigmoid(w*x); one full-batch step
        model = make_model((1,), [Dense(1, 1), Sigmoid()])
        model.layers[0].params["w"][...] = 0.0
        model.layers[0].params["b"][...] = 0.0
        ds = dataset([[2.0]], [1.0])
        cfg = TrainConfig(learning_rate=0.1, batch_size=1)
        train_epoch(model, ds, cfg, np.random.default_rng(0))
        # p = 0.5, dL/dp = -1/p = -2, dp/dz = 0.25, dz/dw = x = 2 -> g = -1
        # first adam step moves w by ~ +lr
        w = model.layers[0].params["w"][0, 0]
        g = -1.0
        expected = adam_reference(0.0, [g], lr=0.1)[0]
        assert w == pytest.approx(expected, abs=1e-12)

    def test_same_seed_same_metrics(self):
        runs = []
        for _ in range(2):
            model = linear_head(5, seed=3)
            ds = separable_dataset(30, 5, seed=2)
            em = train_epoch(model, ds, TrainConfig(batch_size=8),
                             np.random.default_rng(42))
            runs.append((em.loss, em.accuracy, {k: v.copy() for k, v in model.params().items()}))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        for k in runs[0][2]:
            assert np.array_equal(runs[0][2][k], runs[1][2][k])

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataset):
            train_epoch(linear_head(3), dataset(np.zeros((0, 3)), []),
                        TrainConfig(), np.random.default_rng(0))

    def test_non_finite_loss_reports_batch(self):
        model = linear_head(2)
        model.layers[0].params["w"][...] = np.inf
        ds = separable_dataset(8, 2)
        with pytest.raises(NonFiniteLoss) as exc_info:
            train_epoch(model, ds, TrainConfig(batch_size=4), np.random.default_rng(0), epoch=7)
        assert exc_info.value.epoch == 7

    def test_loss_non_increasing_on_easy_problem(self):
        model = linear_head(4, seed=5)
        ds = separable_dataset(40, 4, seed=6)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=40)
        rng = np.random.default_rng(0)
        state = AdamState.for_params(model.params())
        losses = [train_epoch(model, ds, cfg, rng, state).loss for _ in range(30)]
        assert losses[-1] < losses[0]
        drops = sum(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        assert drops >= 25  # allow a couple of adaptive-moment wiggles


class TestFullBatchTaylorCheck:
    def test_epoch_step_follows_loss_gradient(self):
        # full-batch epoch with tiny lr: loss change matches the directional
        # derivative predicted by the analytic gradient (first-order Taylor)
        model = linear_head(4, seed=8)
        ds = separable_dataset(32, 4, seed=9)
        X, y = ds.inputs, ds.targets.astype(float)

        from nowcast.nn.model import bce_with_grad

        def full_loss():
            return float(bce_with_grad(model.forward(X), y)[0].mean())

        loss0 = full_loss()
        model.zero_grads()
        p = model.forward(X, train=True)
        _, dp = bce_with_grad(p, y)
        model.backward(dp / len(y))
        grads = {k: v.copy() for k, v in model.grads().items()}

        step = 1e-6
        for k, arr in model.params().items():
            arr -= step * grads[k]
        loss1 = full_loss()
        predicted = -step * sum(float((g * g).sum()) for g in grads.values())
        assert loss1 - loss0 == pytest.approx(predicted, rel=1e-6)


class TestEvaluate:
    def test_all_correct(self):
        model = linear_head(3)
        ds = separable_dataset(10, 3, seed=4)
        ds.targets = (model.forward(ds.inputs) >= 0.5).astype(np.uint8)
        m = evaluate(model, ds)
        assert m.accuracy == 1.0

    def test_tie_goes_to_class_one(self):
        model = make_model((1,), [Dense(1, 1), Sigmoid()])
        model.layers[0].params["w"][...] = 0.0
        model.layers[0].params["b"][...] = 0.0  # p = 0.5 exactly
        m1 = evaluate(model, dataset([[1.0]], [1.0]))
        assert m1.accuracy == 1.0 and m1.tp == 1
        m0 = evaluate(model, dataset([[1.0]], [0.0]))
        assert m0.accuracy == 0.0 and m0.fp == 1

    def test_hand_counted_confusion(self):
        # targets (1,0,1,1) vs classes (1,0,0,1)
        model = make_model((1,), [Dense(1, 1), Sigmoid()])
        model.layers[0].params["w"][...] = 10.0
        model.layers[0].params["b"][...] = 0.0  # class = sign of input
        ds = dataset([[1.0], [-1.0], [-1.0], [1.0]], [1, 0, 1, 1])
        m = evaluate(model, ds)
        assert m.accuracy == 0.75
        assert m.recall == pytest.approx(2 / 3)
        assert m.precision == 1.0
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 0, 1, 1)
        assert m.tp + m.fp + m.tn + m.fn == m.n == 4

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            evaluate(linear_head(2), dataset(np.zeros((0, 2)), []))

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -0.5, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            evaluate(linear_head(2), dataset([[1.0, 0.0]], [1]), threshold=threshold)

    def test_unit_interval_ends_accepted(self):
        ds = dataset([[1.0, 0.0]], [1])
        assert evaluate(linear_head(2), ds, threshold=0.0).tp == 1
        assert evaluate(linear_head(2), ds, threshold=1.0).fn == 1


class TestDropoutTrainEvalGap:
    def test_eval_deterministic_train_varies_only_with_mask_rng(self):
        from nowcast.models import build_cnn_model

        model = build_cnn_model("flat", lookback=12, features=5, seed=0)
        x = np.random.default_rng(0).uniform(0, 1, (4, 60))
        e1 = model.forward(x, train=False)
        e2 = model.forward(x, train=False)
        assert np.array_equal(e1, e2)
        t1 = model.forward(x, train=True, rng=np.random.default_rng(7))
        t2 = model.forward(x, train=True, rng=np.random.default_rng(7))
        t3 = model.forward(x, train=True, rng=np.random.default_rng(8))
        assert np.array_equal(t1, t2)
        assert not np.array_equal(t1, t3)


class TestFit:
    def test_zero_epochs_gives_empty_log_and_untrained_test(self):
        model = linear_head(4, seed=1)
        ds = separable_dataset(16, 4, seed=2)
        before = {k: v.copy() for k, v in model.params().items()}
        log = fit(model, ds, test=ds, cfg=TrainConfig(epochs=0))
        assert log.records == []
        assert log.final_test is not None
        for k, v in model.params().items():
            assert np.array_equal(before[k], v)

    def test_same_seed_bitwise_identical_log(self):
        texts = []
        for _ in range(2):
            model = linear_head(5, seed=7)
            ds = separable_dataset(24, 5, seed=8)
            log = fit(model, ds, validation=ds, test=ds,
                      cfg=TrainConfig(epochs=5, seed=123, batch_size=8))
            texts.append(log.to_csv_text())
        assert texts[0] == texts[1]

    def test_overfits_separable_data(self):
        model = linear_head(6, seed=10)
        ds = separable_dataset(64, 6, seed=11)
        fit(model, ds, cfg=TrainConfig(epochs=300, learning_rate=0.03, batch_size=16, seed=0))
        assert evaluate(model, ds).accuracy == 1.0

    def test_patience_stops_early(self):
        model = linear_head(4, seed=12)
        ds = separable_dataset(20, 4, seed=13)
        log = fit(model, ds, validation=ds,
                  cfg=TrainConfig(epochs=500, patience=3, learning_rate=0.0))
        # zero lr: epoch 1 sets the baseline, then three stale epochs stop the run
        assert len(log.records) == 4

    def test_csv_format(self):
        model = linear_head(3, seed=14)
        ds = separable_dataset(12, 3, seed=15)
        log = fit(model, ds, validation=ds, test=ds, cfg=TrainConfig(epochs=2))
        text = log.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1"
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_no_validation_logs_nan(self):
        model = linear_head(3, seed=16)
        ds = separable_dataset(12, 3, seed=17)
        log = fit(model, ds, cfg=TrainConfig(epochs=1))
        assert math.isnan(log.records[0].val_loss)
        assert "nan" in log.to_csv_text()

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m)),
    ], ids=["deepcopy", "pickle"])
    def test_copied_recurrent_model_trains(self, clone):
        rng = np.random.default_rng(18)
        model = make_model((3, 2), [
            BiLSTM(2, 3, rng=rng), LSTM(6, 2, return_sequences=False, rng=rng),
            Dense(2, 1, rng=rng), Sigmoid(),
        ])
        ds = dataset(rng.standard_normal((16, 6)), rng.integers(0, 2, 16))
        twin = clone(model)
        assert np.array_equal(twin.forward(ds.inputs), model.forward(ds.inputs))
        before = {k: v.copy() for k, v in twin.params().items()}
        fit(twin, ds, cfg=TrainConfig(epochs=1, batch_size=4))
        for k, v in twin.params().items():
            assert not np.array_equal(v, before[k]), k
        assert not np.array_equal(twin.forward(ds.inputs), model.forward(ds.inputs))
        for k, v in model.params().items():
            assert np.array_equal(v, before[k]), k
