"""Finite-difference validation of every backward pass.

Each case builds a tiny randomized model ending in a sigmoid + BCE head
and compares analytic gradients against central differences (eps = 1e-6,
float64). The checker reports the max relative error over all parameters.
"""

import numpy as np
import pytest

from helpers import make_model, random_batch

from nowcast.nn import (
    BiLSTM,
    Conv1D,
    Dense,
    Dropout,
    GlobalAvgPool1D,
    LSTM,
    MaxPool1D,
    ReLU,
    Sigmoid,
    gradient_check,
)

TOL = 1e-5


def check(model, n_rows=4, seed=0, tol=TOL):
    rng = np.random.default_rng(seed)
    x, y = random_batch(rng, n_rows, model.input_width)
    err = gradient_check(model, x, y)
    assert err < tol, f"max relative gradient error {err}"


def test_dense_sigmoid():
    rng = np.random.default_rng(0)
    model = make_model((4,), [Dense(4, 3, rng=rng), Dense(3, 1, rng=rng), Sigmoid()])
    rng2 = np.random.default_rng(1)
    x, y = random_batch(rng2, 5, 4)
    err = gradient_check(model, x, y)
    assert err < 1e-7  # quadratic-ish surface: central differences are near exact


def test_dense_relu_stack():
    rng = np.random.default_rng(2)
    model = make_model(
        (6,),
        [Dense(6, 8, rng=rng), ReLU(), Dense(8, 4, rng=rng), ReLU(), Dense(4, 1, rng=rng), Sigmoid()],
    )
    check(model, seed=3)


def test_lstm_last_state():
    rng = np.random.default_rng(4)
    model = make_model(
        (5, 3),
        [LSTM(3, 4, return_sequences=False, rng=rng), Dense(4, 1, rng=rng), Sigmoid()],
    )
    check(model, seed=5, tol=1e-6)


def test_lstm_full_sequence_through_gap():
    rng = np.random.default_rng(6)
    model = make_model(
        (6, 2),
        [LSTM(2, 3, rng=rng), GlobalAvgPool1D(), Dense(3, 1, rng=rng), Sigmoid()],
    )
    check(model, seed=7)


def test_bilstm_stack():
    rng = np.random.default_rng(8)
    model = make_model(
        (4, 3),
        [
            BiLSTM(3, 5, rng=rng),
            LSTM(10, 4, return_sequences=False, rng=rng),
            Dense(4, 1, rng=rng),
            Sigmoid(),
        ],
    )
    check(model, seed=9)


def test_conv_valid_pool_gap():
    rng = np.random.default_rng(10)
    model = make_model(
        (12, 2),
        [
            Conv1D(2, 4, 3, rng=rng),
            ReLU(),
            MaxPool1D(2),
            GlobalAvgPool1D(),
            Dense(4, 1, rng=rng),
            Sigmoid(),
        ],
    )
    check(model, seed=11)


def test_conv_same_padding():
    rng = np.random.default_rng(12)
    model = make_model(
        (9, 3),
        [
            Conv1D(3, 4, 4, padding="same", rng=rng),
            GlobalAvgPool1D(),
            Dense(4, 1, rng=rng),
            Sigmoid(),
        ],
    )
    check(model, seed=13)


def test_conv_chain_mixed_kernels():
    rng = np.random.default_rng(14)
    model = make_model(
        (16, 1),
        [
            Conv1D(1, 3, 5, rng=rng),
            Conv1D(3, 4, 2, rng=rng),
            MaxPool1D(3),
            GlobalAvgPool1D(),
            Dense(4, 1, rng=rng),
            Sigmoid(),
        ],
    )
    check(model, seed=15)


def test_dropout_layer_is_identity_in_check():
    rng = np.random.default_rng(16)
    model = make_model(
        (5,),
        [Dense(5, 4, rng=rng), Dropout(0.4), Dense(4, 1, rng=rng), Sigmoid()],
    )
    check(model, seed=17)


def test_check_catches_dropout_backward_that_ignores_its_mask(monkeypatch):
    # the check runs dropout in train mode with one fixed mask per call, so a
    # backward that drops the mask no longer agrees with the loss it measures
    rng = np.random.default_rng(20)
    model = make_model(
        (5,),
        [Dense(5, 6, rng=rng), Dropout(0.4), ReLU(), Dense(6, 1, rng=rng), Sigmoid()],
    )
    x, y = random_batch(np.random.default_rng(21), 4, 5)
    assert gradient_check(model, x, y) < TOL
    monkeypatch.setattr(Dropout, "backward", lambda self, dy: dy)
    assert gradient_check(model, x, y) > TOL


def test_input_gradient_matches_finite_differences():
    # not only parameter gradients: the gradient w.r.t. the input itself
    rng = np.random.default_rng(18)
    model = make_model(
        (4, 2),
        [BiLSTM(2, 3, rng=rng), LSTM(6, 2, return_sequences=False, rng=rng),
         Dense(2, 1, rng=rng), Sigmoid()],
    )
    from nowcast.nn.model import bce_with_grad

    x, y = random_batch(np.random.default_rng(19), 3, 8)
    p = model.forward(x, train=True)
    _, dp = bce_with_grad(p, y)
    model.zero_grads()
    dx = model.backward(dp / len(y))

    eps = 1e-6
    worst = 0.0
    for r in range(x.shape[0]):
        for c in range(x.shape[1]):
            xp = x.copy(); xp[r, c] += eps
            xm = x.copy(); xm[r, c] -= eps
            lp = bce_with_grad(model.forward(xp), y)[0].mean()
            lm = bce_with_grad(model.forward(xm), y)[0].mean()
            num = (lp - lm) / (2 * eps)
            denom = max(abs(num), abs(dx[r, c]), 1e-4)
            worst = max(worst, abs(num - dx[r, c]) / denom)
    assert worst < TOL


@pytest.mark.parametrize("seed", range(8))
def test_randomized_small_stacks(seed):
    """Randomly shaped recurrent or conv stacks, new shapes per seed."""
    rng = np.random.default_rng(100 + seed)
    if seed % 2 == 0:
        T = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        H = int(rng.integers(1, 5))
        model = make_model(
            (T, d),
            [BiLSTM(d, H, rng=rng), LSTM(2 * H, 3, return_sequences=False, rng=rng),
             Dense(3, 1, rng=rng), Sigmoid()],
        )
    else:
        L = int(rng.integers(8, 16))
        ci = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        model = make_model(
            (L, ci),
            [Conv1D(ci, 3, k, rng=rng), MaxPool1D(2), GlobalAvgPool1D(),
             Dense(3, 1, rng=rng), Sigmoid()],
        )
    check(model, n_rows=3, seed=200 + seed)
