"""Forward-pass correctness of every layer against independent oracles."""

import multiprocessing
import os
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import (
    bilstm_halves,
    conv1d_reference,
    formula_param_count,
    lstm_reference,
    make_model,
    model_param_count,
    signed_zero_input,
)

from nowcast.errors import KernelTooLarge, PoolTooLarge, ShapeMismatch
from nowcast.estimators import BiLstmClassifier, Conv1dClassifier
from nowcast.models import build_cnn_model, build_lstm_model
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
    layer_from_hyperparams,
    layers,
)
from nowcast.nn.layers import CONV_CHUNK_ELEMENTS, sigmoid


class TestDense:
    def test_zero_weights_pass_bias_through(self):
        layer = Dense(4, 1)
        layer.params["w"][...] = 0.0
        layer.params["b"][...] = 3.5
        out = layer.forward(np.random.default_rng(0).standard_normal((6, 4)))
        assert np.all(out == 3.5)

    def test_matches_manual_matmul(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng=rng)
        x = rng.standard_normal((5, 3))
        expected = x @ layer.params["w"] + layer.params["b"]
        assert np.array_equal(layer.forward(x), expected)

    def test_param_count_21_to_128(self):
        assert Dense(21, 128).param_count() == 2816

    def test_rejects_wrong_width(self):
        with pytest.raises(ShapeMismatch):
            Dense(4, 2).forward(np.zeros((3, 5)))


class TestActivations:
    def test_relu(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_sigmoid_zero(self):
        assert Sigmoid().forward(np.array([[0.0]]))[0, 0] == 0.5

    def test_sigmoid_four(self):
        out = Sigmoid().forward(np.array([[4.0]]))[0, 0]
        assert out == pytest.approx(0.98201, abs=5e-6)

    def test_sigmoid_extremes_finite(self):
        out = Sigmoid().forward(np.array([[-1000.0, 1000.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(0.0)
        assert out[0, 1] == pytest.approx(1.0)

    def test_sigmoid_bits_match_masked_form(self):
        def masked(x):  # the earlier implementation, kept as the reference
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                          36.7, -36.7, 709.0, -745.0, 1000.0, -1000.0])
        rng = np.random.default_rng(3)
        same_bits = lambda got, want: np.array_equal(got.view(np.uint64), want.view(np.uint64))
        wide = rng.standard_normal((2, 32, 180)) * 10.0
        wide[0, 0, :edges.size] = edges
        cases = [edges] + [rng.standard_normal((32, 90)) * s for s in (1.0, 10.0, 100.0)]
        cases += [wide.transpose(1, 0, 2), wide[:, ::3, 1::2]]  # non-contiguous
        for x in cases:
            before = x.copy()
            assert same_bits(sigmoid(x), masked(x))
            assert same_bits(x, before)  # the input is left as it was

        # into the g block of a (D, B, 4H) gate array, from a strided input
        H, x = 45, wide[..., 1::4]
        before, gates = x.copy(), np.full((2, 32, 4 * H), 7.0)
        out = gates[..., 2 * H:3 * H]
        assert sigmoid(x, out=out) is out
        assert same_bits(out, masked(x)) and same_bits(x, before)
        assert (gates[..., :2 * H] == 7.0).all() and (gates[..., 3 * H:] == 7.0).all()
        inplace = x.copy()
        assert sigmoid(inplace, out=inplace) is inplace
        assert same_bits(inplace, masked(x))


class TestLSTMForward:
    def test_zero_params_zero_input_gives_zero_states(self):
        layer = LSTM(3, 4)
        for arr in layer.params.values():
            arr[...] = 0.0
        out = layer.forward(np.random.default_rng(0).standard_normal((2, 5, 3)))
        assert np.array_equal(out, np.zeros((2, 5, 4)))

    def test_forced_cell_state_hook(self):
        # zero weights and biases, c0 = 2: every gate is 0.5, candidate 0,
        # so c1 = 1 and h1 = 0.5 * tanh(1)
        layer = LSTM(3, 4)
        for arr in layer.params.values():
            arr[...] = 0.0
        x = np.zeros((1, 1, 3))
        out = layer.forward(x, initial=(np.zeros(4), np.full(4, 2.0)))
        assert out[0, 0] == pytest.approx(np.full(4, 0.38080), abs=5e-6)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            T = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            H = int(rng.integers(1, 5))
            layer = LSTM(d, H, rng=rng)
            x = rng.standard_normal((1, T, d))
            got = layer.forward(x)[0]
            want = lstm_reference(
                x[0], layer.params["wx"], layer.params["wh"], layer.params["b"]
            )
            assert np.abs(got - want).max() <= 1e-12

    def test_last_state_mode(self):
        rng = np.random.default_rng(3)
        layer_seq = LSTM(3, 4, rng=np.random.default_rng(5))
        layer_last = LSTM(3, 4, return_sequences=False, rng=np.random.default_rng(5))
        x = rng.standard_normal((2, 6, 3))
        assert np.array_equal(layer_seq.forward(x)[:, -1], layer_last.forward(x))


class TestBiLSTMForward:
    def test_halves_equal_forward_and_reversed_runs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            T = int(rng.integers(1, 8))
            d = int(rng.integers(1, 5))
            H = int(rng.integers(1, 5))
            layer = BiLSTM(d, H, rng=rng)
            x = rng.standard_normal((2, T, d))
            out = layer.forward(x)
            half_f, half_b = bilstm_halves(layer)
            fwd = half_f.forward(x)
            bwd = half_b.forward(x[:, ::-1])
            assert np.array_equal(out[:, :, :H], fwd)
            assert np.array_equal(out[:, :, H:], bwd[:, ::-1])

    def test_single_step_concatenates_two_cells(self):
        rng = np.random.default_rng(2)
        layer = BiLSTM(3, 5, rng=rng)
        x = rng.standard_normal((4, 1, 3))
        out = layer.forward(x)
        half_f, half_b = bilstm_halves(layer)
        assert np.array_equal(out[:, 0, :5], half_f.forward(x)[:, 0])
        assert np.array_equal(out[:, 0, 5:], half_b.forward(x)[:, 0])

    def test_backward_halves_equal_standalone_lstms(self):
        rng = np.random.default_rng(13)
        for B, T, d, H in [(32, 24, 5, 45), (1, 1, 3, 2)] + [
            tuple(int(v) for v in rng.integers(1, 7, 4)) for _ in range(10)
        ]:
            layer = BiLSTM(d, H, rng=rng)
            half_f, half_b = bilstm_halves(layer)
            x = rng.standard_normal((B, T, d))
            dy = rng.standard_normal((B, T, 2 * H))
            layer.forward(x, train=True)
            half_f.forward(x, train=True)
            half_b.forward(x[:, ::-1], train=True)
            dx = layer.backward(dy)
            dxf = half_f.backward(dy[:, :, :H])
            dxb = half_b.backward(dy[:, ::-1, H:])
            for role in ("wx", "wh", "b"):
                assert np.array_equal(layer.grads[f"fwd_{role}"], half_f.grads[role])
                assert np.array_equal(layer.grads[f"bwd_{role}"], half_b.grads[role])
            assert np.array_equal(dx, dxf + dxb[:, ::-1])

    def test_palindrome_with_tied_params_is_self_reverse(self):
        rng = np.random.default_rng(4)
        layer = BiLSTM(2, 3, rng=rng)
        for role in ("wx", "wh", "b"):
            layer.params[f"bwd_{role}"][...] = layer.params[f"fwd_{role}"]
        half = rng.standard_normal((1, 4, 2))
        x = np.concatenate([half, half[:, ::-1]], axis=1)  # palindrome, T=8
        out = layer.forward(x)[0]
        swapped = np.concatenate([out[:, 3:], out[:, :3]], axis=1)
        assert np.allclose(out[::-1], swapped)

    def test_param_count_published_first_layer(self):
        assert BiLSTM(144, 45).param_count() == 68400

    def test_constructor_takes_rng_third_and_no_sequence_switch(self):
        positional = BiLSTM(3, 4, np.random.default_rng(5))
        keyword = BiLSTM(3, 4, rng=np.random.default_rng(5))
        default = BiLSTM(3, 4)
        for role, v in positional.params.items():
            assert np.array_equal(v, keyword.params[role])
        assert not np.array_equal(positional.params["fwd_wx"], default.params["fwd_wx"])
        with pytest.raises(TypeError):
            BiLSTM(3, 4, return_sequences=False)
        with pytest.raises(TypeError):
            positional.forward(np.zeros((1, 2, 3)), initial=(0.0, 0.0))

    def test_hyperparams_with_sequence_switch_rejected(self):
        hp = {"in_dim": 3, "hidden_size": 4}
        assert layer_from_hyperparams("bilstm", hp).hyperparams() == hp
        with pytest.raises(TypeError):
            layer_from_hyperparams("bilstm", {**hp, "return_sequences": False})


def recurrent_layers(seed, d=5, H=45):
    """(layer, initial) pairs: a full-sequence LSTM without and with an
    initial state, a last-state LSTM with one, and a BiLSTM without."""
    rng = np.random.default_rng(seed)
    initial = (rng.standard_normal(H), rng.standard_normal(H))  # broadcast over B
    return [
        (LSTM(d, H, rng=np.random.default_rng(seed)), None),
        (LSTM(d, H, rng=np.random.default_rng(seed)), initial),
        (LSTM(d, H, return_sequences=False, rng=np.random.default_rng(seed)), initial),
        (BiLSTM(d, H, rng=np.random.default_rng(seed)), None),
    ]


class TestEvalScan:
    """An eval forward keeps no backward history, and its output matches
    train mode bit for bit."""

    SIZES = [(B, T) for B in (1, 32, 512) for T in (1, 24)]

    @pytest.mark.parametrize("B, T", SIZES)
    def test_eval_output_equals_train_output(self, B, T):
        x = np.random.default_rng(B + T).standard_normal((B, T, 5))
        for layer, initial in recurrent_layers(seed=3):
            got = layer.forward(x, initial=initial)
            assert np.array_equal(got, layer.forward(x, train=True, initial=initial))

    def test_canonical_net_eval_forward_memory(self):
        model = build_lstm_model("canonical", lookback=24, features=5)
        x = np.random.default_rng(0).random((512, model.input_width))
        tracemalloc.start()
        try:
            model.forward(x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a kept step history, a (T, D, B, 4H) gate block and three
        # (T, D, B, H) state blocks per recurrent layer, left 91 MB
        assert peak < 50e6
        assert held < 20e6

    def test_classifier_decision_function_memory(self):
        rng = np.random.default_rng(1)
        X = rng.random((512, 120))
        est = BiLstmClassifier(lookback=24, epochs=0).fit(X[:64], rng.integers(0, 2, 64))
        tracemalloc.start()
        try:
            est.decision_function(X)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 20e6


class TestEvalForwardMemory:
    """An eval forward of the flat CNN keeps no layer's input or mask: at
    batch 512 those held 55 MB after the forward returned."""

    def test_flat_cnn_eval_forward_memory(self):
        model = build_cnn_model("flat", lookback=24, features=5)
        x = np.random.default_rng(0).random((512, model.input_width))
        tracemalloc.start()
        try:
            model.forward(x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert held < 1e6

    def test_cnn_classifier_decision_function_memory(self):
        rng = np.random.default_rng(1)
        X = rng.random((512, 120))
        est = Conv1dClassifier(lookback=24, epochs=0).fit(X[:64], rng.integers(0, 2, 64))
        tracemalloc.start()
        try:
            est.decision_function(X)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1e6


class TestConv1DForward:
    def test_identity_kernel(self):
        layer = Conv1D(1, 1, 1)
        layer.params["kernel"][...] = 1.0
        layer.params["bias"][...] = 0.0
        x = np.arange(6.0).reshape(1, 6, 1)
        assert np.array_equal(layer.forward(x), x)

    def test_hand_summed_window(self):
        layer = Conv1D(1, 1, 2)
        layer.params["kernel"][...] = 1.0
        layer.params["bias"][...] = 0.0
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
        assert np.array_equal(layer.forward(x)[0, :, 0], [3.0, 5.0, 7.0])

    def test_published_first_conv_geometry(self):
        layer = Conv1D(1, 32, 8)
        assert layer.forward(np.zeros((0, 144, 1))).shape[1:] == (137, 32)
        assert layer.param_count() == 288

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_matches_triple_loop_exactly(self, padding):
        rng = np.random.default_rng(13)
        for _ in range(25):
            L = int(rng.integers(5, 33))
            ci = int(rng.integers(1, 5))
            co = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            layer = Conv1D(ci, co, k, padding=padding, rng=rng)
            x = rng.standard_normal((3, L, ci))
            got = layer.forward(x)
            for b in range(3):
                want = conv1d_reference(
                    x[b], layer.params["kernel"], layer.params["bias"], padding
                )
                assert np.array_equal(got[b], want)

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_large_batch_equals_stacked_row_forwards(self, padding):
        # 512 rows span several row chunks of the forward, the last one partial
        rng = np.random.default_rng(17)
        layer = Conv1D(3, 40, 5, padding=padding, rng=rng)
        layer.params["bias"][...] = rng.standard_normal(40)
        x = rng.standard_normal((512, 47, 3))
        rows = np.concatenate([layer.forward(x[b:b + 1]) for b in range(512)])
        assert np.array_equal(layer.forward(x), rows)

    def test_same_padding_puts_extra_zero_on_right_for_even_k(self):
        layer = Conv1D(1, 1, 2, padding="same")
        layer.params["kernel"][...] = 1.0
        layer.params["bias"][...] = 0.0
        x = np.array([1.0, 1.0, 1.0]).reshape(1, 3, 1)
        # k=2: no left pad, one right zero -> last window sums x[2] + 0
        assert np.array_equal(layer.forward(x)[0, :, 0], [2.0, 2.0, 1.0])

    def test_kernel_longer_than_input_raises(self):
        with pytest.raises(KernelTooLarge):
            Conv1D(1, 1, 5).forward(np.zeros((1, 3, 1)))


def package_conv_layers():
    """Every Conv1D that build_cnn_model builds (flat at lookback 12 and 24,
    and parity) with the length it is fed, the conv stack on a (60, 5)
    multichannel sequence, plus one-output-channel layers of at least three
    summed terms."""
    cases = []
    builds = [(f"{mode}{lookback}", build_cnn_model(mode, lookback=lookback, features=5))
              for mode, lookback in [("flat", 12), ("flat", 24), ("parity", 24)]]
    # the five-channel stack: only the first conv reads the channel count,
    # so the other layers of a flat build take its shapes as they are
    multichannel = [Conv1D(5, 32, 8, rng=np.random.default_rng(60))]
    multichannel += build_cnn_model("flat", lookback=12, features=5).layers[1:]
    builds.append(("canonical60", make_model((60, 5), multichannel)))
    for tag, model in builds:
        shapes = [model.input_shape] + model.output_shapes()
        for i, (layer, shape) in enumerate(zip(model.layers, shapes)):
            if layer.kind == "conv1d":
                cases.append(pytest.param(layer, shape[0], id=f"{tag}-{i}"))
    for ci, k, padding, L in [(1, 2, "valid", 9), (2, 1, "valid", 7), (1, 8, "valid", 120),
                              (5, 3, "same", 24), (32, 5, "valid", 40), (64, 3, "same", 14)]:
        layer = Conv1D(ci, 1, k, padding=padding, rng=np.random.default_rng(ci * k))
        cases.append(pytest.param(layer, L, id=f"co1-ci{ci}-k{k}-{padding}"))
    return cases


def assert_rows_bit_equal(layer, x, y, rows, channels):
    """y[b] for each b in rows, on the given output channels, equals the
    brute-force loop bit for bit."""
    kernel = layer.params["kernel"][:, :, channels]
    bias = layer.params["bias"][channels]
    for b in rows:
        want = conv1d_reference(x[b], kernel, bias, layer.padding)
        assert np.array_equal(y[b][:, channels].view(np.uint64), want.view(np.uint64)), b


class TestConv1DPackageShapes:
    """The forward at the shapes the package builds, compared bit for bit
    (a uint64 view, so -0.0 and +0.0 differ) with the brute-force loop.
    Inputs hold exact 0.0 and -0.0 entries and the bias is random and
    non-zero, so no output sum starts from a signed zero."""

    @pytest.mark.parametrize("layer, L", package_conv_layers())
    def test_sampled_rows_match_reference_bitwise(self, layer, L):
        rng = np.random.default_rng(layer.kernel_size * L + layer.out_channels)
        layer.params["bias"][...] = rng.standard_normal(layer.out_channels)
        co, ci, k = layer.out_channels, layer.in_channels, layer.kernel_size
        channels = sorted({0, co - 1, *rng.integers(0, co, 2).tolist()})
        Lo = layer.forward(np.zeros((0, L, ci))).shape[1]
        rows = max(1, CONV_CHUNK_ELEMENTS // (Lo * (k * ci + 1)))
        # 2 * rows + 1 rows: two full row chunks and a partial third
        chunked = 2 * rows + 1
        for B, sample in [(1, [0]), (3, [0, 1, 2]),
                          (chunked, [0, rows - 1, rows, chunked - 1])]:
            x = signed_zero_input(rng, (B, L, ci))
            assert_rows_bit_equal(layer, x, layer.forward(x), sample, channels)

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_empty_sequence_raises(self, padding):
        with pytest.raises(ShapeMismatch):
            Conv1D(2, 3, 3, padding=padding).forward(np.zeros((2, 0, 2)))

    def test_negative_zero_bias_on_a_zero_sum_gives_positive_zero(self):
        # the sum starts at +0.0, not at the bias: a -0.0 bias whose outputs
        # stay zero gives +0.0 where the loop gives -0.0; the two are equal
        # under np.array_equal, the comparison of the forward oracle gate
        layer = Conv1D(2, 3, 2)
        layer.params["kernel"][...] = np.abs(layer.params["kernel"])
        layer.params["bias"][...] = [-0.0, -0.0, 1.5]
        x = np.full((1, 4, 2), -0.0)   # every product is -0.0
        got = layer.forward(x)[0]
        want = conv1d_reference(x[0], layer.params["kernel"], layer.params["bias"])
        assert np.array_equal(got, want)
        assert np.signbit(want[:, :2]).all()
        assert not np.signbit(got).any()
        assert np.array_equal(got[:, 2].view(np.uint64), want[:, 2].view(np.uint64))


def conv_passes(layer, x, dy):
    """Eval forward, train forward, input gradient and both parameter
    gradients of one Conv1D pass, from zeroed gradients."""
    layer.zero_grads()
    y_eval = layer.forward(x)
    y_train = layer.forward(x, train=True)
    dx = layer.backward(dy)
    return y_eval, y_train, dx, layer.grads["kernel"].copy(), layer.grads["bias"].copy()


def threaded_conv_cases():
    """Every Conv1D of build_cnn_model at lookbacks 12 and 24 with the length
    it is fed, plus one small layer per padding."""
    cases = []
    for lookback in (12, 24):
        model = build_cnn_model("flat", lookback=lookback, features=5)
        shapes = [model.input_shape] + model.output_shapes()
        for i, (layer, shape) in enumerate(zip(model.layers, shapes)):
            if layer.kind == "conv1d":
                cases.append(pytest.param(layer, shape[0], id=f"flat{lookback}-{i}"))
    for padding in ("valid", "same"):
        layer = Conv1D(3, 5, 4, padding=padding, rng=np.random.default_rng(7))
        cases.append(pytest.param(layer, 19, id=f"small-{padding}"))
    return cases


class TestConv1DThreads:
    """The thread count never changes a bit: every pass at 2 and 3 threads
    equals the one-thread pass under a uint64 view. The count is forced, so
    the cases run on a one-core machine too."""

    @pytest.mark.parametrize("layer, L", threaded_conv_cases())
    def test_every_pass_matches_one_thread_bitwise(self, layer, L, monkeypatch):
        rng = np.random.default_rng(layer.kernel_size * L + layer.out_channels)
        layer.params["bias"][...] = rng.standard_normal(layer.out_channels)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a race would show
        try:
            for B in (0, 1, 2, 3, 31, 32, 33, 513):
                x = signed_zero_input(rng, (B, L, layer.in_channels))
                Lo = layer.forward(x[:0]).shape[1]
                dy = signed_zero_input(rng, (B, Lo, layer.out_channels))
                monkeypatch.setattr(layers, "CONV_THREADS", 1)
                want = conv_passes(layer, x, dy)
                for threads in (2, 3):
                    monkeypatch.setattr(layers, "CONV_THREADS", threads)
                    got = conv_passes(layer, x, dy)
                    for name, g, w in zip(("eval", "train", "dx", "dkernel", "dbias"), got, want):
                        assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), (
                            B, threads, name)
        finally:
            sys.setswitchinterval(interval)

    def test_no_pool_for_a_build_or_a_single_share(self, monkeypatch):
        monkeypatch.setattr(layers, "_pool", (None, 0, None))
        monkeypatch.setattr(layers, "CONV_THREADS", 3)
        build_cnn_model("flat", lookback=24, features=5)  # zero-row forwards
        Conv1D(2, 3, 2).forward(np.ones((1, 5, 2)))
        assert layers._pool == (None, 0, None)
        Conv1D(2, 3, 2).forward(np.ones((2, 5, 2)))
        assert layers._pool[:2] == (os.getpid(), 1)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_child_makes_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(layers, "CONV_THREADS", 2)
        layer = Conv1D(3, 4, 3, rng=np.random.default_rng(3))
        x = np.random.default_rng(4).standard_normal((8, 16, 3))
        want = layer.forward(x)  # the parent's pool exists from here on
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def child():
            y = layer.forward(x)
            send.send((layers._pool[0] == os.getpid(), y))

        proc = ctx.Process(target=child)
        proc.start()
        try:
            assert recv.poll(60), "the forked child's conv did not finish"
            own_pool, got = recv.recv()
        finally:
            proc.kill()
            proc.join()
        assert own_pool
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPooling:
    def test_maxpool_hand_case(self):
        out = MaxPool1D(3).forward(np.array([1.0, 3, 2, 5, 4, 6]).reshape(1, 6, 1))
        assert np.array_equal(out[0, :, 0], [3.0, 6.0])

    def test_published_pool_lengths(self):
        assert MaxPool1D(3).forward(np.zeros((0, 133, 32))).shape[1:] == (44, 32)
        assert MaxPool1D(3).forward(np.zeros((0, 38, 64))).shape[1:] == (12, 64)

    def test_remainder_dropped(self):
        out = MaxPool1D(3).forward(np.arange(8.0).reshape(1, 8, 1))
        assert out.shape == (1, 2, 1)
        assert np.array_equal(out[0, :, 0], [2.0, 5.0])

    def test_pool_too_large(self):
        with pytest.raises(PoolTooLarge):
            MaxPool1D(4).forward(np.zeros((1, 3, 1)))

    def test_maxpool_backward_conserves_gradient(self):
        rng = np.random.default_rng(5)
        layer = MaxPool1D(3)
        x = rng.standard_normal((2, 10, 4))
        out = layer.forward(x, train=True)
        dy = rng.standard_normal(out.shape)
        dx = layer.backward(dy)
        assert dx.shape == x.shape
        assert np.isclose(dx.sum(), dy.sum())

    def test_maxpool_tie_break_routes_to_first_index(self):
        layer = MaxPool1D(2)
        x = np.array([2.0, 2.0]).reshape(1, 2, 1)
        layer.forward(x, train=True)
        dx = layer.backward(np.ones((1, 1, 1)))
        assert np.array_equal(dx[0, :, 0], [1.0, 0.0])

    def test_gap_constant_channel(self):
        out = GlobalAvgPool1D().forward(np.full((1, 9, 3), 7.0))
        assert np.array_equal(out, np.full((1, 3), 7.0))

    def test_gap_mean(self):
        out = GlobalAvgPool1D().forward(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1))
        assert out[0, 0] == 2.0

    def test_gap_backward_distributes_evenly(self):
        layer = GlobalAvgPool1D()
        x = np.random.default_rng(0).standard_normal((2, 5, 3))
        layer.forward(x)
        dy = np.random.default_rng(1).standard_normal((2, 3))
        dx = layer.backward(dy)
        assert np.allclose(dx.sum(axis=1), dy)
        assert np.allclose(dx, dy[:, None, :] / 5.0)


class TestDropout:
    def test_rate_zero_identity_both_modes(self):
        x = np.random.default_rng(0).standard_normal((4, 7))
        layer = Dropout(0.0)
        rng = np.random.default_rng(1)
        assert np.array_equal(layer.forward(x, train=True, rng=rng), x)
        assert np.array_equal(layer.forward(x, train=False), x)

    def test_eval_mode_identity(self):
        x = np.random.default_rng(0).standard_normal((4, 7))
        assert np.array_equal(Dropout(0.4).forward(x, train=False), x)

    def test_train_mode_mask_statistics(self):
        layer = Dropout(0.4)
        x = np.ones((1, 100_000))
        out = layer.forward(x, train=True, rng=np.random.default_rng(42))
        kept = (out != 0).mean()
        assert abs(kept - 0.6) < 0.01
        assert abs(out.mean() - 1.0) < 0.02

    def test_survivors_scaled(self):
        layer = Dropout(0.5)
        x = np.ones((1, 1000))
        out = layer.forward(x, train=True, rng=np.random.default_rng(0))
        assert set(np.unique(out)) == {0.0, 2.0}

    def test_train_mode_without_rng_raises(self):
        with pytest.raises(ValueError):
            Dropout(0.4).forward(np.ones((1, 3)), train=True)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestParamCountFormulas:
    @pytest.mark.parametrize(
        "kind,hp,expected",
        [
            ("dense", {"in_dim": 526, "out_dim": 256}, 134912),
            ("dense", {"in_dim": 21, "out_dim": 128}, 2816),
            ("lstm", {"in_dim": 90, "hidden_size": 21}, 9408),
            ("bilstm", {"in_dim": 144, "hidden_size": 45}, 68400),
            ("bilstm", {"in_dim": 5, "hidden_size": 45}, 18360),
            ("conv1d", {"in_channels": 128, "kernel_size": 2, "out_channels": 256}, 65792),
            ("relu", {}, 0),
            ("dropout", {}, 0),
        ],
    )
    def test_formula(self, kind, hp, expected):
        assert formula_param_count(kind, **hp) == expected

    def test_formulas_match_stored_array_sizes(self):
        rng = np.random.default_rng(0)
        layers = [
            Dense(7, 3, rng=rng),
            LSTM(6, 4, rng=rng),
            BiLSTM(5, 8, rng=rng),
            Conv1D(3, 9, 4, rng=rng),
        ]
        for layer in layers:
            assert layer.param_count() == formula_param_count(layer.kind, **layer.hyperparams())

    def test_model_total_over_spec_list(self):
        specs = [
            ("bilstm", {"in_dim": 144, "hidden_size": 45}),
            ("lstm", {"in_dim": 90, "hidden_size": 21}),
            ("dense", {"in_dim": 21, "out_dim": 128}),
            ("relu", {}),
            ("dense", {"in_dim": 128, "out_dim": 526}),
            ("relu", {}),
            ("dense", {"in_dim": 526, "out_dim": 256}),
            ("relu", {}),
            ("dense", {"in_dim": 256, "out_dim": 1}),
            ("sigmoid", {}),
        ]
        assert model_param_count(specs) == 283647
