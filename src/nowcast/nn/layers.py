"""Batched forward/backward layer implementations on float64 numpy arrays.

Every layer consumes a batch-leading array: (B, d) for vector layers,
(B, T, d) for recurrent layers, (B, L, C) for convolutional layers.
``forward`` caches whatever ``backward`` needs; ``backward`` accumulates
parameter gradients into ``self.grads`` (mirror shapes of ``self.params``)
and returns the gradient with respect to its input. Parameter gradients
are summed over the batch; the trainer owns any 1/B scaling.
"""

import numpy as np

from ..errors import KernelTooLarge, PoolTooLarge, ShapeMismatch

CONV_CHUNK_ELEMENTS = 1 << 16   # Conv1D forward: output elements per row chunk


def sigmoid(x):
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) otherwise, so exp never overflows."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0, e) / (1.0 + e)


class Layer:
    """Base layer: parameter store, gradient store, shape bookkeeping."""

    kind = "layer"

    def __init__(self):
        self.params = {}
        self.grads = {}

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def output_shape(self, in_shape):
        """Per-sample output shape for a per-sample input shape."""
        return in_shape

    def param_count(self):
        return sum(a.size for a in self.params.values())

    def hyperparams(self):
        """Constructor arguments needed to rebuild this layer (no weights)."""
        return {}

    def zero_grads(self):
        for k in self.grads:
            self.grads[k][...] = 0.0

    def _alloc_grads(self):
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}


class Dense(Layer):
    """Affine map y = x @ w + b on (B, in_dim) input."""

    kind = "dense"

    def __init__(self, in_dim, out_dim, rng=None):
        super().__init__()
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        rng = rng or np.random.default_rng(0)
        limit = np.sqrt(6.0 / (self.in_dim + self.out_dim))
        self.params = {
            "w": rng.uniform(-limit, limit, (self.in_dim, self.out_dim)),
            "b": np.zeros(self.out_dim),
        }
        self._alloc_grads()
        self._x = None

    def forward(self, x, train=False, rng=None):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeMismatch(
                f"dense expects (B, {self.in_dim}), got {x.shape}"
            )
        self._x = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dy):
        self.grads["w"] += self._x.T @ dy
        self.grads["b"] += dy.sum(axis=0)
        return dy @ self.params["w"].T

    def output_shape(self, in_shape):
        if in_shape != (self.in_dim,):
            raise ShapeMismatch(f"dense {self.in_dim}->{self.out_dim} fed {in_shape}")
        return (self.out_dim,)

    def hyperparams(self):
        return {"in_dim": self.in_dim, "out_dim": self.out_dim}


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, train=False, rng=None):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy):
        return dy * self._mask


class Sigmoid(Layer):
    kind = "sigmoid"

    def forward(self, x, train=False, rng=None):
        self._y = sigmoid(x)
        return self._y

    def backward(self, dy):
        return dy * self._y * (1.0 - self._y)


class LSTM(Layer):
    """Single-direction LSTM over (B, T, in_dim) input.

    Gate blocks are stored in one fused axis ordered (i, f, g, o) with a
    single bias vector per gate block, so the trainable size per direction
    is 4H(d + H + 1). The forget-gate bias starts at 1. ``return_sequences``
    selects between the full (B, T, H) hidden trace and the final (B, H)
    state. ``forward`` accepts an optional ``initial`` (h0, c0) pair, used
    by tests to probe the cell equations.
    """

    kind = "lstm"

    def __init__(self, in_dim, hidden_size, return_sequences=True, rng=None):
        super().__init__()
        self.in_dim = int(in_dim)
        self.hidden_size = int(hidden_size)
        self.return_sequences = bool(return_sequences)
        rng = rng or np.random.default_rng(0)
        d, h = self.in_dim, self.hidden_size
        lim_x = np.sqrt(6.0 / (d + 4 * h))
        lim_h = np.sqrt(6.0 / (h + 4 * h))
        b = np.zeros(4 * h)
        b[h:2 * h] = 1.0  # forget gate open at init
        self.params = {
            "wx": rng.uniform(-lim_x, lim_x, (d, 4 * h)),
            "wh": rng.uniform(-lim_h, lim_h, (h, 4 * h)),
            "b": b,
        }
        self._alloc_grads()
        self._cache = None

    def forward(self, x, train=False, rng=None, initial=None):
        if x.ndim != 3 or x.shape[2] != self.in_dim or x.shape[1] < 1:
            raise ShapeMismatch(
                f"lstm expects (B, T>=1, {self.in_dim}), got {x.shape}"
            )
        B, T, _ = x.shape
        H = self.hidden_size
        wx, wh, b = self.params["wx"], self.params["wh"], self.params["b"]
        if initial is None:
            h_prev = np.zeros((B, H))
            c_prev = np.zeros((B, H))
        else:
            h_prev = np.broadcast_to(initial[0], (B, H)).astype(float)
            c_prev = np.broadcast_to(initial[1], (B, H)).astype(float)

        gi = np.empty((T, B, H))
        gf = np.empty((T, B, H))
        gg = np.empty((T, B, H))
        go = np.empty((T, B, H))
        cs = np.empty((T, B, H))
        tc = np.empty((T, B, H))
        hs = np.empty((T, B, H))
        c0 = c_prev
        h0 = h_prev
        for t in range(T):
            z = x[:, t] @ wx + h_prev @ wh + b
            gi[t] = sigmoid(z[:, :H])
            gf[t] = sigmoid(z[:, H:2 * H])
            gg[t] = np.tanh(z[:, 2 * H:3 * H])
            go[t] = sigmoid(z[:, 3 * H:])
            c_prev = gf[t] * c_prev + gi[t] * gg[t]
            cs[t] = c_prev
            tc[t] = np.tanh(c_prev)
            h_prev = go[t] * tc[t]
            hs[t] = h_prev
        self._cache = (x, gi, gf, gg, go, cs, tc, hs, h0, c0)
        if self.return_sequences:
            return hs.transpose(1, 0, 2)
        return hs[T - 1]

    def backward(self, dy):
        x, gi, gf, gg, go, cs, tc, hs, h0, c0 = self._cache
        B, T, _ = x.shape
        H = self.hidden_size
        if self.return_sequences:
            dh_all = dy.transpose(1, 0, 2)
        else:
            dh_all = np.zeros((T, B, H))
            dh_all[T - 1] = dy
        wx, wh = self.params["wx"], self.params["wh"]
        dwx = self.grads["wx"]
        dwh = self.grads["wh"]
        db = self.grads["b"]
        dx = np.empty_like(x)
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        dz = np.empty((B, 4 * H))
        for t in range(T - 1, -1, -1):
            dh = dh_all[t] + dh_next
            dc = dc_next + dh * go[t] * (1.0 - tc[t] ** 2)
            c_before = cs[t - 1] if t > 0 else c0
            dz[:, :H] = dc * gg[t] * gi[t] * (1.0 - gi[t])
            dz[:, H:2 * H] = dc * c_before * gf[t] * (1.0 - gf[t])
            dz[:, 2 * H:3 * H] = dc * gi[t] * (1.0 - gg[t] ** 2)
            dz[:, 3 * H:] = dh * tc[t] * go[t] * (1.0 - go[t])
            h_before = hs[t - 1] if t > 0 else h0
            dwx += x[:, t].T @ dz
            dwh += h_before.T @ dz
            db += dz.sum(axis=0)
            dx[:, t] = dz @ wx.T
            dh_next = dz @ wh.T
            dc_next = dc * gf[t]
        return dx

    def output_shape(self, in_shape):
        if len(in_shape) != 2 or in_shape[1] != self.in_dim:
            raise ShapeMismatch(f"lstm ({self.in_dim} wide) fed {in_shape}")
        if self.return_sequences:
            return (in_shape[0], self.hidden_size)
        return (self.hidden_size,)

    def hyperparams(self):
        return {
            "in_dim": self.in_dim,
            "hidden_size": self.hidden_size,
            "return_sequences": self.return_sequences,
        }


class BiLSTM(Layer):
    """Two independent LSTMs, one over the sequence and one over its reversal.

    Output step t concatenates the forward hidden state at t with the
    reversed direction's hidden state for the same input position, giving
    (B, T, 2H). Parameter roles are prefixed ``fwd_`` / ``bwd_``.
    """

    kind = "bilstm"

    def __init__(self, in_dim, hidden_size, rng=None):
        super().__init__()
        self.in_dim = int(in_dim)
        self.hidden_size = int(hidden_size)
        rng = rng or np.random.default_rng(0)
        self.fwd = LSTM(in_dim, hidden_size, return_sequences=True, rng=rng)
        self.bwd = LSTM(in_dim, hidden_size, return_sequences=True, rng=rng)
        self.params = {f"fwd_{k}": v for k, v in self.fwd.params.items()}
        self.params.update({f"bwd_{k}": v for k, v in self.bwd.params.items()})
        self._rebind_grads()

    def _rebind_grads(self):
        self.grads = {f"fwd_{k}": v for k, v in self.fwd.grads.items()}
        self.grads.update({f"bwd_{k}": v for k, v in self.bwd.grads.items()})

    def forward(self, x, train=False, rng=None):
        H = self.hidden_size
        B, T, _ = x.shape
        out = np.empty((B, T, 2 * H))
        out[:, :, :H] = self.fwd.forward(x, train=train)
        hb = self.bwd.forward(x[:, ::-1], train=train)
        out[:, :, H:] = hb[:, ::-1]
        return out

    def backward(self, dy):
        H = self.hidden_size
        dxf = self.fwd.backward(dy[:, :, :H])
        dxb = self.bwd.backward(dy[:, ::-1, H:])
        return dxf + dxb[:, ::-1]

    def output_shape(self, in_shape):
        if len(in_shape) != 2 or in_shape[1] != self.in_dim:
            raise ShapeMismatch(f"bilstm ({self.in_dim} wide) fed {in_shape}")
        return (in_shape[0], 2 * self.hidden_size)

    def zero_grads(self):
        self.fwd.zero_grads()
        self.bwd.zero_grads()

    def hyperparams(self):
        return {"in_dim": self.in_dim, "hidden_size": self.hidden_size}


class Conv1D(Layer):
    """1D convolution over (B, L, in_channels) with valid or same padding.

    The forward accumulation runs tap by tap (kernel position major, input
    channel minor) with elementwise numpy ops only, so each output value is
    the plain left-to-right sum a scalar reference loop produces: results
    are bitwise-reproducible against brute force. The backward pass is free
    to use matmul. Same padding splits k-1 zeros symmetrically with the
    extra column on the right for even k.
    """

    kind = "conv1d"

    def __init__(self, in_channels, out_channels, kernel_size, padding="valid", rng=None):
        super().__init__()
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be valid|same, got {padding!r}")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.padding = padding
        rng = rng or np.random.default_rng(0)
        k, ci, co = self.kernel_size, self.in_channels, self.out_channels
        limit = np.sqrt(6.0 / (k * ci + k * co))
        self.params = {
            "kernel": rng.uniform(-limit, limit, (k, ci, co)),
            "bias": np.zeros(co),
        }
        self._alloc_grads()
        self._xp = None

    def _pad(self, L):
        if self.padding == "same":
            total = self.kernel_size - 1
            left = total // 2
            return left, total - left
        return 0, 0

    def forward(self, x, train=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ShapeMismatch(
                f"conv1d expects (B, L, {self.in_channels}), got {x.shape}"
            )
        B, L, ci = x.shape
        k = self.kernel_size
        if self.padding == "valid" and L < k:
            raise KernelTooLarge(f"kernel {k} on length-{L} input")
        left, right = self._pad(L)
        if left or right:
            xp = np.zeros((B, L + left + right, ci))
            xp[:, left:left + L] = x
        else:
            xp = x
        self._xp = xp
        self._trim = (left, L)
        Lo = xp.shape[1] - k + 1
        kernel, bias = self.params["kernel"], self.params["bias"]
        y = np.empty((B, Lo, self.out_channels))
        # row chunks keep y's slice and the product buffer in cache; the
        # tap order per output value, and so every bit, stays the same
        rows = max(1, CONV_CHUNK_ELEMENTS // max(1, Lo * self.out_channels))
        prod = np.empty((min(rows, B), Lo, self.out_channels))
        for a in range(0, B, rows):
            yc, xc = y[a:a + rows], xp[a:a + rows]
            buf = prod[:len(yc)]
            yc[:] = bias
            for j in range(k):
                for ic in range(ci):
                    np.multiply(xc[:, j:j + Lo, ic, None], kernel[j, ic], out=buf)
                    yc += buf
        return y

    def backward(self, dy):
        xp = self._xp
        B, _, ci = xp.shape
        k = self.kernel_size
        Lo = dy.shape[1]
        kernel = self.params["kernel"]
        dk = self.grads["kernel"]
        dy2 = dy.reshape(B * Lo, self.out_channels)
        dxp = np.zeros_like(xp)
        for j in range(k):
            xj = np.ascontiguousarray(xp[:, j:j + Lo]).reshape(B * Lo, ci)
            dk[j] += xj.T @ dy2
            dxp[:, j:j + Lo] += dy @ kernel[j].T
        self.grads["bias"] += dy2.sum(axis=0)
        left, L = self._trim
        return dxp[:, left:left + L]

    def output_shape(self, in_shape):
        if len(in_shape) != 2 or in_shape[1] != self.in_channels:
            raise ShapeMismatch(f"conv1d ({self.in_channels} ch) fed {in_shape}")
        L = in_shape[0]
        if self.padding == "same":
            return (L, self.out_channels)
        if L < self.kernel_size:
            raise KernelTooLarge(f"kernel {self.kernel_size} on length-{L} input")
        return (L - self.kernel_size + 1, self.out_channels)

    def hyperparams(self):
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_size": self.kernel_size,
            "padding": self.padding,
        }


class MaxPool1D(Layer):
    """Non-overlapping max pooling; trailing remainder positions dropped."""

    kind = "maxpool1d"

    def __init__(self, pool_size):
        super().__init__()
        self.pool_size = int(pool_size)

    def forward(self, x, train=False, rng=None):
        B, L, C = x.shape
        p = self.pool_size
        if L < p:
            raise PoolTooLarge(f"pool {p} on length-{L} input")
        n = L // p
        xr = x[:, :n * p].reshape(B, n, p, C)
        self._argmax = xr.argmax(axis=2)
        self._in_shape = (B, L, C)
        return xr.max(axis=2)

    def backward(self, dy):
        B, L, C = self._in_shape
        p = self.pool_size
        n = L // p
        dxr = np.zeros((B, n, p, C))
        np.put_along_axis(dxr, self._argmax[:, :, None, :], dy[:, :, None, :], axis=2)
        dx = np.zeros((B, L, C))
        dx[:, :n * p] = dxr.reshape(B, n * p, C)
        return dx

    def output_shape(self, in_shape):
        L, C = in_shape
        if L < self.pool_size:
            raise PoolTooLarge(f"pool {self.pool_size} on length-{L} input")
        return (L // self.pool_size, C)

    def hyperparams(self):
        return {"pool_size": self.pool_size}


class GlobalAvgPool1D(Layer):
    """Per-channel mean over the time axis: (B, L, C) -> (B, C)."""

    kind = "gap1d"

    def forward(self, x, train=False, rng=None):
        self._L = x.shape[1]
        return x.mean(axis=1)

    def backward(self, dy):
        return np.repeat(dy[:, None, :] / self._L, self._L, axis=1)

    def output_shape(self, in_shape):
        return (in_shape[1],)


class Dropout(Layer):
    """Inverted dropout: train-time masking with 1/(1-rate) rescale, eval identity."""

    kind = "dropout"

    def __init__(self, rate):
        super().__init__()
        rate = float(rate)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._scaled_mask = None

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._scaled_mask = None
            return x
        if rng is None:
            raise ValueError("dropout in train mode needs an rng")
        keep = rng.random(x.shape) >= self.rate
        self._scaled_mask = keep / (1.0 - self.rate)
        return x * self._scaled_mask

    def backward(self, dy):
        if self._scaled_mask is None:
            return dy
        return dy * self._scaled_mask

    def hyperparams(self):
        return {"rate": self.rate}


LAYER_KINDS = {
    cls.kind: cls
    for cls in (Dense, ReLU, Sigmoid, LSTM, BiLSTM, Conv1D, MaxPool1D, GlobalAvgPool1D, Dropout)
}


def formula_param_count(kind, **hp):
    """Closed-form trainable-parameter count for a layer kind.

    dense: in*out + out; lstm: 4H(d+H+1); bilstm doubles that;
    conv1d: C_out*(k*C_in + 1); activation/pool/dropout layers: 0.
    Cross-checked in tests against the sizes of the stored arrays.
    """
    if kind == "dense":
        return hp["in_dim"] * hp["out_dim"] + hp["out_dim"]
    if kind == "lstm":
        h = hp["hidden_size"]
        return 4 * h * (hp["in_dim"] + h + 1)
    if kind == "bilstm":
        h = hp["hidden_size"]
        return 2 * 4 * h * (hp["in_dim"] + h + 1)
    if kind == "conv1d":
        return hp["out_channels"] * (hp["kernel_size"] * hp["in_channels"] + 1)
    if kind in ("relu", "sigmoid", "maxpool1d", "gap1d", "dropout"):
        return 0
    raise ValueError(f"unknown layer kind {kind!r}")


def model_param_count(layer_specs):
    """Total count over (kind, hyperparams) pairs."""
    return sum(formula_param_count(kind, **hp) for kind, hp in layer_specs)


def layer_from_hyperparams(kind, hyperparams):
    """Rebuild a layer from its checkpointed kind tag and hyperparameters."""
    try:
        cls = LAYER_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown layer kind {kind!r}") from None
    return cls(**hyperparams)
