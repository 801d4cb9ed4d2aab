"""Batched forward/backward layer implementations on float64 numpy arrays.

Every layer consumes a batch-leading array: (B, d) for vector layers,
(B, T, d) for recurrent layers, (B, L, C) for convolutional layers.
Only ``forward(train=True)`` keeps what ``backward`` needs; an eval
forward keeps nothing and drops what an earlier train forward kept, so
``backward`` must follow a train-mode forward. ``backward`` accumulates
parameter gradients into ``self.grads`` (mirror shapes of
``self.params``) and returns the gradient with respect to its input.
Parameter gradients are summed over the batch; the trainer owns any 1/B
scaling.

Entries of ``params`` and ``grads`` are written in place, never rebound:
the recurrent layers build both on access, as views of stacked arrays.
"""

import functools

import numpy as np

from ..errors import KernelTooLarge, PoolTooLarge, ShapeMismatch

CONV_CHUNK_ELEMENTS = 1 << 16   # Conv1D forward: window-matrix elements per row chunk


def sigmoid(x, out=None):
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) otherwise, so exp never overflows.

    Written without a per-element select: ``e = exp(min(x, -x))`` is
    e^-|x|, and the numerator ``max(x >= 0, e)`` is 1 where x >= 0 (there
    e <= 1) and e elsewhere. NaN keeps its sign and ±0 gives 0.5. The
    result goes into ``out`` when given, which may be ``x`` itself.
    """
    e = np.minimum(x, -x)
    np.exp(e, out=e)
    num = np.maximum(x >= 0, e, out=out)
    e += 1.0
    return np.divide(num, e, out=num)


class Layer:
    """Base layer: parameter store and gradient store. A layer's shape rule
    lives in its ``forward`` alone: ``Model`` reads each layer's output shape
    off an eval forward of a zero-row batch."""

    kind = "layer"

    def __init__(self):
        self.params = {}
        self.grads = {}

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def param_count(self):
        return sum(a.size for a in self.params.values())

    def hyperparams(self):
        """Constructor arguments needed to rebuild this layer (no weights)."""
        return {}

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0

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
        self._x = x if train else None
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dy):
        self.grads["w"] += self._x.T @ dy
        self.grads["b"] += dy.sum(axis=0)
        return dy @ self.params["w"].T

    def hyperparams(self):
        return {"in_dim": self.in_dim, "out_dim": self.out_dim}


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, train=False, rng=None):
        mask = x > 0
        self._mask = mask if train else None
        return x * mask

    def backward(self, dy):
        return dy * self._mask


class Sigmoid(Layer):
    kind = "sigmoid"

    def forward(self, x, train=False, rng=None):
        y = sigmoid(x)
        self._y = y if train else None
        return y

    def backward(self, dy):
        return dy * self._y * (1.0 - self._y)


class LSTM(Layer):
    """LSTM over (B, T, in_dim) input, one time loop for all directions.

    ``prefixes`` holds one parameter-role prefix per direction: direction 0
    reads the sequence in order, direction 1 (``BiLSTM``) its reversal.
    wx (D, d, 4H), wh (D, H, 4H) and b (D, 4H) are stored stacked over the
    D directions; ``params`` and ``grads`` are per-direction views of them,
    built on access so a copied layer stays tied to what the scan reads.
    Each step runs every direction in one batched matmul.

    Gate blocks are stored in one fused axis ordered (i, f, g, o) with a
    single bias vector per gate block, so the trainable size per direction
    is 4H(d + H + 1). The forget-gate bias starts at 1. Output step t
    concatenates every direction's hidden state for input position t;
    ``return_sequences`` selects between that (B, T, D*H) trace and the
    (B, D*H) final states. The one-direction ``forward`` accepts an optional
    ``initial`` (h0, c0) pair, used by tests to probe the cell equations.

    One step writes everything in place. The pre-activation goes into one
    (D, B, 4H) buffer reused by every step, summed as (x·wx + h·wh) + b.
    One ``sigmoid`` over all four gate blocks writes the step's gate slot,
    then tanh of the g block overwrites that block; c, tanh(c) and h go
    straight into their step slots.

    Only a train-mode forward keeps the per-step gate and state history that
    ``backward`` reads. An eval forward runs the same scan through one
    step slot, holds only the steps it returns and keeps nothing after it
    returns; its outputs are bit-identical to a train-mode forward's.
    """

    kind = "lstm"
    prefixes = ("",)

    def __init__(self, in_dim, hidden_size, return_sequences=True, rng=None):
        # no Layer.__init__: params and grads are properties here
        self.in_dim = int(in_dim)
        self.hidden_size = int(hidden_size)
        self.return_sequences = bool(return_sequences)
        rng = rng or np.random.default_rng(0)
        D, d, h = len(self.prefixes), self.in_dim, self.hidden_size
        lim_x = np.sqrt(6.0 / (d + 4 * h))
        lim_h = np.sqrt(6.0 / (h + 4 * h))
        self._w = {
            "wx": np.empty((D, d, 4 * h)),
            "wh": np.empty((D, h, 4 * h)),
            "b": np.zeros((D, 4 * h)),
        }
        for k in range(D):
            self._w["wx"][k] = rng.uniform(-lim_x, lim_x, (d, 4 * h))
            self._w["wh"][k] = rng.uniform(-lim_h, lim_h, (h, 4 * h))
        self._w["b"][:, h:2 * h] = 1.0  # forget gate open at init
        self._g = {role: np.zeros_like(w) for role, w in self._w.items()}
        self._cache = None

    params = property(lambda self: self._views(self._w))
    grads = property(lambda self: self._views(self._g))

    def _views(self, stacked):
        return {
            prefix + role: arr[k]
            for k, prefix in enumerate(self.prefixes)
            for role, arr in stacked.items()
        }

    def _steps(self, seqs):
        """Map each direction's (B, T, ...) sequence between input order and
        its own step order: as is for direction 0, reversed for direction 1."""
        return [s[:, ::-1] if k else s for k, s in enumerate(seqs)]

    def forward(self, x, train=False, rng=None, initial=None):
        if x.ndim != 3 or x.shape[2] != self.in_dim or x.shape[1] < 1:
            raise ShapeMismatch(
                f"{self.kind} expects (B, T>=1, {self.in_dim}), got {x.shape}"
            )
        D, H = len(self.prefixes), self.hidden_size
        if initial is not None and D > 1:
            raise TypeError(f"{self.kind} takes no initial state")
        self._cache = None  # release the last batch before allocating
        B, T, _ = x.shape
        xs = np.stack(self._steps([x] * D))
        wx, wh, b = self._w["wx"], self._w["wh"], self._w["b"][:, None]
        if initial is None:
            h0 = c0 = np.zeros((D, B, H))
        else:
            h0, c0 = (np.broadcast_to(v, (D, B, H)).astype(float) for v in initial)
        h_prev, c_prev = h0, c0
        # eval keeps no history: one step slot per buffer, rewritten every
        # step, and hs holds only the steps returned
        n = T if train else 1
        gates = np.empty((n, D, B, 4 * H))  # activated i, f, g, o
        cs = np.empty((n, D, B, H))
        tc = np.empty((n, D, B, H))
        hs = np.empty((T if self.return_sequences else n, D, B, H))
        z = np.empty((D, B, 4 * H))  # pre-activation, (x·wx + h·wh) + b
        for t in range(T if B else 0):  # a zero-row batch has no step to run
            s = t % n
            np.matmul(xs[:, :, t], wx, out=z)
            z += h_prev @ wh
            z += b
            a = sigmoid(z, out=gates[s])
            np.tanh(z[..., 2 * H:3 * H], out=a[..., 2 * H:3 * H])
            c_prev = np.multiply(a[..., H:2 * H], c_prev, out=cs[s])
            c_prev += a[..., :H] * a[..., 2 * H:3 * H]
            np.tanh(c_prev, out=tc[s])
            h_prev = np.multiply(a[..., 3 * H:], tc[s], out=hs[t % len(hs)])
        if train:
            self._cache = (xs, gates, cs, tc, hs, h0, c0)
        if self.return_sequences:
            return np.concatenate(self._steps(hs.transpose(1, 2, 0, 3)), axis=2)
        return hs[-1].transpose(1, 0, 2).reshape(B, D * H)

    def backward(self, dy):
        xs, gates, cs, tc, hs, h0, c0 = self._cache
        D, B, T, _ = xs.shape
        H = self.hidden_size
        if self.return_sequences:
            dh_all = np.stack(self._steps(np.split(dy, D, axis=2)), axis=2)
        else:
            dh_all = np.zeros((B, T, D, H))
            dh_all[:, T - 1] = dy.reshape(B, D, H)
        dh_all = dh_all.transpose(1, 2, 0, 3)  # (T, D, B, H)
        gi, gf, gg, go = (gates[..., k * H:(k + 1) * H] for k in range(4))
        wxT = self._w["wx"].transpose(0, 2, 1)
        whT = self._w["wh"].transpose(0, 2, 1)
        dwx, dwh, db = self._g["wx"], self._g["wh"], self._g["b"]
        dxs = np.empty_like(xs)
        dh_next = np.zeros((D, B, H))
        dc_next = np.zeros((D, B, H))
        dz = np.empty((D, B, 4 * H))
        for t in range(T - 1, -1, -1):
            dh = dh_all[t] + dh_next
            dc = dc_next + dh * go[t] * (1.0 - tc[t] ** 2)
            c_before = cs[t - 1] if t > 0 else c0
            dz[..., :H] = dc * gg[t] * gi[t] * (1.0 - gi[t])
            dz[..., H:2 * H] = dc * c_before * gf[t] * (1.0 - gf[t])
            dz[..., 2 * H:3 * H] = dc * gi[t] * (1.0 - gg[t] ** 2)
            dz[..., 3 * H:] = dh * tc[t] * go[t] * (1.0 - go[t])
            h_before = hs[t - 1] if t > 0 else h0
            dwx += xs[:, :, t].transpose(0, 2, 1) @ dz
            dwh += h_before.transpose(0, 2, 1) @ dz
            db += dz.sum(axis=1)
            dxs[:, :, t] = dz @ wxT
            dh_next = dz @ whT
            dc_next = dc * gf[t]
        return functools.reduce(np.add, self._steps(dxs))

    def hyperparams(self):
        return {
            "in_dim": self.in_dim,
            "hidden_size": self.hidden_size,
            "return_sequences": self.return_sequences,
        }


class BiLSTM(LSTM):
    """Two independent LSTMs, one over the sequence and one over its
    reversal: the two-direction case of ``LSTM``, always giving the full
    (B, T, 2H) trace from zero initial states. Parameter roles are prefixed
    ``fwd_`` / ``bwd_``."""

    kind = "bilstm"
    prefixes = ("fwd_", "bwd_")

    def __init__(self, in_dim, hidden_size, rng=None):
        super().__init__(in_dim, hidden_size, rng=rng)

    def hyperparams(self):
        return {"in_dim": self.in_dim, "hidden_size": self.hidden_size}


class Conv1D(Layer):
    """1D convolution over (B, L, in_channels) with valid or same padding.

    The forward lowers each chunk of rows to one window matrix ("im2col"):
    per output position a row of 1 + k*in_channels values, a leading 1.0
    and then the taps, kernel position major and input channel minor. One
    ``np.einsum(..., optimize=False)`` contracts it with the bias-topped
    kernel matrix, summing each output left to right: the bias, then one
    rounded product and one rounded add per tap, as the scalar reference
    loop does. Results are bitwise-reproducible against brute force, with
    one signed-zero exception: einsum starts its sum at +0.0, so where a
    bias entry is -0.0 and the whole sum stays zero the output is +0.0
    where the loop gives -0.0 (equal under ``==``). Training from the zero
    initial bias never produces a -0.0 bias.

    The backward pass is free to use matmul. Same padding splits k-1 zeros
    symmetrically with the extra column on the right for even k.
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

    def _pad(self):
        if self.padding == "same":
            total = self.kernel_size - 1
            left = total // 2
            return left, total - left
        return 0, 0

    def forward(self, x, train=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.in_channels or x.shape[1] < 1:
            raise ShapeMismatch(
                f"conv1d expects (B, L>=1, {self.in_channels}), got {x.shape}"
            )
        B, L, ci = x.shape
        k = self.kernel_size
        if self.padding == "valid" and L < k:
            raise KernelTooLarge(f"kernel {k} on length-{L} input")
        left, right = self._pad()
        if left or right:
            xp = np.zeros((B, L + left + right, ci))
            xp[:, left:left + L] = x
        else:
            xp = x
        self._xp = xp if train else None
        self._trim = (left, L)
        Lo = xp.shape[1] - k + 1
        co, q = self.out_channels, k * ci + 1
        # row 0 the bias, then the taps; a (q, co + 1) buffer sliced to co
        # columns is never unit-stride along q, which would send co = 1 to
        # einsum's vectorised dot and its different summation order
        kk = np.empty((q, co + 1))[:, :co]
        kk[0] = self.params["bias"]
        kk[1:] = self.params["kernel"].reshape(k * ci, co)
        y = np.empty((B, Lo, co))
        rows = max(1, CONV_CHUNK_ELEMENTS // (Lo * q))
        cols = np.empty((min(rows, B), Lo, q))
        cols[:, :, 0] = 1.0
        taps = cols[:, :, 1:].reshape(len(cols), Lo, k, ci)
        windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)
        for a in range(0, B, rows):
            r = min(rows, B - a)
            taps[:r] = windows[a:a + r].transpose(0, 1, 3, 2)
            np.einsum("rtq,qo->rto", cols[:r], kk, out=y[a:a + r], optimize=False)
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
        self._argmax = xr.argmax(axis=2) if train else None
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
