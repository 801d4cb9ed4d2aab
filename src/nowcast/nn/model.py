"""Ordered layer stacks with a named parameter store, plus a finite-difference
gradient checker used as the correctness oracle for every backward pass."""

import numpy as np

from ..errors import ShapeMismatch

REL_ERR_FLOOR = 1e-4  # denominators below this are treated as this (near-zero grads)


class Model:
    """A sequential stack consuming flat rows of width prod(input_shape).

    ``forward`` reshapes each (B, width) batch to (B, *input_shape) before
    the first layer, so a timestep-major window row lands as (T, F) per
    sample. A trailing (B, 1) output is squeezed to (B,). ``backward``
    needs the last forward to have run with ``train`` set: an eval forward
    keeps no layer state.

    The build runs each layer's eval forward once on a zero-row batch and
    keeps the per-sample shape of each output, so a chain that does not fit
    fails here with the forward's own ``ShapeMismatch``. That forward draws
    no random numbers and changes no weight.
    """

    def __init__(self, name, mode, input_shape, layers):
        self.name = name
        self.mode = mode
        self.input_shape = tuple(int(s) for s in input_shape)
        self.layers = list(layers)
        self._squeezed = False
        self._backward_ready = False
        out = np.zeros((0, *self.input_shape))
        self._shapes = []
        for layer in self.layers:
            out = layer.forward(out)
            self._shapes.append(out.shape[1:])

    @property
    def input_width(self):
        return int(np.prod(self.input_shape))

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_width:
            raise ShapeMismatch(
                f"model {self.name!r} expects (B, {self.input_width}), got {x.shape}"
            )
        out = x.reshape(x.shape[0], *self.input_shape)
        self._backward_ready = False
        for layer in self.layers:
            out = layer.forward(out, train=train, rng=rng)
        self._backward_ready = bool(train)
        if out.ndim == 2 and out.shape[1] == 1:
            self._squeezed = True
            return out[:, 0]
        self._squeezed = False
        return out

    def backward(self, dy):
        if not self._backward_ready:
            raise RuntimeError("backward needs a train-mode forward")
        dy = np.asarray(dy, dtype=np.float64)
        if self._squeezed:
            dy = dy[:, None]
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy.reshape(dy.shape[0], -1)

    def _named(self, store):
        """Each layer's ``store`` dict ("params" or "grads") merged, keyed
        '<index>.<kind>.<role>'."""
        return {
            f"{i:02d}.{layer.kind}.{role}": arr
            for i, layer in enumerate(self.layers)
            for role, arr in getattr(layer, store).items()
        }

    def params(self):
        """Named parameter arrays, keyed '<index>.<kind>.<role>'."""
        return self._named("params")

    def grads(self):
        """Named gradient arrays, keyed as ``params``."""
        return self._named("grads")

    def zero_grads(self):
        for layer in self.layers:
            layer.zero_grads()

    def param_count(self):
        return sum(layer.param_count() for layer in self.layers)

    def output_shapes(self):
        """Per-sample output shape after each layer, as its forward gave it
        at build; reading them runs no forward."""
        return list(self._shapes)

    def layer_summary(self):
        """Rows of (index, kind, output_shape, param_count) for reporting."""
        return [
            (i, layer.kind, shape, layer.param_count())
            for (i, layer), shape in zip(enumerate(self.layers), self.output_shapes())
        ]

def bce_with_grad(p, y):
    """Elementwise binary cross-entropy and d loss / d p, with clamped p."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    loss = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    dp = (p - y) / (p * (1.0 - p))
    return loss, dp


def gradient_check(model, x, y, eps=1e-6):
    """Max relative error between analytic and central-difference gradients.

    The loss is mean BCE over the batch. Every forward, the analytic one
    and each numeric one, runs in train mode with a fresh generator of the
    same seed, so every dropout layer draws the same mask on every call:
    the loss surface is deterministic and dropout's backward is checked
    with the rest. Intended for desk-scale models (< 1e4 parameters).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]

    def forward():
        return model.forward(x, train=True, rng=np.random.default_rng(0))

    def loss_value():
        return float(bce_with_grad(forward(), y)[0].mean())

    model.zero_grads()
    p = forward()
    _, dp = bce_with_grad(p, y)
    model.backward(dp / n)
    analytic = {k: v.copy() for k, v in model.grads().items()}

    worst = 0.0
    for name, arr in model.params().items():
        flat = arr.reshape(-1)
        g = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_value()
            flat[i] = orig - eps
            lm = loss_value()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            denom = max(abs(g[i]), abs(numeric), REL_ERR_FLOOR)
            worst = max(worst, abs(g[i] - numeric) / denom)
    return worst
