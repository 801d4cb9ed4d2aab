"""Readers for the program's binary files and a plain-numpy reference
forward pass. Nothing here imports ``nowcast``: the layouts are read from
the format description in the package README, and the layer equations are
written out directly (scalar-gate LSTM cell, direct convolution as a sum
over kernel taps, pools, dense), so a fault in the program's layers cannot
hide in shared code.
"""

import json
import struct

import numpy as np


class FormatError(ValueError):
    pass


def read_nwc(path):
    """(inputs, targets, lookback, features, horizon, minmax pairs) of a ``.nwc``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"NWC1" or len(blob) < 20:
        raise FormatError(f"{path}: not a NWC1 container")
    n, lookback, features, horizon = struct.unpack("<IIII", blob[4:20])
    width = lookback * features
    if len(blob) != 20 + 8 * n * width + n + 16 * features:
        raise FormatError(f"{path}: {len(blob)} bytes do not match its header")
    off = 20
    inputs = np.frombuffer(blob, "<f8", n * width, off).reshape(n, width)
    off += 8 * n * width
    targets = np.frombuffer(blob, np.uint8, n, off)
    off += n
    pairs = np.frombuffer(blob, "<f8", 2 * features, off).reshape(features, 2)
    return inputs, targets, lookback, features, horizon, pairs


def read_nwm(path):
    """(meta dict, [(kind, hyperparams, {role: array})]) of a ``.nwm``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(blob):
            raise FormatError(f"{path}: truncated")
        pos += n
        return blob[pos - n:pos]

    def text():
        (n,) = struct.unpack("<I", take(4))
        return take(n).decode("utf-8")

    if take(4) != b"NWM1":
        raise FormatError(f"{path}: not a NWM1 checkpoint")
    (n_layers,) = struct.unpack("<I", take(4))
    meta = json.loads(text())
    layers = []
    for _ in range(n_layers):
        kind = text()
        hp = json.loads(text())
        (n_arrays,) = struct.unpack("<I", take(4))
        arrays = {}
        for _ in range(n_arrays):
            role = text()
            (ndim,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            count = int(np.prod(shape)) if ndim else 1
            arrays[role] = np.frombuffer(take(8 * count), "<f8").reshape(shape)
        layers.append((kind, hp, arrays))
    if pos != len(blob):
        raise FormatError(f"{path}: trailing bytes")
    return meta, layers


def param_count(layers):
    return sum(a.size for _, _, arrays in layers for a in arrays.values())


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm(x, wx, wh, b):
    """Hidden trace (B, T, H) of one direction; gate blocks (i, f, g, o)."""
    B, T, _ = x.shape
    H = wh.shape[0]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    out = np.empty((B, T, H))
    for t in range(T):
        z = x[:, t] @ wx + h @ wh + b
        i = _sigmoid(z[:, :H])
        f = _sigmoid(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = _sigmoid(z[:, 3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, t] = h
    return out


def conv1d(x, kernel, bias, padding):
    """Direct 1D convolution over (B, L, C_in): y[t] = b + sum_j x[t+j] @ K[j]."""
    k = kernel.shape[0]
    if padding == "same":
        left = (k - 1) // 2
        x = np.pad(x, ((0, 0), (left, k - 1 - left), (0, 0)))
    Lo = x.shape[1] - k + 1
    y = np.broadcast_to(bias, (x.shape[0], Lo, kernel.shape[2])).copy()
    for j in range(k):
        y += x[:, j:j + Lo] @ kernel[j]
    return y


def forward(meta, layers, rows):
    """Eval-mode probabilities (B,) for flat input rows (B, width)."""
    out = np.asarray(rows, dtype=np.float64).reshape(len(rows), *meta["input_shape"])
    for kind, hp, p in layers:
        if kind == "bilstm":
            fwd = lstm(out, p["fwd_wx"], p["fwd_wh"], p["fwd_b"])
            bwd = lstm(out[:, ::-1], p["bwd_wx"], p["bwd_wh"], p["bwd_b"])[:, ::-1]
            out = np.concatenate([fwd, bwd], axis=2)
        elif kind == "lstm":
            seq = lstm(out, p["wx"], p["wh"], p["b"])
            out = seq if hp["return_sequences"] else seq[:, -1]
        elif kind == "dense":
            out = out @ p["w"] + p["b"]
        elif kind == "relu":
            out = np.maximum(out, 0.0)
        elif kind == "sigmoid":
            out = _sigmoid(out)
        elif kind == "conv1d":
            out = conv1d(out, p["kernel"], p["bias"], hp["padding"])
        elif kind == "maxpool1d":
            s = hp["pool_size"]
            n = out.shape[1] // s
            out = out[:, :n * s].reshape(out.shape[0], n, s, out.shape[2]).max(axis=2)
        elif kind == "gap1d":
            out = out.mean(axis=1)
        elif kind == "dropout":
            pass
        else:
            raise FormatError(f"reference has no layer kind {kind!r}")
    return out.reshape(len(rows))


def confusion(probs, targets, threshold=0.5):
    """(tp, fp, tn, fn); p == threshold counts as positive."""
    cls = probs >= threshold
    pos = np.asarray(targets) == 1
    return (int((cls & pos).sum()), int((cls & ~pos).sum()),
            int((~cls & ~pos).sum()), int((~cls & pos).sum()))
