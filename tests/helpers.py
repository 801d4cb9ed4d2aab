"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (scalar
loops, pure-Python accumulation) so the fast production paths are checked
against code that shares none of their structure. The exception is
``lstm_scan_reference``, the plain batched recurrent scan, kept as a bit
oracle for the in-place one.
"""

import json
import math
import struct
from dataclasses import replace

import numpy as np

from nowcast.nn import LSTM, Model
from nowcast.pipeline import HOUR, MAX_FILL_HOURS


def scalar_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def conv1d_reference(x, kernel, bias, padding="valid"):
    """Brute-force triple-loop 1D convolution for one sample.

    x: (L, C_in), kernel: (k, C_in, C_out), bias: (C_out,).
    Accumulates bias first, then taps in kernel-position-major /
    input-channel-minor order, matching the documented production order.
    """
    L, ci = x.shape
    k, _, co = kernel.shape
    if padding == "same":
        left = (k - 1) // 2
        xp = np.zeros((L + k - 1, ci))
        xp[left:left + L] = x
        lo = L
    else:
        xp = x
        lo = L - k + 1
    y = np.empty((lo, co))
    for t in range(lo):
        for oc in range(co):
            acc = bias[oc]
            for j in range(k):
                for ic in range(ci):
                    acc += xp[t + j, ic] * kernel[j, ic, oc]
            y[t, oc] = acc
    return y


def signed_zero_input(rng, shape):
    """Standard normal values with about a tenth of the entries set to an
    exact 0.0 and another tenth to -0.0."""
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


def lstm_reference(x, wx, wh, b, h0=None, c0=None):
    """Scalar step-by-step LSTM for one sample: x (T, d) -> hidden (T, H).

    Gate blocks (i, f, g, o) in the fused axis, one shared bias vector.
    """
    T, d = x.shape
    H = wh.shape[0]
    h = list(h0) if h0 is not None else [0.0] * H
    c = list(c0) if c0 is not None else [0.0] * H
    out = np.empty((T, H))
    for t in range(T):
        z = [0.0] * (4 * H)
        for kk in range(4 * H):
            acc = b[kk]
            for j in range(d):
                acc += x[t, j] * wx[j, kk]
            for j in range(H):
                acc += h[j] * wh[j, kk]
            z[kk] = acc
        gi = [scalar_sigmoid(z[kk]) for kk in range(H)]
        gf = [scalar_sigmoid(z[H + kk]) for kk in range(H)]
        gg = [math.tanh(z[2 * H + kk]) for kk in range(H)]
        go = [scalar_sigmoid(z[3 * H + kk]) for kk in range(H)]
        c = [gf[kk] * c[kk] + gi[kk] * gg[kk] for kk in range(H)]
        h = [go[kk] * math.tanh(c[kk]) for kk in range(H)]
        out[t] = h
    return out


def where_sigmoid(x):
    """The logistic function as two per-element selects."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0, e) / (1.0 + e)


def lstm_scan_reference(layer, x, train=False, initial=None):
    """An ``LSTM``/``BiLSTM`` forward as the plain batched scan: per step a
    fresh ``(x·wx + h·wh) + b``, separate activations of the (i, f), g and
    o blocks, and new c, tanh(c) and h arrays. Unlike the scalar
    ``lstm_reference`` it shares the layer's rounding, so the layer must
    match it bit for bit. Returns the output and, for ``train``, the
    (gates, cs, tc, hs) history that ``backward`` reads."""
    D, H = len(layer.prefixes), layer.hidden_size
    B, T, _ = x.shape
    xs = np.stack([x[:, ::-1] if k else x for k in range(D)])
    w = layer.params
    wx, wh, b = (np.stack([w[p + role] for p in layer.prefixes]) for role in ("wx", "wh", "b"))
    b = b[:, None]
    if initial is None:
        h, c = np.zeros((D, B, H)), np.zeros((D, B, H))
    else:
        h, c = (np.broadcast_to(v, (D, B, H)).astype(float) for v in initial)
    gates, cs, tc, hs = [], [], [], []
    for t in range(T):
        z = xs[:, :, t] @ wx + h @ wh + b
        a = np.empty_like(z)
        a[..., :2 * H] = where_sigmoid(z[..., :2 * H])
        a[..., 2 * H:3 * H] = np.tanh(z[..., 2 * H:3 * H])
        a[..., 3 * H:] = where_sigmoid(z[..., 3 * H:])
        c = a[..., H:2 * H] * c + a[..., :H] * a[..., 2 * H:3 * H]
        tc.append(np.tanh(c))
        h = a[..., 3 * H:] * tc[-1]
        gates.append(a)
        cs.append(c)
        hs.append(h)
    trace = np.stack(hs)  # (T, D, B, H)
    if layer.return_sequences:
        steps = trace.transpose(1, 2, 0, 3)
        y = np.concatenate([steps[k][:, ::-1] if k else steps[k] for k in range(D)], axis=2)
    else:
        y = h.transpose(1, 0, 2).reshape(B, D * H)
    history = tuple(np.stack(v) for v in (gates, cs, tc, hs)) if train else None
    return y, history


def adam_reference(theta, grads_sequence, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar adaptive-moment trace: apply a sequence of gradients to one
    parameter and return the value after each step."""
    m = v = 0.0
    values = []
    for t, g in enumerate(grads_sequence, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        values.append(theta)
    return values


def save_model_reference(model, path):
    """The ``.nwm`` writer as it was before it built its bytes in memory:
    one field at a time into an open file."""

    def write_str(fh, text):
        raw = text.encode("utf-8")
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)

    with open(path, "wb") as fh:
        fh.write(b"NWM1")
        fh.write(struct.pack("<I", len(model.layers)))
        meta = {
            "name": model.name,
            "mode": model.mode,
            "input_shape": list(model.input_shape),
        }
        write_str(fh, json.dumps(meta, sort_keys=True))
        for layer in model.layers:
            write_str(fh, layer.kind)
            write_str(fh, json.dumps(layer.hyperparams(), sort_keys=True))
            fh.write(struct.pack("<I", len(layer.params)))
            for role, arr in layer.params.items():
                write_str(fh, role)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def bilstm_halves(layer):
    """Two standalone ``LSTM`` layers holding copies of a ``BiLSTM``'s
    ``fwd_*`` and ``bwd_*`` weights."""
    halves = []
    for prefix in ("fwd_", "bwd_"):
        half = LSTM(layer.in_dim, layer.hidden_size)
        for role in ("wx", "wh", "b"):
            half.params[role][...] = layer.params[prefix + role]
        halves.append(half)
    return halves


def make_model(input_shape, layers, name="test", mode="canonical"):
    return Model(name, mode, input_shape, layers)


def random_batch(rng, n, width):
    x = rng.standard_normal((n, width))
    y = rng.integers(0, 2, n).astype(float)
    return x, y


def count_windows_brute_force(segment_length, lookback, horizon):
    """Enumerate every valid anchor index for one segment."""
    count = 0
    for t in range(segment_length):
        if t - lookback + 1 >= 0 and t + horizon <= segment_length - 1:
            count += 1
    return count


def sort_dedupe_reference(records):
    """Parsed records in time order, first occurrence of each timestamp kept."""
    seen = set()
    unique = []
    for obs in sorted(records, key=lambda o: o.timestamp):  # stable
        if obs.timestamp not in seen:
            seen.add(obs.timestamp)
            unique.append(obs)
    return unique


def resample_reference(segments):
    """One Observation per clock hour, per segment: earliest record's
    continuous features, max rain over the hour; gaps of up to
    MAX_FILL_HOURS hours forward-filled (rain 0, ``filled`` set), longer
    gaps split the segment. Takes and returns lists of Observation lists."""
    out_segments = []
    for seg in segments:
        if not seg:
            continue
        hourly = []
        current_hour = None
        rains = []
        first = None
        for obs in seg:
            hour = obs.timestamp.replace(minute=0, second=0, microsecond=0)
            if hour != current_hour:
                if current_hour is not None:
                    hourly.append(replace(first, timestamp=current_hour, rain=max(rains)))
                current_hour = hour
                first = obs
                rains = [obs.rain]
            else:
                rains.append(obs.rain)
        hourly.append(replace(first, timestamp=current_hour, rain=max(rains)))

        segment = [hourly[0]]
        for obs in hourly[1:]:
            gap = int((obs.timestamp - segment[-1].timestamp) / HOUR) - 1
            if gap == 0:
                segment.append(obs)
            elif 1 <= gap <= MAX_FILL_HOURS:
                prev = segment[-1]
                for step in range(1, gap + 1):
                    segment.append(
                        replace(prev, timestamp=prev.timestamp + step * HOUR, rain=0, filled=True)
                    )
                segment.append(obs)
            else:
                out_segments.append(segment)
                segment = [obs]
        out_segments.append(segment)
    return out_segments


def filter_months_reference(segments, months):
    """Records whose month is in ``months``; each retained contiguous run
    becomes its own segment."""
    out_segments = []
    for seg in segments:
        run = []
        for obs in seg:
            if obs.timestamp.month in months:
                run.append(obs)
            elif run:
                out_segments.append(run)
                run = []
        if run:
            out_segments.append(run)
    return out_segments
