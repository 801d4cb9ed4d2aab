"""Binary model checkpoints.

Layout, all little-endian:

    magic ``NWM1``
    uint32 layer count
    length-prefixed JSON meta {name, mode, input_shape}
    per layer:
        length-prefixed kind tag (utf-8)
        length-prefixed hyperparameter JSON (utf-8)
        uint32 array count
        per array: length-prefixed role tag, uint8 ndim, uint32 dims...,
                   float64 values

Strings and JSON blobs are prefixed with a uint32 byte length. The loader
rejects bad magic, truncated payloads, arrays whose byte counts do not
match their declared shapes, and layers that do not chain from the stored
input shape.
"""

import json
import struct

import numpy as np

from .._io import atomic_write_bytes
from ..errors import CorruptCheckpoint, ShapeMismatch
from .layers import layer_from_hyperparams
from .model import Model

MAGIC = b"NWM1"


def _str_bytes(s):
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _read_exact(fh, n):
    raw = fh.read(n)
    if len(raw) != n:
        raise CorruptCheckpoint(f"truncated: wanted {n} bytes, got {len(raw)}")
    return raw


def _read_str(fh):
    (n,) = struct.unpack("<I", _read_exact(fh, 4))
    return _read_exact(fh, n).decode("utf-8")


def save_model(model, path):
    """Write a model checkpoint atomically (temp file then rename)."""
    meta = {"name": model.name, "mode": model.mode, "input_shape": list(model.input_shape)}
    parts = [
        MAGIC,
        struct.pack("<I", len(model.layers)),
        _str_bytes(json.dumps(meta, sort_keys=True)),
    ]
    for layer in model.layers:
        parts += [
            _str_bytes(layer.kind),
            _str_bytes(json.dumps(layer.hyperparams(), sort_keys=True)),
            struct.pack("<I", len(layer.params)),
        ]
        for role, arr in layer.params.items():
            parts += [
                _str_bytes(role),
                struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
                np.ascontiguousarray(arr, dtype="<f8").tobytes(),
            ]
    atomic_write_bytes(path, b"".join(parts))


def load_model(path):
    """Rebuild a Model from a checkpoint, validating magic and shapes."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise CorruptCheckpoint("bad magic")
        (n_layers,) = struct.unpack("<I", _read_exact(fh, 4))
        try:
            meta = json.loads(_read_str(fh))
        except json.JSONDecodeError as exc:
            raise CorruptCheckpoint(f"bad meta block: {exc}") from None
        layers = []
        for _ in range(n_layers):
            kind = _read_str(fh)
            try:
                hp = json.loads(_read_str(fh))
                layer = layer_from_hyperparams(kind, hp)
            except (json.JSONDecodeError, ValueError, TypeError) as exc:
                raise CorruptCheckpoint(f"bad layer block: {exc}") from None
            (n_arrays,) = struct.unpack("<I", _read_exact(fh, 4))
            arrays = {}
            for _ in range(n_arrays):
                role = _read_str(fh)
                (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
                shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
                count = int(np.prod(shape)) if ndim else 1
                raw = _read_exact(fh, 8 * count)
                arrays[role] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if set(arrays) != set(layer.params):
                raise CorruptCheckpoint(
                    f"layer {kind}: roles {sorted(arrays)} != expected {sorted(layer.params)}"
                )
            for role, arr in arrays.items():
                if layer.params[role].shape != arr.shape:
                    raise CorruptCheckpoint(
                        f"layer {kind} role {role}: shape {arr.shape} != "
                        f"expected {layer.params[role].shape}"
                    )
                layer.params[role][...] = arr
            layers.append(layer)
        if fh.read(1):
            raise CorruptCheckpoint("trailing bytes after last layer")
    try:
        return Model(meta["name"], meta["mode"], meta["input_shape"], layers)
    except (KeyError, TypeError, ValueError, ShapeMismatch) as exc:
        raise CorruptCheckpoint(f"bad meta fields: {exc}") from None
