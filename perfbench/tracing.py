"""The traced run: per-layer numbers for every layer of the program.

Spans are recorded from the benchmark's own files. ``Tracer.wrap`` swaps a
public function of the program (a module attribute or a ``Model`` method)
for a wrapper that records name, start, end and the enclosing span, for as
long as the tour runs; the program itself carries no timers. The tour
runs one round of every workload under these wrappers, then probes each
network layer by layer, the way the program calls its layers, with the
wrappers removed.

README.md maps each per-layer metric to the end-to-end metric it should
move and the workload it moves it on.
"""

import contextlib
import functools
import json
import math
import os
import re
import statistics
import threading
import time

import numpy as np

import checks
import reference
import workloads as wl

BATCH = 32
EVAL_BATCH = 512
PROBE_REPS = 5
NETS = ("bilstm", "cnn")


class Tracer:
    """Spans kept in memory: name, workload round, start, end, parent."""

    def __init__(self):
        self.spans = []
        self.round = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def wrap(self, owner, attr, name):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "round": self.round,
                    "parent": stack[-1]["id"] if stack else None}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def select(self, name, round_name, parent=None):
        return [
            s for s in self.spans
            if s["name"] == name and s["round"] == round_name
            and (parent is None or (s["parent"] is not None
                                    and self.spans[s["parent"]]["name"] == parent))
        ]

    def total(self, name, round_name, parent=None):
        return sum(s["end"] - s["start"] for s in self.select(name, round_name, parent))

    def mean(self, name, round_name, parent=None):
        spans = self.select(name, round_name, parent)
        return self.total(name, round_name, parent) / max(1, len(spans))

    def self_time(self, name, round_name):
        """Duration of the ``name`` spans minus what their children cover."""
        ids = {s["id"] for s in self.select(name, round_name)}
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)
        return self.total(name, round_name) - children

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _targets(program):
    """(owner, attribute, span name) of every public function traced."""
    pipeline, training, cli = program.pipeline, program.training, program.cli
    model = program.nn.model.Model
    out = [(pipeline, f, f"pipeline.{f}") for f in (
        "parse_raw_csv", "resample_hourly", "filter_monsoon", "make_windows",
        "split_chronological", "fit_normalizer", "apply_normalizer",
        "save_windowed", "load_windowed",
    )]
    out += [(training, f, f"training.{f}") for f in (
        "train_epoch", "evaluate", "adam_step", "bce_with_grad",
    )]
    out += [(model, f, f"model.{f}") for f in ("forward", "backward", "zero_grads")]
    out += [(cli, f, f"checkpoint.{f}") for f in ("save_model", "load_model")]
    out += [(cli, f, f"cli.{f}") for f in ("cmd_prepare", "cmd_train", "cmd_evaluate", "cmd_grid")]
    return out


def _build(models, net):
    if net == "bilstm":
        return models.build_lstm_model("canonical", wl.LOOKBACK, 5, seed=0)
    return models.build_cnn_model("flat", wl.LOOKBACK, 5, seed=0)


def _macs(kind, layer, in_shape, out_shape):
    """Multiply-adds per sample, computed from shapes (None for other kinds)."""
    if kind == "conv1d":
        return out_shape[0] * layer.kernel_size * layer.in_channels * layer.out_channels
    if kind == "dense":
        return layer.in_dim * layer.out_dim
    if kind in ("lstm", "bilstm"):
        H, d = layer.hidden_size, layer.in_dim
        return (2 if kind == "bilstm" else 1) * in_shape[0] * 4 * H * (d + H)
    return None


def per_layer_spec(models):
    """[(name, unit, better)] of every per-layer metric, in output order."""
    spec = [(f"pipeline.{k}_s", "s", "lower") for k in (
        "parse", "resample", "filter", "window", "split_normalize", "save", "load")]
    spec += [(f"pipeline.{k}", "count", "higher") for k in (
        "rows_parsed", "hourly_records", "filled_hours", "segments", "skipped_segments",
        "windows")]
    for net in NETS:
        model = _build(models, net)
        shapes = [model.input_shape] + model.output_shapes()
        for i, layer in enumerate(model.layers):
            key = f"nn.{net}.{i:02d}.{layer.kind}"
            spec += [(f"{key}.fwd_ms", "ms", "lower"), (f"{key}.bwd_ms", "ms", "lower")]
            if layer.kind == "conv1d":
                spec.append((f"{key}.fwd_ms_b512", "ms", "lower"))
            if _macs(layer.kind, layer, shapes[i], shapes[i + 1]) is not None:
                spec.append((f"{key}.macs", "count", "lower"))
        spec += [(f"nn.{net}.fwd_ms_per_row.b32", "ms", "lower"),
                 (f"nn.{net}.fwd_ms_per_row.b512", "ms", "lower")]
        spec += [(f"training.{net}.{k}", "ms", "lower") for k in (
            "batch_ms", "adam_ms", "loss_ms", "gather_ms", "eval_batch_ms")]
        spec += [(f"checkpoint.{net}.save_ms", "ms", "lower"),
                 (f"checkpoint.{net}.load_ms", "ms", "lower"),
                 (f"checkpoint.{net}.bytes", "bytes", "lower")]
    spec += [("cli.grid.cell_s_sum", "s", "lower"), ("cli.grid.cells", "count", "higher"),
             ("cli.grid.overlap", "ratio", "higher"), ("cli.grid.speedup", "ratio", "higher")]
    return spec


def _probe_net(models, net, rows):
    """Per-layer forward/backward ms at batch 32 (median of PROBE_REPS, train
    mode as in training) and forward ms at batch 512 (eval mode, as in
    evaluate), calling each layer the way ``Model`` does."""
    model = _build(models, net)
    rng = np.random.default_rng(0)
    shapes = [model.input_shape] + model.output_shapes()
    fwd = [[] for _ in model.layers]
    bwd = [[] for _ in model.layers]
    for rep in range(PROBE_REPS):
        out = rows[rep * BATCH:(rep + 1) * BATCH].reshape(BATCH, *model.input_shape)
        for i, layer in enumerate(model.layers):
            t0 = time.perf_counter()
            out = layer.forward(out, train=True, rng=rng)
            fwd[i].append(time.perf_counter() - t0)
        dy = np.full(out.shape, 1.0 / BATCH)
        for i in reversed(range(len(model.layers))):
            t0 = time.perf_counter()
            dy = model.layers[i].backward(dy)
            bwd[i].append(time.perf_counter() - t0)
    out = rows[:EVAL_BATCH].reshape(EVAL_BATCH, *model.input_shape)
    fwd512 = []
    for layer in model.layers:
        t0 = time.perf_counter()
        out = layer.forward(out, train=False)
        fwd512.append(time.perf_counter() - t0)

    metrics = {}
    for i, layer in enumerate(model.layers):
        key = f"nn.{net}.{i:02d}.{layer.kind}"
        metrics[f"{key}.fwd_ms"] = 1e3 * statistics.median(fwd[i])
        metrics[f"{key}.bwd_ms"] = 1e3 * statistics.median(bwd[i])
        if layer.kind == "conv1d":
            metrics[f"{key}.fwd_ms_b512"] = 1e3 * fwd512[i]
        macs = _macs(layer.kind, layer, shapes[i], shapes[i + 1])
        if macs is not None:
            metrics[f"{key}.macs"] = macs
    metrics[f"nn.{net}.fwd_ms_per_row.b32"] = 1e3 * sum(
        statistics.median(f) for f in fwd) / BATCH
    metrics[f"nn.{net}.fwd_ms_per_row.b512"] = 1e3 * sum(fwd512) / EVAL_BATCH
    return metrics


def _pipeline_metrics(tracer, program, prep):
    r = prep.name
    m = {
        "pipeline.parse_s": tracer.total("pipeline.parse_raw_csv", r),
        "pipeline.resample_s": tracer.total("pipeline.resample_hourly", r),
        "pipeline.filter_s": tracer.total("pipeline.filter_monsoon", r),
        "pipeline.window_s": tracer.total("pipeline.make_windows", r),
        "pipeline.split_normalize_s": sum(tracer.total(f"pipeline.{f}", r) for f in (
            "split_chronological", "fit_normalizer", "apply_normalizer")),
        "pipeline.save_s": tracer.total("pipeline.save_windowed", r),
    }
    loads = []
    for _ in range(3):
        t0 = time.perf_counter()
        program.pipeline.load_windowed(os.path.join(prep.out, "train.nwc"))
        loads.append(time.perf_counter() - t0)
    m["pipeline.load_s"] = statistics.median(loads)
    counts = checks.parse_report(prep.report)
    for k in ("rows_parsed", "hourly_records", "filled_hours", "segments",
              "skipped_segments", "windows"):
        m[f"pipeline.{k}"] = counts[k]
    return m


def _training_metrics(tracer, w):
    r, net = w.name, w.net
    batches = math.ceil(w.expected.train_rows / BATCH) * wl.EPOCHS
    epochs = tracer.total("training.train_epoch", r)
    return {
        f"training.{net}.batch_ms": 1e3 * epochs / batches,
        f"training.{net}.adam_ms": 1e3 * tracer.mean("training.adam_step", r),
        f"training.{net}.loss_ms": 1e3 * tracer.mean(
            "training.bce_with_grad", r, parent="training.train_epoch"),
        # train_epoch's own time per batch: row gathers and bookkeeping
        f"training.{net}.gather_ms": 1e3 * tracer.self_time("training.train_epoch", r) / batches,
        f"training.{net}.eval_batch_ms": 1e3 * tracer.total("training.evaluate", r)
        / math.ceil(w.expected.test_rows / EVAL_BATCH),
        f"checkpoint.{net}.save_ms": 1e3 * tracer.total("checkpoint.save_model", r),
        f"checkpoint.{net}.load_ms": 1e3 * tracer.total("checkpoint.load_model", r),
        f"checkpoint.{net}.bytes": os.path.getsize(os.path.join(w.run_dir, "model.nwm")),
    }


def _grid_metrics(tracer, grid):
    with open(os.path.join(grid.out, "grid_timings.txt"), encoding="utf-8") as fh:
        cell_s = [float(x) for x in re.findall(r": ([0-9.]+)s ", fh.read())]
    grid_s = tracer.total("cli.cmd_grid", grid.name)
    m = {
        "cli.grid.cell_s_sum": sum(cell_s),
        "cli.grid.cells": len(cell_s),
        "cli.grid.overlap": sum(cell_s) / (grid_s * wl.GRID_THREADS),
    }
    if grid.serial_s is not None:   # the serial grid the check runs, over the threaded one
        m["cli.grid.speedup"] = grid.serial_s / grid_s
    return m


def tour(s, program, seed, spans_path):
    """One traced round of every workload, then the layer probes.

    Returns (per-layer metrics, {workload: traced round metrics}, problems).
    """
    works = wl.all_workloads()
    for w in works.values():
        w.setup(s, seed)
    tracer = Tracer()
    traced = {}
    with contextlib.ExitStack() as stack:
        for owner, attr, name in _targets(program):
            stack.enter_context(tracer.wrap(owner, attr, name))
        for w in works.values():
            tracer.round = w.name
            traced[w.name] = w.round(s)[0]
    tracer.dump(spans_path)
    problems = [f"{w.name}: {p}" for w in works.values() for p in wl.check(w, s)]

    metrics = _pipeline_metrics(tracer, program, works["prepare_station"])
    rows = reference.read_nwc(os.path.join(works["train_bilstm"].data, "train.nwc"))[0]
    for net in NETS:
        metrics.update(_probe_net(program.models, net, rows))
        metrics.update(_training_metrics(tracer, works[f"train_{net}"]))
    metrics.update(_grid_metrics(tracer, works["grid_bilstm"]))
    return metrics, traced, problems
