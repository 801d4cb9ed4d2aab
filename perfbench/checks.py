"""Correctness checks on the program's outputs.

Each check returns a list of problems (empty when the output is right), so
a run can report every fault it saw instead of stopping at the first.
"""

import math
import re

import numpy as np

import reference

CLAMP_LO, CLAMP_HI = -0.5, 1.5   # normalized test values are clamped here
PROB_TOL = 1e-9                  # loose enough for a matmul-lowered conv

_REPORT = {
    "rows_parsed": r"rows parsed: (\d+)",
    "hourly_records": r"hourly records: (\d+)",
    "filled_hours": r"forward-filled: (\d+)",
    "segments": r"segments: (\d+)",
    "skipped_segments": r"skipped: (\d+)",
    "windows": r"rows: total (\d+)",
    "train_rows": r"train (\d+), test",
    "test_rows": r"test (\d+)\n",
}
_EVAL = re.compile(
    r"eval: accuracy (\S+)\s+precision \S+\s+recall \S+\s+f1 \S+\s+loss (\S+)\s+"
    r"\(tp (\d+) fp (\d+) tn (\d+) fn (\d+)\)"
)


def parse_report(text):
    """Counts from the report ``nowcast prepare`` prints; None when absent."""
    out = {}
    for key, pattern in _REPORT.items():
        m = re.search(pattern, text)
        out[key] = int(m.group(1)) if m else None
    return out


def parse_eval(text):
    """(accuracy, loss, (tp, fp, tn, fn)) from ``nowcast evaluate`` output."""
    m = _EVAL.search(text)
    if m is None:
        return None
    return float(m.group(1)), float(m.group(2)), tuple(int(g) for g in m.groups()[2:])


def check_prepare(counts, expected, train_path, test_path):
    """Report counts, container sizes, targets and normalized ranges."""
    problems = [
        f"{key}: program reports {counts.get(key)}, generator expects {getattr(expected, key)}"
        for key in _REPORT
        if counts.get(key) != getattr(expected, key)
    ]
    try:
        train = reference.read_nwc(train_path)
        test = reference.read_nwc(test_path)
    except (OSError, reference.FormatError) as exc:
        return problems + [f"containers unreadable: {exc}"]
    for name, ds, n, size in (("train", train, expected.train_rows, expected.train_bytes),
                              ("test", test, expected.test_rows, expected.test_bytes)):
        nbytes = 20 + ds[0].nbytes + ds[1].nbytes + ds[5].nbytes
        if len(ds[0]) != n or nbytes != size:
            problems.append(f"{name} container: {len(ds[0])} rows / {nbytes} bytes, "
                            f"expected {n} / {size}")
    positives = int(train[1].sum()) + int(test[1].sum())
    if positives != expected.positives:
        problems.append(f"positive targets {positives}, expected {expected.positives}")
    features = train[3]
    per_feature = train[0].reshape(len(train[0]), -1, features)
    lo, hi = per_feature.min(axis=(0, 1)), per_feature.max(axis=(0, 1))
    for f in range(features):
        if not ((lo[f] == 0.0 and hi[f] == 1.0) or (lo[f] == 0.0 and hi[f] == 0.0)):
            problems.append(f"train feature {f} spans [{lo[f]}, {hi[f]}], not [0, 1]")
    if len(test[0]) and not (np.all(test[0] >= CLAMP_LO) and np.all(test[0] <= CLAMP_HI)):
        problems.append(f"test values leave [{CLAMP_LO}, {CLAMP_HI}]")
    return problems


def check_training(layers, expected_params, log_text, epochs):
    """Parameter count, one finite train loss per epoch, loss falls."""
    problems = []
    count = reference.param_count(layers)
    if count != expected_params:
        problems.append(f"checkpoint holds {count} parameters, expected {expected_params}")
    rows = [line.split(",") for line in log_text.strip().splitlines()[1:]]
    losses = [float(r[1]) for r in rows]
    if len(losses) != epochs:
        problems.append(f"train log has {len(losses)} epochs, expected {epochs}")
    elif not all(math.isfinite(v) for v in losses):
        problems.append(f"non-finite train loss in {losses}")
    elif not losses[-1] < losses[0]:
        problems.append(f"train loss did not fall: {losses[0]} -> {losses[-1]}")
    return problems


def check_evaluation(eval_text, targets, ref_probs, sample_idx, program_probs):
    """The program's evaluate output against the reference forward pass.

    ``ref_probs`` covers every held-out row; ``program_probs`` are the
    program's probabilities for the rows ``sample_idx``.
    """
    parsed = parse_eval(eval_text)
    if parsed is None:
        return [f"no metrics line in evaluate output {eval_text!r}"]
    accuracy, loss, counts = parsed
    problems = []
    worst = float(np.max(np.abs(ref_probs[sample_idx] - program_probs)))
    if not worst <= PROB_TOL:
        problems.append(f"program probabilities differ from the reference by {worst:.3g}")
    ref_counts = reference.confusion(ref_probs, targets)
    near = int(np.sum(np.abs(ref_probs - 0.5) <= PROB_TOL))
    if sum(abs(a - b) for a, b in zip(counts, ref_counts)) > 2 * near:
        problems.append(f"confusion (tp, fp, tn, fn) {counts}, reference {ref_counts}")
    p = np.clip(ref_probs, 1e-12, 1 - 1e-12)
    ref_loss = float(np.mean(-(targets * np.log(p) + (1 - targets) * np.log1p(-p))))
    if not abs(loss - ref_loss) <= 1e-5 * max(1.0, ref_loss):
        problems.append(f"evaluate loss {loss}, reference {ref_loss:.6g}")
    if not abs(accuracy - (counts[0] + counts[2]) / len(targets)) <= 1e-4:
        problems.append(f"accuracy {accuracy} disagrees with its confusion counts {counts}")
    return problems


def check_skill(eval_text, targets):
    """Held-out accuracy beats always answering the majority class."""
    parsed = parse_eval(eval_text)
    majority = max(targets.mean(), 1 - targets.mean())
    if parsed is None or not parsed[0] > majority:
        return [f"evaluate output {eval_text!r} does not beat the majority rate {majority:.4f}"]
    return []


def grid_rows(csv_text):
    """Data rows of grid.csv as dicts keyed by its header."""
    lines = [line for line in csv_text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_grid(csv_text, serial_text, model, cells, epochs):
    """One error-free row per (lookback, horizon) cell, the requested epoch
    count, and byte identity with a serial run of the same grid."""
    problems = []
    rows = grid_rows(csv_text)
    seen = sorted((r["model"], int(r["lookback"]), int(r["horizon"])) for r in rows)
    want = sorted((model, L, h) for L, h in cells)
    if seen != want:
        problems.append(f"grid cells {seen}, expected {want}")
    for r in rows:
        if r["error"] or int(r["epochs"]) != epochs or not 0.0 <= float(r["accuracy"]) <= 1.0:
            problems.append(f"bad grid row {r}")
    if csv_text != serial_text:
        problems.append("grid.csv differs from the serial run")
    return problems
