"""Each correctness check accepts the program's real output and rejects a
deliberately wrong one.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import checks
import gen
import reference
import run
import tracing
import workloads
from nowcast import cli, models
from nowcast.nn import load_model, save_model

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def nowcast(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main([str(a) for a in argv]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def station(tmp_path_factory):
    d = tmp_path_factory.mktemp("station")
    text, expected = gen.station_csv(7, years=1)
    (d / "s.csv").write_text(text)
    report = nowcast("prepare", "--input", d / "s.csv", "--months", "6,7,8,9", "--out", d / "prep")
    return checks.parse_report(report), expected, str(d / "prep/train.nwc"), str(d / "prep/test.nwc")


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """An untrained BiLSTM checkpoint evaluated on a small clean container."""
    d = tmp_path_factory.mktemp("eval")
    text, _ = gen.clean_csv(3, 124, split=0.5)
    (d / "c.csv").write_text(text)
    nowcast("prepare", "--input", d / "c.csv", "--months", "all", "--split", 0.5, "--out", d)
    save_model(models.build_lstm_model("canonical", 24, 5, seed=0), str(d / "m.nwm"))
    out = nowcast("evaluate", "--checkpoint", d / "m.nwm", "--data", d / "test.nwc")
    meta, layers = reference.read_nwm(str(d / "m.nwm"))
    inputs, targets = reference.read_nwc(str(d / "test.nwc"))[:2]
    sample = np.arange(0, len(inputs), 7)
    program = load_model(str(d / "m.nwm")).forward(inputs[sample])
    return out, targets.astype(float), reference.forward(meta, layers, inputs), sample, program


def test_prepare_counts_match_the_generator(station):
    assert checks.check_prepare(*station) == []


def test_prepare_rejects_an_off_by_one_window_count(station):
    counts, expected, train, test = station
    assert any("windows" in p for p in checks.check_prepare(
        dict(counts, windows=counts["windows"] + 1), expected, train, test))
    assert any("windows" in p for p in checks.check_prepare(
        counts, replace(expected, windows=expected.windows - 1), train, test))


def test_prepare_rejects_wrong_container_size_and_range(station, tmp_path):
    counts, expected, train, test = station
    assert checks.check_prepare(counts, replace(expected, train_bytes=expected.train_bytes + 8),
                                train, test)
    blob = bytearray(open(train, "rb").read())
    blob[20:28] = np.float64(1.25).tobytes()       # first train value above 1
    bad = tmp_path / "train.nwc"
    bad.write_bytes(bytes(blob))
    assert any("spans" in p for p in checks.check_prepare(counts, expected, str(bad), test))


def test_reference_forward_matches_the_program_on_both_nets(tmp_path):
    rows = np.random.default_rng(0).random((6, 120))
    for model in (models.build_lstm_model("canonical", 24, 5, seed=1),
                  models.build_cnn_model("flat", 24, 5, seed=1)):
        path = str(tmp_path / f"{model.name}.nwm")
        save_model(model, path)
        meta, layers = reference.read_nwm(path)
        assert np.max(np.abs(reference.forward(meta, layers, rows) - model.forward(rows))) < 1e-12


def test_evaluation_agrees_with_the_reference(evaluated):
    assert checks.check_evaluation(*evaluated) == []


def test_evaluation_rejects_a_perturbed_probability(evaluated):
    out, targets, ref, sample, program = evaluated
    bad = program.copy()
    bad[1] += 1e-6
    assert any("probabilities" in p for p in checks.check_evaluation(
        out, targets, ref, sample, bad))


def test_evaluation_rejects_wrong_confusion_counts(evaluated):
    out, targets, ref, sample, program = evaluated
    tp = int(checks.parse_eval(out)[2][0])
    bad = out.replace(f"(tp {tp} ", f"(tp {tp + 1} ")
    assert any("confusion" in p for p in checks.check_evaluation(
        bad, targets, ref, sample, program))


def test_skill_check_compares_with_the_majority_rate():
    targets = np.array([1.0, 1.0, 1.0, 0.0])
    line = "eval: accuracy {}  precision 0  recall 0  f1 0  loss 0.5  (tp 0 fp 0 tn 0 fn 0)"
    assert checks.check_skill(line.format("0.8000"), targets) == []
    assert checks.check_skill(line.format("0.7500"), targets)


def test_training_checks():
    layers = [("dense", {}, {"w": np.zeros((3, 2)), "b": np.zeros(2)})]
    log = "epoch,train_loss,train_acc,val_loss,val_acc\n1,0.7,0.5,nan,nan\n2,0.6,0.6,nan,nan\n"
    assert checks.check_training(layers, 8, log, 2) == []
    assert checks.check_training(layers, 9, log, 2)                       # parameter count
    assert checks.check_training(layers, 8, log, 3)                       # epoch count
    assert checks.check_training(layers, 8, log.replace("0.6,0.6", "0.8,0.6"), 2)  # rises
    assert checks.check_training(layers, 8, log.replace("0.6,0.6", "nan,0.6"), 2)  # not finite


GRID = """# nowcast grid seed=0 version=0.1.0
model,lookback,horizon,accuracy,precision,recall,f1,epochs,error
bilstm,24,1,0.8,0.8,0.8,0.8,2,
bilstm,24,2,0.7,0.7,0.7,0.7,2,
bilstm,12,1,0.8,0.8,0.8,0.8,2,
bilstm,12,2,0.7,0.7,0.7,0.7,2,
"""
CELLS = ((24, 1), (24, 2), (12, 1), (12, 2))


def test_grid_check_accepts_a_complete_grid():
    assert checks.check_grid(GRID, GRID, "bilstm", CELLS, 2) == []


def test_grid_check_rejects_a_dropped_row():
    dropped = "".join(GRID.splitlines(keepends=True)[:-1])
    assert any("cells" in p for p in checks.check_grid(dropped, dropped, "bilstm", CELLS, 2))


def test_grid_check_rejects_errors_epochs_and_thread_dependence():
    failed = GRID.replace("bilstm,12,2,0.7,0.7,0.7,0.7,2,",
                          "bilstm,12,2,nan,nan,nan,nan,0,NonFiniteLoss: x")
    assert checks.check_grid(failed, failed, "bilstm", CELLS, 2)
    assert checks.check_grid(GRID, GRID, "bilstm", CELLS, 3)
    assert checks.check_grid(GRID, GRID.replace("0.8", "0.81", 1), "bilstm", CELLS, 2)


def test_benchmark_json_names_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_spec(models)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == \
        list(workloads.all_workloads())


def test_checkpoint_reader_rejects_truncation(tmp_path):
    path = tmp_path / "m.nwm"
    save_model(models.build_cnn_model("flat", 24, 5), str(path))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(reference.FormatError):
        reference.read_nwm(str(path))
