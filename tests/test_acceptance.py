"""Acceptance gates, one test per criterion, each printing a PASS/FAIL line.

Run with output visible:  pytest tests/test_acceptance.py -v -s

The long-running gates (7, 8, 9, 10) train real models on generated
series; the whole module is sized to finish on a two-core desk machine in
well under half an hour.
"""

import os
import time

import numpy as np
import pytest

from helpers import (
    bilstm_halves,
    conv1d_reference,
    count_windows_brute_force,
    lstm_reference,
    make_model,
    random_batch,
)

from nowcast import models, pipeline, synthetic, training
from nowcast.cli import main
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
    gradient_check,
)


def gate(num, description, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_lstm_parameter_parity():
    t0 = time.perf_counter()
    model = models.build_lstm_model("parity")
    report = models.verify_parity(model)
    elapsed = time.perf_counter() - t0
    per_layer = [r.computed_params for r in report.rows]
    ok = (
        report.computed_total == 283647
        and report.expected_total == 283647
        and per_layer == [68400, 9408, 2816, 67854, 134912, 257]
        and report.unexpected() == []
        and elapsed < 1.0
    )
    gate(1, "recurrent net parameter parity (283,647 exact)", ok,
         f"total={report.computed_total} layers={per_layer} {elapsed:.2f}s")


def test_criterion_2_cnn_parameter_parity():
    t0 = time.perf_counter()
    model = models.build_cnn_model("parity")
    report = models.verify_parity(model)
    elapsed = time.perf_counter() - t0
    conv_rows = [r for r in report.rows if r.label.startswith("conv")]
    conv_counts = [r.computed_params for r in conv_rows]
    by_label = {r.label: r for r in report.rows}
    notes_ok = (
        not by_label["conv1d_3"].shape_match and bool(by_label["conv1d_3"].note)
        and not by_label["conv1d_5"].shape_match and bool(by_label["conv1d_5"].note)
        and not by_label["dense_1"].params_match and "bias" in by_label["dense_1"].note
    )
    ok = (
        conv_counts == [288, 5152, 6208, 12352, 12352, 16512, 32896, 65792]
        and all(r.params_match for r in conv_rows)
        and report.expected_total == 151808
        and report.computed_total == 151809
        and notes_ok
        and report.unexpected() == []
        and elapsed < 1.0
    )
    gate(2, "conv net parameter parity (151,808 rows / 151,809 with bias)", ok,
         f"convs={conv_counts} totals={report.expected_total}/{report.computed_total} {elapsed:.2f}s")


def _gradient_instances(n_instances):
    """Randomized small stacks covering every layer family, BCE head on all."""
    for i in range(n_instances):
        rng = np.random.default_rng(1000 + i)
        family = i % 6
        if family == 0:
            d = int(rng.integers(2, 7))
            h = int(rng.integers(2, 7))
            model = make_model(
                (d,),
                [Dense(d, h, rng=rng), ReLU(), Dense(h, 1, rng=rng), Sigmoid()],
            )
        elif family == 1:
            L = int(rng.integers(6, 14))
            ci = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            model = make_model(
                (L, ci),
                [Conv1D(ci, 3, k, rng=rng), GlobalAvgPool1D(), Dense(3, 1, rng=rng), Sigmoid()],
            )
        elif family == 2:
            L = int(rng.integers(8, 14))
            ci = int(rng.integers(1, 4))
            model = make_model(
                (L, ci),
                [Conv1D(ci, 3, int(rng.integers(2, 5)), padding="same", rng=rng),
                 MaxPool1D(2), GlobalAvgPool1D(), Dense(3, 1, rng=rng), Sigmoid()],
            )
        elif family == 3:
            T = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            H = int(rng.integers(2, 5))
            model = make_model(
                (T, d),
                [LSTM(d, H, return_sequences=False, rng=rng), Dense(H, 1, rng=rng), Sigmoid()],
            )
        elif family == 4:
            T = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            H = int(rng.integers(1, 4))
            model = make_model(
                (T, d),
                [BiLSTM(d, H, rng=rng),
                 LSTM(2 * H, 3, return_sequences=False, rng=rng),
                 Dense(3, 1, rng=rng), Sigmoid()],
            )
        else:
            d = int(rng.integers(3, 8))
            model = make_model(
                (d,),
                [Dense(d, 5, rng=rng), Dropout(0.4), ReLU(), Dense(5, 1, rng=rng), Sigmoid()],
            )
        yield i, model


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for i, model in _gradient_instances(102):
        rng = np.random.default_rng(5000 + i)
        x, y = random_batch(rng, 3, model.input_width)
        worst = max(worst, gradient_check(model, x, y, eps=1e-6))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and count >= 100 and elapsed < 60.0
    gate(3, "finite-difference gradients across layer families", ok,
         f"{count} instances, max rel err {worst:.3g}, {elapsed:.1f}s")


def test_criterion_4_forward_oracle_equivalence():
    rng = np.random.default_rng(7)
    conv_exact = lstm_max = 0.0
    conv_ok = bilstm_ok = True
    for i in range(100):
        L = int(rng.integers(5, 33))
        ci = int(rng.integers(1, 5))
        co = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        padding = "same" if i % 2 else "valid"
        layer = Conv1D(ci, co, k, padding=padding, rng=rng)
        x = rng.standard_normal((1, L, ci))
        got = layer.forward(x)[0]
        want = conv1d_reference(x[0], layer.params["kernel"], layer.params["bias"], padding)
        conv_ok &= np.array_equal(got, want)

    for _ in range(100):
        T = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        H = int(rng.integers(1, 5))
        layer = LSTM(d, H, rng=rng)
        x = rng.standard_normal((1, T, d))
        got = layer.forward(x)[0]
        want = lstm_reference(x[0], layer.params["wx"], layer.params["wh"], layer.params["b"])
        lstm_max = max(lstm_max, float(np.abs(got - want).max()))

    for _ in range(100):
        T = int(rng.integers(1, 8))
        d = int(rng.integers(1, 5))
        H = int(rng.integers(1, 5))
        layer = BiLSTM(d, H, rng=rng)
        x = rng.standard_normal((2, T, d))
        out = layer.forward(x)
        half_f, half_b = bilstm_halves(layer)
        bilstm_ok &= np.array_equal(out[:, :, :H], half_f.forward(x))
        bilstm_ok &= np.array_equal(out[:, :, H:], half_b.forward(x[:, ::-1])[:, ::-1])

    ok = conv_ok and lstm_max <= 1e-12 and bilstm_ok
    gate(4, "forward passes match independent oracles", ok,
         f"conv exact={conv_ok}, lstm max diff={lstm_max:.2g}, bilstm halves exact={bilstm_ok}")


def test_criterion_5_window_laws():
    rng = np.random.default_rng(11)
    series24 = synthetic.make_series(200, seed=1)
    ds24 = pipeline.make_windows(series24, pipeline.WindowConfig(lookback=24, horizon=1))
    width_ok = ds24.width == 120

    counts_ok = True
    import warnings as _warnings
    from datetime import datetime, timedelta

    for _ in range(50):
        lengths = [int(rng.integers(1, 80)) for _ in range(int(rng.integers(1, 6)))]
        L, h = int(rng.integers(1, 25)), int(rng.integers(1, 4))
        segments = []
        t = datetime(2016, 6, 1)
        for M in lengths:
            seg = synthetic.make_series(M, seed=int(rng.integers(1e6)), start=t).records
            segments.append(seg)
            t += timedelta(hours=M + 100)
        series = pipeline.ObservationSeries(segments, cadence=pipeline.HOUR)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            ds = pipeline.make_windows(series, pipeline.WindowConfig(lookback=L, horizon=h))
        expected = sum(count_windows_brute_force(M, L, h) for M in lengths)
        counts_ok &= ds.n_rows == expected == sum(max(0, M - L - h + 1) for M in lengths)

    ok = width_ok and counts_ok
    gate(5, "window width and per-segment row-count laws", ok,
         f"width(L=24)={ds24.width}, 50 segmentations vs brute force: {counts_ok}")


RAW_SAMPLE = """Year,Month,Date,Time,Temp,WindSpeed,Humidity,Pressure,Rainfall
2010,7,15,08:10,27,13,84,1004,1
2010,7,15,08:40,26,19,74,1005,0
2010,7,15,09:10,26,17,79,1005,0
2010,7,15,09:40,26,13,84,1005,1
2010,7,15,10:10,26,11,89,1004,1
2010,7,15,10:40,25,13,86,1004,0
"""


def test_criterion_6_raw_to_window_correspondence():
    import io

    series = pipeline.resample_hourly(pipeline.parse_raw_csv(io.StringIO(RAW_SAMPLE)))
    ds = pipeline.make_windows(series, pipeline.WindowConfig(lookback=1, horizon=1))
    row = ds.inputs[0].tolist()
    ok = row == [27.0, 13.0, 84.0, 1004.0, 1.0]
    gate(6, "raw sample rows reproduce the reference anchor block", ok, f"row={row}")


def _overfit_fixture():
    series = synthetic.make_series(200, seed=3, label_noise=0.0)
    ds = pipeline.make_windows(series, pipeline.WindowConfig(lookback=12, horizon=1))
    ds64 = pipeline.WindowedDataset(
        inputs=ds.inputs[:64], targets=ds.targets[:64],
        config=ds.config, anchors=ds.anchors[:64],
    )
    return pipeline.apply_normalizer(ds64, pipeline.fit_normalizer(ds64))


def test_criterion_7_overfit_smoke():
    fixture = _overfit_fixture()
    results = []
    ok = True
    for name, model in [
        ("bilstm", models.build_lstm_model("canonical", 12, 5, seed=0)),
        ("cnn", models.build_cnn_model("flat", 12, 5, seed=0)),
    ]:
        cfg = training.TrainConfig()  # defaults: lr 1e-3, batch 32
        rng = np.random.default_rng(cfg.seed)
        state = training.AdamState.for_params(model.params())
        t0 = time.perf_counter()
        reached = None
        for epoch in range(500):
            training.train_epoch(model, fixture, cfg, rng, state, epoch=epoch)
            if training.evaluate(model, fixture).accuracy == 1.0:
                reached = epoch + 1
                break
        elapsed = time.perf_counter() - t0
        results.append(f"{name}: 100% at epoch {reached} in {elapsed:.0f}s")
        ok &= reached is not None and elapsed < 120.0
    gate(7, "both models overfit the 64-row fixture", ok, "; ".join(results))


@pytest.mark.slow
def test_criterion_8_synthetic_skill():
    t0 = time.perf_counter()
    series = synthetic.make_series(5000, seed=42, label_noise=0.05)
    ds = pipeline.make_windows(series, pipeline.WindowConfig(lookback=12, horizon=1))
    train, test = pipeline.split_chronological(ds, pipeline.SplitSpec(0.8))
    stats = pipeline.fit_normalizer(train)
    train = pipeline.apply_normalizer(train, stats)
    test = pipeline.apply_normalizer(test, stats)

    accs = {}
    for name, model, cfg in [
        (
            "bilstm",
            models.build_lstm_model("canonical", 12, 5, seed=1),
            training.TrainConfig(learning_rate=1e-3, batch_size=64, epochs=20, seed=1),
        ),
        (
            "cnn",
            models.build_cnn_model("flat", 12, 5, seed=1),
            training.TrainConfig(learning_rate=1e-3, batch_size=32, epochs=18, seed=1),
        ),
    ]:
        log = training.fit(model, train, test=test, cfg=cfg)
        accs[name] = log.final_test.accuracy
    elapsed = time.perf_counter() - t0
    ok = all(a >= 0.90 for a in accs.values()) and elapsed < 600.0
    gate(8, "held-out skill >= 90% on the trend-rule series", ok,
         f"bilstm={accs['bilstm']:.4f} cnn={accs['cnn']:.4f} in {elapsed:.0f}s")


def _run_tiny_grid(csv_path, out_dir, threads):
    env_before = os.environ.get("NOWCAST_THREADS")
    os.environ["NOWCAST_THREADS"] = str(threads)
    try:
        code = main([
            "grid", "--input", csv_path, "--months", "all",
            "--lookbacks", "12", "--horizons", "1", "--models", "bilstm,cnn",
            "--epochs", "2", "--seed", "9", "--out", out_dir,
        ])
    finally:
        if env_before is None:
            os.environ.pop("NOWCAST_THREADS", None)
        else:
            os.environ["NOWCAST_THREADS"] = env_before
    assert code == 0
    files = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "grid_timings.txt":
            continue  # wall-clock lives here, outside the determinism contract
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def test_criterion_9_grid_determinism(tmp_path):
    csv_path = str(tmp_path / "tiny.csv")
    synthetic.write_indian_csv(synthetic.make_series(600, seed=5, label_noise=0.05), csv_path)
    runs = [
        _run_tiny_grid(csv_path, str(tmp_path / "g1"), threads=1),
        _run_tiny_grid(csv_path, str(tmp_path / "g2"), threads=1),
        _run_tiny_grid(csv_path, str(tmp_path / "g3"), threads=2),
    ]
    same_names = set(runs[0]) == set(runs[1]) == set(runs[2])
    identical = same_names and all(
        runs[0][name] == runs[1][name] == runs[2][name] for name in runs[0]
    )
    has_outputs = same_names and "grid.csv" in runs[0] and any(
        name.startswith("trainlog") for name in runs[0]
    )
    ok = identical and has_outputs
    gate(9, "fixed-seed grid reruns are byte-identical across thread counts", ok,
         f"files={sorted(runs[0])}")


@pytest.mark.slow
def test_criterion_10_qualitative_ordering(tmp_path):
    # the source datasets are not archived, so the check runs on a generated
    # rainy-city series; absolute accuracies are recorded, not asserted
    csv_path = str(tmp_path / "city.csv")
    synthetic.write_indian_csv(
        synthetic.make_series(2500, seed=7, label_noise=0.05),
        csv_path,
    )
    out = str(tmp_path / "grid")
    env_before = os.environ.get("NOWCAST_THREADS")
    os.environ["NOWCAST_THREADS"] = "2"
    try:
        code = main([
            "grid", "--input", csv_path, "--months", "all",
            "--lookbacks", "24,12", "--horizons", "1,2", "--models", "bilstm,cnn",
            "--epochs", "10", "--seed", "0", "--out", out,
        ])
    finally:
        if env_before is None:
            os.environ.pop("NOWCAST_THREADS", None)
        else:
            os.environ["NOWCAST_THREADS"] = env_before
    assert code == 0

    cells = {}
    with open(os.path.join(out, "grid.csv")) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("model,"):
                continue
            parts = line.strip().split(",")
            cells[(parts[0], int(parts[1]), int(parts[2]))] = float(parts[3])
    combos = [(24, 1), (24, 2), (12, 1), (12, 2)]
    wins = sum(cells[("bilstm", L, h)] >= cells[("cnn", L, h)] for (L, h) in combos)
    recorded = "  ".join(
        f"L{L}h{h}: bilstm={cells[('bilstm', L, h)]:.4f} cnn={cells[('cnn', L, h)]:.4f}"
        for (L, h) in combos
    )
    ok = wins >= 3
    gate(10, "recurrent net leads the conv net in >= 3 of 4 grid columns", ok,
         f"wins={wins}/4  {recorded}")
