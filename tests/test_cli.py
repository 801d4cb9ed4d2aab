"""End-to-end command-line behavior on generated data: exit codes, files,
report contents, and rerun determinism."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from nowcast import cli, pipeline, synthetic, training
from nowcast.cli import main
from nowcast.nn import load_model


@pytest.fixture(scope="module")
def csv_1000h(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "station.csv"
    series = synthetic.make_series(1000, seed=7, label_noise=0.05)
    synthetic.write_indian_csv(series, str(path))
    return str(path)


@pytest.fixture(scope="module")
def prepared_dir(tmp_path_factory, csv_1000h):
    out = tmp_path_factory.mktemp("prepared")
    code = main([
        "prepare", "--input", csv_1000h, "--out", str(out),
        "--lookback", "12", "--horizon", "1", "--months", "all",
    ])
    assert code == 0
    return str(out)


class TestPrepare:
    def test_counts_and_width_in_report(self, csv_1000h, tmp_path, capsys):
        code = main([
            "prepare", "--input", csv_1000h, "--out", str(tmp_path),
            "--lookback", "12", "--horizon", "2", "--months", "all",
        ])
        assert code == 0
        report = (tmp_path / "report.txt").read_text()
        assert "width=60" in report
        assert "identity filter" in report
        train = pipeline.load_windowed(str(tmp_path / "train.nwc"))
        test = pipeline.load_windowed(str(tmp_path / "test.nwc"))
        assert train.n_rows + test.n_rows == 1000 - 12 - 2 + 1 == 987
        assert train.norm_stats is not None
        assert train.inputs.min() >= 0.0 and train.inputs.max() <= 1.0

    def test_default_lookback_reports_width_120(self, csv_1000h, tmp_path):
        code = main([
            "prepare", "--input", csv_1000h, "--out", str(tmp_path), "--months", "all",
        ])
        assert code == 0
        assert "width=120" in (tmp_path / "report.txt").read_text()

    def test_month_filter_with_no_survivors_is_data_error(self, csv_1000h, tmp_path):
        code = main([
            "prepare", "--input", csv_1000h, "--out", str(tmp_path), "--months", "1,2",
        ])
        assert code == cli.EXIT_DATA

    def test_nan_reading_is_data_error(self, csv_1000h, tmp_path, capsys):
        with open(csv_1000h) as fh:
            lines = fh.read().split("\n")
        fields = lines[10].split(",")
        fields[4] = "nan"  # temperature
        lines[10] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        code = main(["prepare", "--input", str(bad), "--out", str(tmp_path / "out"), "--months", "all"])
        assert code == cli.EXIT_DATA
        assert "line 11" in capsys.readouterr().err
        assert not (tmp_path / "out" / "train.nwc").exists()

    def test_runs_on_columns_only(self, csv_1000h, tmp_path, monkeypatch):
        # building one Observation per record is what the columns replace
        def refuse(series):
            raise AssertionError("prepare built Observation lists")

        monkeypatch.setattr(pipeline.ObservationSeries, "records", property(refuse))
        monkeypatch.setattr(pipeline.ObservationSeries, "segments", property(refuse))
        code = main([
            "prepare", "--input", csv_1000h, "--out", str(tmp_path), "--months", "6,7",
        ])
        assert code == 0
        assert "forward-filled: 0" in (tmp_path / "report.txt").read_text()

    def test_missing_input_is_data_error(self, tmp_path):
        code = main([
            "prepare", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_DATA


class TestTrainEvaluateInspect:
    def test_train_writes_checkpoint_and_log(self, prepared_dir, tmp_path):
        out = tmp_path / "run"
        code = main([
            "train", "--train", os.path.join(prepared_dir, "train.nwc"),
            "--test", os.path.join(prepared_dir, "test.nwc"),
            "--model", "bilstm", "--epochs", "2", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        log_text = (out / "trainlog.csv").read_text()
        lines = log_text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 3
        assert (out / "model.nwm").exists()

    def test_fixed_seed_rerun_byte_identical_log(self, prepared_dir, tmp_path):
        logs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "train", "--train", os.path.join(prepared_dir, "train.nwc"),
                "--model", "bilstm", "--epochs", "2", "--seed", "3", "--out", str(out),
            ])
            assert code == 0
            logs.append((out / "trainlog.csv").read_bytes())
        assert logs[0] == logs[1]

    def test_cnn_trains_flat_form(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "cnn"
        code = main([
            "train", "--train", os.path.join(prepared_dir, "train.nwc"),
            "--model", "cnn", "--epochs", "1", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out == "trained cnn_net (flat) for 1 epoch(s)\n"
        model = load_model(str(out / "model.nwm"))
        assert model.mode == "flat" and model.input_shape == (60, 1)

    def test_mode_flag_is_usage_error(self, prepared_dir, csv_1000h, tmp_path):
        for argv in (
            ["train", "--train", os.path.join(prepared_dir, "train.nwc"), "--model", "cnn"],
            ["grid", "--input", csv_1000h, "--models", "cnn"],
        ):
            with pytest.raises(SystemExit) as exc_info:
                main([*argv, "--mode", "canonical", "--epochs", "0", "--out", str(tmp_path)])
            assert exc_info.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("fraction", ["-0.5", "inf"])
    def test_bad_validation_split_is_data_error(self, prepared_dir, tmp_path, fraction):
        out = tmp_path / "run"
        code = main([
            "train", "--train", os.path.join(prepared_dir, "train.nwc"),
            "--model", "bilstm", "--epochs", "1", "--val-split", fraction, "--out", str(out),
        ])
        assert code == cli.EXIT_DATA
        assert not (out / "model.nwm").exists()

    @pytest.mark.parametrize("setting", [
        ["--epochs", "-1"],
        ["--epochs", "1", "--patience", "0"],
        ["--epochs", "1", "--lr", "nan"],
    ])
    def test_bad_training_setting_is_data_error(self, prepared_dir, tmp_path, setting):
        out = tmp_path / "run"
        code = main([
            "train", "--train", os.path.join(prepared_dir, "train.nwc"),
            "--model", "bilstm", *setting, "--out", str(out),
        ])
        assert code == cli.EXIT_DATA
        assert not (out / "model.nwm").exists()

    @pytest.mark.parametrize("threshold", ["nan", "-0.1", "1.5"])
    def test_bad_threshold_is_data_error(self, prepared_dir, tmp_path, threshold):
        out = tmp_path / "run"
        main([
            "train", "--train", os.path.join(prepared_dir, "train.nwc"),
            "--model", "bilstm", "--epochs", "0", "--out", str(out),
        ])
        code = main([
            "evaluate", "--checkpoint", str(out / "model.nwm"),
            "--data", os.path.join(prepared_dir, "test.nwc"), "--threshold", threshold,
        ])
        assert code == cli.EXIT_DATA

    def test_evaluate_checkpoint(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main([
            "train", "--train", os.path.join(prepared_dir, "train.nwc"),
            "--model", "bilstm", "--epochs", "1", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "evaluate", "--checkpoint", str(out / "model.nwm"),
            "--data", os.path.join(prepared_dir, "test.nwc"),
        ])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_inspect_round_trip_counts(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main([
            "train", "--train", os.path.join(prepared_dir, "train.nwc"),
            "--model", "bilstm", "--epochs", "0", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "inspect", "--checkpoint", str(out / "model.nwm"),
            "--data", os.path.join(prepared_dir, "train.nwc"),
        ])
        assert code == 0
        text = capsys.readouterr().out
        from nowcast.models import build_lstm_model

        expected = build_lstm_model("canonical", lookback=12, features=5).param_count()
        assert f"{expected:,}" in text
        assert "positive rate" in text

    def test_inspect_corrupt_checkpoint_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.nwm"
        bad.write_bytes(b"garbage")
        assert main(["inspect", "--checkpoint", str(bad)]) == cli.EXIT_DATA

    def test_epochs_zero_writes_empty_log(self, prepared_dir, tmp_path):
        out = tmp_path / "zero"
        code = main([
            "train", "--train", os.path.join(prepared_dir, "train.nwc"),
            "--model", "bilstm", "--epochs", "0", "--out", str(out),
        ])
        assert code == 0
        assert (out / "trainlog.csv").read_text() == "epoch,train_loss,train_acc,val_loss,val_acc\n"

    def test_model_alias_trains_its_canonical_net(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "lstm"
        code = main([
            "train", "--train", os.path.join(prepared_dir, "train.nwc"),
            "--model", "lstm", "--epochs", "0", "--out", str(out),
        ])
        assert code == 0
        assert "trained bilstm_net" in capsys.readouterr().out

    def test_unknown_model_is_usage_error(self, prepared_dir, tmp_path):
        for name in ("transformer", "Transformer"):
            with pytest.raises(SystemExit) as exc_info:
                main([
                    "train", "--train", os.path.join(prepared_dir, "train.nwc"),
                    "--model", name, "--out", str(tmp_path / "run"),
                ])
            assert exc_info.value.code == cli.EXIT_USAGE

    def test_model_name_in_any_case(self, prepared_dir, tmp_path, capsys):
        code = main([
            "train", "--train", os.path.join(prepared_dir, "train.nwc"),
            "--model", "CNN", "--epochs", "0", "--out", str(tmp_path / "cnn"),
        ])
        assert code == 0
        assert "trained cnn_net" in capsys.readouterr().out


class TestVerify:
    def test_bilstm_reference_totals(self, capsys):
        assert main(["verify", "bilstm_net"]) == 0
        out = capsys.readouterr().out
        assert "283,647" in out

    def test_cnn_reference_totals_with_notes(self, capsys):
        assert main(["verify", "cnn_net"]) == 0
        out = capsys.readouterr().out
        assert "151,808" in out and "151,809" in out
        assert "known" in out

    def test_aliases_accepted(self, capsys):
        assert main(["verify", "bilstm"]) == 0
        assert main(["verify", "cnn"]) == 0
        assert main(["verify", "lstm"]) == 0

    def test_model_name_in_any_case(self, capsys):
        assert main(["verify", "bilstm"]) == 0
        lower = capsys.readouterr().out
        assert main(["verify", "BiLSTM"]) == 0
        assert capsys.readouterr().out == lower

    def test_unknown_model_is_usage_error(self):
        for name in ("transformer", "Transformer"):
            with pytest.raises(SystemExit) as exc_info:
                main(["verify", name])
            assert exc_info.value.code == cli.EXIT_USAGE


def blas_threads():
    """Thread count of the OpenBLAS mapped into this process, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


class TestGrid:
    def test_single_cell_grid(self, csv_1000h, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main([
            "grid", "--input", csv_1000h, "--months", "all",
            "--lookbacks", "6", "--horizons", "1", "--models", "bilstm",
            "--epochs", "1", "--out", str(out),
        ])
        assert code == 0
        table = (out / "grid.txt").read_text()
        assert table.splitlines()[0].startswith("model")
        assert "L=6,h=1" in table
        assert "bilstm" in table
        csv_text = (out / "grid.csv").read_text()
        assert csv_text.startswith("# nowcast grid seed=0")
        assert "model,lookback,horizon,accuracy" in csv_text
        assert len(csv_text.strip().split("\n")) == 3  # comment + header + 1 cell
        assert (out / "trainlog_bilstm_L6_h1.csv").exists()
        assert (out / "grid_timings.txt").exists()

    def test_cell_count_matches_grid_shape(self, csv_1000h, tmp_path):
        out = tmp_path / "grid2"
        code = main([
            "grid", "--input", csv_1000h, "--months", "all",
            "--lookbacks", "6,8", "--horizons", "1,2", "--models", "bilstm",
            "--epochs", "1", "--out", str(out),
        ])
        assert code == 0
        rows = (out / "grid.csv").read_text().strip().split("\n")[2:]
        assert len(rows) == 4  # 2 lookbacks x 2 horizons x 1 model

    def test_resamples_once_per_grid(self, csv_1000h, tmp_path, monkeypatch):
        calls = []
        resample = pipeline.resample_hourly
        monkeypatch.setattr(pipeline, "resample_hourly", lambda s: calls.append(1) or resample(s))
        code = main([
            "grid", "--input", csv_1000h, "--months", "all",
            "--lookbacks", "6,8", "--horizons", "1,2", "--models", "bilstm",
            "--epochs", "0", "--out", str(tmp_path / "grid"),
        ])
        assert code == 0
        assert len(calls) == 1

    def test_worker_pool_matches_in_process_run(self, tmp_path, monkeypatch):
        # cnn at L=2 is too short for even the flat conv stack: its
        # InputTooShort row has to come back from the worker process
        csv_path = str(tmp_path / "short.csv")
        synthetic.write_indian_csv(synthetic.make_series(300, seed=7, label_noise=0.05), csv_path)
        outputs = {}
        for workers in ("2", "1"):
            monkeypatch.setenv("NOWCAST_THREADS", workers)
            out = tmp_path / f"workers{workers}"
            code = main([
                "grid", "--input", csv_path, "--months", "all",
                "--lookbacks", "2,24", "--horizons", "1", "--models", "cnn,bilstm",
                "--epochs", "1", "--out", str(out),
            ])
            assert code == 0
            outputs[workers] = {
                p.name: p.read_bytes() for p in out.iterdir() if p.name != "grid_timings.txt"
            }
            assert len((out / "grid_timings.txt").read_text().splitlines()) == 4
        assert outputs["2"] == outputs["1"]
        assert {"grid.csv", "grid.txt", "trainlog_bilstm_L2_h1.csv",
                "trainlog_cnn_L24_h1.csv", "trainlog_bilstm_L24_h1.csv"} <= set(outputs["1"])
        rows = outputs["1"]["grid.csv"].decode().splitlines()[2:]
        assert rows[0].startswith("cnn,2,1,nan,") and "InputTooShort" in rows[0]

    def test_unknown_model_key_fails_before_training(self, csv_1000h, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid windowed data")

        monkeypatch.setattr(pipeline, "make_windows", refuse)
        # an unknown key, then an entry given twice, then a bad validation split
        for i, (models_arg, lookbacks, horizons, extra) in enumerate([
            ("bilstm,transformer", "6", "1", []),
            ("cnn,bilstm,bilstm", "6,6", "1", []),
            ("bilstm", "6,6", "1", []),
            ("bilstm", "6", "1,1", []),
            ("bilstm", "6", "1", ["--val-split", "-0.5"]),
        ]):
            out = tmp_path / f"grid{i}"
            code = main([
                "grid", "--input", csv_1000h, "--months", "all",
                "--lookbacks", lookbacks, "--horizons", horizons, "--models", models_arg,
                "--epochs", "1", "--out", str(out), *extra,
            ])
            assert code == cli.EXIT_DATA
            assert not (out / "grid.csv").exists()

    def test_bad_training_setting_fails_before_windowing(self, csv_1000h, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid windowed data")

        monkeypatch.setattr(pipeline, "make_windows", refuse)
        for i, setting in enumerate([["--epochs", "-1"], ["--patience", "0"], ["--lr", "inf"]]):
            out = tmp_path / f"grid{i}"
            code = main([
                "grid", "--input", csv_1000h, "--months", "all", "--lookbacks", "6",
                "--horizons", "1", "--models", "bilstm", "--out", str(out), *setting,
            ])
            assert code == cli.EXIT_DATA
            assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("threads", ["abc", "0", "-3", "1.5"])
    def test_bad_thread_count_fails_before_parsing(
        self, csv_1000h, tmp_path, monkeypatch, capsys, threads
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid parsed its input")

        monkeypatch.setattr(pipeline, "parse_raw_csv", refuse)
        monkeypatch.setenv("NOWCAST_THREADS", threads)
        out = tmp_path / "grid"
        code = main([
            "grid", "--input", csv_1000h, "--months", "all", "--lookbacks", "6",
            "--horizons", "1", "--models", "bilstm", "--out", str(out),
        ])
        assert code == cli.EXIT_DATA
        assert "NOWCAST_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_aliases_keep_their_spelling(self, csv_1000h, tmp_path):
        out = tmp_path / "grid"
        code = main([
            "grid", "--input", csv_1000h, "--months", "all",
            "--lookbacks", "6", "--horizons", "1", "--models", "lstm,bilstm_net",
            "--epochs", "0", "--out", str(out),
        ])
        assert code == 0
        rows = (out / "grid.csv").read_text().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["lstm", "bilstm_net"]
        assert (out / "trainlog_lstm_L6_h1.csv").exists()
        assert (out / "trainlog_bilstm_net_L6_h1.csv").exists()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="workers must inherit the stub"
    )
    def test_pooled_failure_cancels_pending_cells(self, csv_1000h, tmp_path, monkeypatch):
        # workers are forked after the patch, so they run the stub
        def stub(spec, train, test=None):
            if train.config.lookback == 6:
                raise ValueError("cell failed")
            time.sleep(1.0)
            return None, training.TrainLog()

        monkeypatch.setattr(training, "run", stub)
        monkeypatch.setenv("NOWCAST_THREADS", "2")
        out = tmp_path / "grid"
        code = main([
            "grid", "--input", csv_1000h, "--months", "all",
            "--lookbacks", "6,7,8,9", "--horizons", "1,2", "--models", "bilstm",
            "--epochs", "1", "--out", str(out),
        ])
        assert code == cli.EXIT_DATA
        assert not (out / "grid.csv").exists()
        written = {p.name for p in out.iterdir() if p.name.startswith("trainlog_")}
        assert len(written) < 6  # of the 6 cells that do not fail

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork" or blas_threads() is None,
        reason="workers must inherit the stub, and OpenBLAS must be mapped",
    )
    def test_pooled_cells_run_one_blas_thread(self, csv_1000h, tmp_path, monkeypatch):
        seen = tmp_path / "seen"
        seen.mkdir()

        def stub(spec, train, test=None):
            (seen / f"L{train.config.lookback}").write_text(str(blas_threads()))
            return None, training.TrainLog()

        monkeypatch.setattr(training, "run", stub)
        monkeypatch.setenv("NOWCAST_THREADS", "2")
        code = main([
            "grid", "--input", csv_1000h, "--months", "all",
            "--lookbacks", "6,7", "--horizons", "1", "--models", "bilstm",
            "--epochs", "1", "--out", str(tmp_path / "grid"),
        ])
        assert code == 0
        assert sorted(p.read_text() for p in seen.iterdir()) == ["1", "1"]


class TestUsage:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == cli.EXIT_USAGE

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == cli.EXIT_USAGE
