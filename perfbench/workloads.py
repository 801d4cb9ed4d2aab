"""The four workloads. Each drives ``nowcast`` through its CLI entry point,
in this process, the way a user runs it, on inputs made by ``gen``.

A workload has three steps:

* ``setup(session, seed)``  -- make the inputs (and, for the training
  workloads, prepare the containers); timed as set-up.
* ``round(session)``        -- one timed pass of the workload's commands;
  returns its metrics and a fingerprint of its deterministic output, which
  must be the same in every round of a run.
* ``check(session)``        -- check the last round's outputs on disk.
"""

import contextlib
import io
import math
import os
import time

import numpy as np

import checks
import gen
import reference

LOOKBACK = 24
EPOCHS = 2
SPLIT = 0.3333              # train share: 256 CNN rows train, 512 fill one eval batch
STATION_YEARS = 4
# Published totals are for the 144-wide reference input. Only the first
# layer sees the input width: the BiLSTM's has 2*4*45 weights per input
# column, so on 5 features it holds 2*4*45*(144-5) fewer; the flat CNN
# reads one channel, as the reference does, and keeps its total.
PUBLISHED_PARAMS = {"bilstm": 283647 - 2 * 4 * 45 * (144 - 5), "cnn": 151809}
SAMPLE_ROWS = 16            # held-out rows compared one by one with the reference
GRID_CELLS = ((24, 1), (24, 2), (12, 1), (12, 2))
GRID_HOURS = 424
GRID_THREADS = 2


class Session:
    """Runs ``nowcast`` commands in this process and counts them."""

    def __init__(self, cli, load_model, work):
        self.cli = cli
        self.load_model = load_model
        self.work = work
        self.attempted = 0
        self.failed = 0

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def nowcast(self, *argv, threads=None):
        """Run one command; returns (stdout text, wall seconds)."""
        saved = os.environ.get("NOWCAST_THREADS")
        if threads is not None:
            os.environ["NOWCAST_THREADS"] = str(threads)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main([str(a) for a in argv])
        finally:
            seconds = time.perf_counter() - t0
            if saved is None:
                os.environ.pop("NOWCAST_THREADS", None)
            else:
                os.environ["NOWCAST_THREADS"] = saved
        self.attempted += 1
        if code != 0:
            self.failed += 1
        return buf.getvalue(), seconds


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class PrepareStation:
    """One long irregular station CSV through ``nowcast prepare``."""

    name = "prepare_station"

    def setup(self, s, seed):
        text, self.expected = gen.station_csv(seed, years=STATION_YEARS, lookback=LOOKBACK)
        self.csv_rows = text.count("\n") - 1
        self.csv = s.path("station.csv")
        self.out = s.path("prep")
        _write(self.csv, text)

    def round(self, s):
        self.report, seconds = s.nowcast(
            "prepare", "--input", self.csv, "--months", "6,7,8,9",
            "--lookback", LOOKBACK, "--out", self.out,
        )
        return {"rows_per_s": self.csv_rows / seconds, "round_s": seconds}, self.report

    def check(self, s):
        return checks.check_prepare(
            checks.parse_report(self.report), self.expected,
            os.path.join(self.out, "train.nwc"), os.path.join(self.out, "test.nwc"),
        )


class TrainNet:
    """``nowcast train`` (no validation tail) then ``nowcast evaluate``,
    on containers prepared from a clean series during set-up."""

    def __init__(self, net, windows):
        self.net = net
        self.name = f"train_{net}"
        self.hours = windows + LOOKBACK

    def setup(self, s, seed):
        text, self.expected = gen.clean_csv(seed, self.hours, LOOKBACK, split=SPLIT)
        csv = s.path(f"{self.net}.csv")
        self.data = s.path(f"{self.net}_data")
        self.run_dir = s.path(f"{self.net}_run")
        _write(csv, text)
        self.report, _ = s.nowcast(
            "prepare", "--input", csv, "--months", "all", "--lookback", LOOKBACK,
            "--split", SPLIT, "--out", self.data,
        )

    def round(self, s):
        train_out, train_s = s.nowcast(
            "train", "--train", os.path.join(self.data, "train.nwc"), "--model", self.net,
            "--epochs", EPOCHS, "--val-split", 0, "--out", self.run_dir,
        )
        eval_out, eval_s = s.nowcast(
            "evaluate", "--checkpoint", os.path.join(self.run_dir, "model.nwm"),
            "--data", os.path.join(self.data, "test.nwc"),
        )
        self.eval_out = eval_out
        rows = self.expected.train_rows * EPOCHS
        return {"rows_per_s": rows / train_s, "round_s": train_s + eval_s}, train_out + eval_out

    def check(self, s):
        train_nwc = os.path.join(self.data, "train.nwc")
        test_nwc = os.path.join(self.data, "test.nwc")
        problems = checks.check_prepare(
            checks.parse_report(self.report), self.expected, train_nwc, test_nwc
        )
        checkpoint = os.path.join(self.run_dir, "model.nwm")
        meta, layers = reference.read_nwm(checkpoint)
        problems += checks.check_training(
            layers, PUBLISHED_PARAMS[self.net],
            _read(os.path.join(self.run_dir, "trainlog.csv")), EPOCHS,
        )
        inputs, targets = reference.read_nwc(test_nwc)[:2]
        ref_probs = reference.forward(meta, layers, inputs)
        sample = np.linspace(0, len(inputs) - 1, SAMPLE_ROWS).astype(int)
        program_probs = s.load_model(checkpoint).forward(inputs[sample])
        targets = targets.astype(np.float64)
        problems += checks.check_evaluation(
            self.eval_out, targets, ref_probs, sample, program_probs
        )
        return problems + checks.check_skill(self.eval_out, targets)


class GridBilstm:
    """``nowcast grid`` over 2 lookbacks x 2 horizons, BiLSTM only, on a
    clean series with ``NOWCAST_THREADS=2``."""

    name = "grid_bilstm"

    def setup(self, s, seed):
        text, _ = gen.clean_csv(seed, GRID_HOURS, LOOKBACK)
        self.serial_s = None
        self.csv = s.path("grid_input.csv")
        _write(self.csv, text)
        # rows trained per round: the train split of every cell, each epoch
        self.rows = sum(
            math.ceil(gen.TRAIN_FRACTION * (GRID_HOURS - L - h + 1)) for L, h in GRID_CELLS
        ) * EPOCHS

    def _grid(self, s, out, threads):
        lookbacks = ",".join(str(L) for L in dict.fromkeys(L for L, _ in GRID_CELLS))
        horizons = ",".join(str(h) for h in dict.fromkeys(h for _, h in GRID_CELLS))
        _, seconds = s.nowcast(
            "grid", "--input", self.csv, "--months", "all", "--lookbacks", lookbacks,
            "--horizons", horizons, "--models", "bilstm", "--epochs", EPOCHS,
            "--out", out, threads=threads,
        )
        text = _read(os.path.join(out, "grid.csv"))
        rows = checks.grid_rows(text)
        s.attempted += len(GRID_CELLS)
        s.failed += len(GRID_CELLS) - sum(1 for r in rows if not r["error"])
        return text, seconds

    def round(self, s):
        self.out = s.path("grid_run")
        text, seconds = self._grid(s, self.out, GRID_THREADS)
        return {"rows_per_s": self.rows / seconds, "round_s": seconds}, text

    def check(self, s):
        serial, self.serial_s = self._grid(s, s.path("grid_serial"), 1)
        return checks.check_grid(
            _read(os.path.join(self.out, "grid.csv")), serial, "bilstm", GRID_CELLS, EPOCHS
        )


def check(workload, s):
    """The workload's problems; an output it cannot read is one of them."""
    try:
        return workload.check(s)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]


def all_workloads():
    return {w.name: w for w in (
        PrepareStation(),
        TrainNet("bilstm", windows=2880),
        TrainNet("cnn", windows=768),
        GridBilstm(),
    )}
