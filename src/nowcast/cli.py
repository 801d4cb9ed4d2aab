"""Command-line front end: prepare datasets, train/evaluate single runs,
run the full experiment grid, verify reference parameter parity, and
inspect checkpoints.

Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure,
4 parity mismatch. ``NOWCAST_THREADS`` is the number of worker processes
``grid`` trains its cells in (the name predates the process pool). Each
cell trains on its own (train, test) pair with its own seed, so the
worker count never changes results; at 1, the default, the cells run in
order in this process; a value that is not a whole number of at least 1
is a data error. Outside a pooled grid the CNN's convolutions run on every
core the process may use; each pool worker holds its convolutions and
OpenBLAS to one thread, so the workers do not oversubscribe the cores.
"""

import argparse
import os
import sys
import time
import warnings
import zlib
from dataclasses import dataclass, replace

from . import __version__, models, pipeline, training
from ._io import atomic_write_text
from .errors import (
    CorruptCheckpoint,
    InputTooShort,
    NonFiniteLoss,
    NowcastError,
    PipelineError,
    SegmentTooShortWarning,
    ShapeMismatch,
    UnexpectedMismatch,
)
from .nn import layers, load_model, save_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_PARITY = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: an unknown flag such as --mode must not be
        # read as --model or --models
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _parse_months(text):
    if text.strip().lower() == "all":
        return None
    try:
        months = sorted({int(m) for m in text.split(",") if m.strip()})
    except ValueError:
        raise ValueError(f"bad months list {text!r}") from None
    if not months or any(m < 1 or m > 12 for m in months):
        raise ValueError(f"months must be in 1..12, got {text!r}")
    return months


def _load_series(args):
    """Parse raw input per schema; for kaggle, input is a directory holding
    one ``<parameter>.csv`` file per ``pipeline.KAGGLE_PARAMETERS`` entry."""
    if args.schema == "indian":
        return pipeline.parse_raw_csv(args.input, schema="indian")
    if not args.city:
        raise ValueError("--city is required with --schema kaggle")
    tables = {}
    for param in pipeline.KAGGLE_PARAMETERS:
        path = os.path.join(args.input, f"{param}.csv")
        if not os.path.exists(path):
            raise PipelineError(f"missing kaggle file {path}")
        tables[param] = path
    return pipeline.parse_raw_csv(tables, schema="kaggle_city", city=args.city)


def _hourly_stage(series, months):
    """Resample and month-filter a parsed series once; returns the series
    every (lookback, horizon) is windowed from and its report counts."""
    hourly = pipeline.resample_hourly(series)
    if months is None:
        filtered = hourly
        identity_filter = True
    else:
        filtered = pipeline.filter_monsoon(hourly, months)
        identity_filter = len(set(months)) == 12
    info = {
        "rows_parsed": series.n_records,
        "hourly_records": hourly.n_records,
        "filled_hours": int(hourly.filled.sum()),
        "segments": filtered.n_segments,
        "identity_filter": identity_filter,
        "months": months,
    }
    return filtered, info


def _window_stage(filtered, lookback, horizon, split_fraction):
    """Window, split, and normalize; returns (train, test, info dict)."""
    cfg = pipeline.WindowConfig(lookback=lookback, horizon=horizon)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        windows = pipeline.make_windows(filtered, cfg)
    skipped = sum(1 for w in caught if issubclass(w.category, SegmentTooShortWarning))
    train, test = pipeline.split_chronological(
        windows, pipeline.SplitSpec(train_fraction=split_fraction)
    )
    stats = pipeline.fit_normalizer(train)
    train = pipeline.apply_normalizer(train, stats)
    test = pipeline.apply_normalizer(test, stats)
    info = {"skipped_segments": skipped, "config": cfg, "windows": windows.n_rows}
    return train, test, info


def _prepare_report(args, train, test, info):
    cfg = info["config"]
    months = "all (identity filter)" if info["months"] is None else (
        ",".join(str(m) for m in info["months"])
        + (" (identity filter)" if info["identity_filter"] else "")
    )
    lines = [
        f"input: {args.input}",
        f"schema: {args.schema}" + (f" city={args.city}" if args.city else ""),
        f"months: {months}",
        f"rows parsed: {info['rows_parsed']}",
        f"hourly records: {info['hourly_records']} (forward-filled: {info['filled_hours']})",
        f"segments: {info['segments']} (too short, skipped: {info['skipped_segments']})",
        f"window: lookback={cfg.lookback} horizon={cfg.horizon} width={cfg.width}",
        f"rows: total {info['windows']}, train {train.n_rows}, test {test.n_rows}",
        f"positive rate: train {train.positive_rate():.4f}, test {test.positive_rate():.4f}",
        "normalization: per-feature min-max fitted on train rows only",
    ]
    return "\n".join(lines) + "\n"


def cmd_prepare(args):
    series = _load_series(args)
    filtered, info = _hourly_stage(series, _parse_months(args.months))
    train, test, window_info = _window_stage(filtered, args.lookback, args.horizon, args.split)
    info.update(window_info)
    os.makedirs(args.out, exist_ok=True)
    pipeline.save_windowed(train, os.path.join(args.out, "train.nwc"))
    pipeline.save_windowed(test, os.path.join(args.out, "test.nwc"))
    report = _prepare_report(args, train, test, info)
    atomic_write_text(os.path.join(args.out, "report.txt"), report)
    print(report, end="")
    return EXIT_OK


def _run_spec(args, model_key):
    config = training.TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        patience=args.patience,
    )
    return training.RunSpec(model_key, args.val_split, config)


def _print_metrics(prefix, m):
    print(
        f"{prefix}: accuracy {m.accuracy:.4f}  precision {m.precision:.4f}  "
        f"recall {m.recall:.4f}  f1 {m.f1:.4f}  loss {m.loss:.6g}  "
        f"(tp {m.tp} fp {m.fp} tn {m.tn} fn {m.fn})"
    )


def cmd_train(args):
    spec = _run_spec(args, args.model)  # a bad setting fails before any loading
    train = pipeline.load_windowed(args.train)
    test = pipeline.load_windowed(args.test) if args.test else None
    model, log = training.run(spec, train, test)
    os.makedirs(args.out, exist_ok=True)
    save_model(model, os.path.join(args.out, "model.nwm"))
    log.save(os.path.join(args.out, "trainlog.csv"))
    print(f"trained {model.name} ({model.mode}) for {len(log.records)} epoch(s)")
    if log.final_test is not None:
        _print_metrics("test", log.final_test)
    return EXIT_OK


def cmd_evaluate(args):
    model = load_model(args.checkpoint)
    ds = pipeline.load_windowed(args.data)
    m = training.evaluate(model, ds, threshold=args.threshold)
    _print_metrics("eval", m)
    return EXIT_OK


def cell_seed(base_seed, model_key, lookback, horizon):
    """Stable per-cell seed: crc32 mix of the base seed and cell indices."""
    tag = f"{base_seed}:{model_key}:{lookback}:{horizon}".encode()
    return zlib.crc32(tag) & 0x7FFFFFFF


@dataclass
class GridCell:
    model: str
    lookback: int
    horizon: int
    metrics: training.Metrics | None = None
    epochs_run: int = 0
    seconds: float = 0.0
    error: str = ""


def _run_cell(model_key, lookback, horizon, data, spec, out):
    """Train one cell on its own (train, test) pair and write its log.
    ``spec.config.seed`` is the grid's base seed, not the cell's."""
    cell = GridCell(model=model_key, lookback=lookback, horizon=horizon)
    t0 = time.perf_counter()
    try:
        seed = cell_seed(spec.config.seed, model_key, lookback, horizon)
        _, log = training.run(replace(spec, config=replace(spec.config, seed=seed)), *data)
        log.save(os.path.join(out, f"trainlog_{model_key}_L{lookback}_h{horizon}.csv"))
        cell.metrics = log.final_test
        cell.epochs_run = len(log.records)
    except NowcastError as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
    cell.seconds = time.perf_counter() - t0
    return cell


def _grid_csv(cells, seed):
    lines = [
        f"# nowcast grid seed={seed} version={__version__}",
        "model,lookback,horizon,accuracy,precision,recall,f1,epochs,error",
    ]
    for c in cells:
        if c.metrics is None:
            lines.append(f"{c.model},{c.lookback},{c.horizon},nan,nan,nan,nan,{c.epochs_run},{c.error}")
        else:
            m = c.metrics
            lines.append(
                f"{c.model},{c.lookback},{c.horizon},{m.accuracy:.6g},{m.precision:.6g},"
                f"{m.recall:.6g},{m.f1:.6g},{c.epochs_run},"
            )
    return "\n".join(lines) + "\n"


def _grid_table(cells, model_keys, combos):
    """Human-readable accuracy table: models as rows, (L, h) as columns."""
    headers = [f"L={L},h={h}" for (L, h) in combos]
    width = max(12, *(len(h) + 2 for h in headers))
    name_w = max(len(m) for m in model_keys) + 2
    lines = ["".join(["model".ljust(name_w)] + [h.rjust(width) for h in headers])]
    by_key = {(c.model, c.lookback, c.horizon): c for c in cells}
    for mk in model_keys:
        row = [mk.ljust(name_w)]
        for (L, h) in combos:
            c = by_key[(mk, L, h)]
            row.append(("ERROR" if c.metrics is None else f"{c.metrics.accuracy:.4f}").rjust(width))
        lines.append("".join(row))
    return "\n".join(lines) + "\n"


def worker_count():
    """``NOWCAST_THREADS`` as a worker count; ``ValueError`` unless it is a
    whole number of at least 1."""
    raw = os.environ.get("NOWCAST_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"NOWCAST_THREADS must be a whole number >= 1, got {raw!r}")
    return count


def _one_thread_worker():
    """Pool initializer: hold a grid worker's conv and OpenBLAS to one
    thread each, so ``NOWCAST_THREADS`` workers run that many busy threads.

    A forked worker keeps the parent's BLAS thread count, and an idle
    BLAS thread spins, so two workers on two cores ran four busy threads:
    an 8-cell grid of both nets took 621 s instead of 212 s on a 2-vCPU
    VM. The conv would likewise take one thread per usable core in every
    worker. Neither count changes a result bit; the pooled grid stays
    byte-identical to the serial one. The BLAS step does nothing where no
    OpenBLAS is mapped (or there is no ``/proc``).
    """
    layers.CONV_THREADS = 1

    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_set_num_threads64_",
            "openblas_set_num_threads64_",
            "openblas_set_num_threads",
        ):
            if hasattr(lib, symbol):
                getattr(lib, symbol)(1)
                break


def cmd_grid(args):
    threads = worker_count()
    model_keys = [m.strip() for m in args.models.split(",")]
    lookbacks = [int(v) for v in args.lookbacks.split(",")]
    horizons = [int(v) for v in args.horizons.split(",")]
    # an unknown key, a repeated entry or a bad setting fails before any work
    for flag, values in (("models", model_keys), ("lookbacks", lookbacks), ("horizons", horizons)):
        if len(set(values)) != len(values):
            raise ValueError(f"--{flag} names an entry twice: {getattr(args, flag)}")
    for key in model_keys:
        models.model_name(key)
    specs = {mk: _run_spec(args, mk) for mk in model_keys}
    series = _load_series(args)
    months = _parse_months(args.months)
    os.makedirs(args.out, exist_ok=True)

    filtered, _ = _hourly_stage(series, months)
    combos = [(L, h) for L in lookbacks for h in horizons]
    prepared = {(L, h): _window_stage(filtered, L, h, args.split)[:2] for (L, h) in combos}
    tasks = [
        (mk, L, h, prepared[(L, h)], specs[mk], args.out)
        for (L, h) in combos for mk in model_keys
    ]
    workers = min(threads, len(tasks))
    if workers > 1:
        # imported here: multiprocessing adds ~20 ms to start-up, which
        # only a pooled grid needs
        from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

        with ProcessPoolExecutor(max_workers=workers, initializer=_one_thread_worker) as pool:
            futures = [pool.submit(_run_cell, *t) for t in tasks]
            wait(futures, return_when=FIRST_EXCEPTION)
            # a failure cancels the cells not yet started; every cell before
            # it in grid order has started, so the ordered read raises it
            pool.shutdown(cancel_futures=True)
            cells = [f.result() for f in futures]
    else:
        cells = [_run_cell(*t) for t in tasks]

    atomic_write_text(os.path.join(args.out, "grid.csv"), _grid_csv(cells, args.seed))
    table = _grid_table(cells, model_keys, combos)
    atomic_write_text(os.path.join(args.out, "grid.txt"), table)
    timing = "".join(
        f"{c.model} L={c.lookback} h={c.horizon}: {c.seconds:.1f}s "
        f"({c.epochs_run} epochs)\n"
        for c in cells
    )
    atomic_write_text(os.path.join(args.out, "grid_timings.txt"), timing)
    print(table, end="")
    failed = [c for c in cells if c.metrics is None]
    for c in failed:
        print(f"cell {c.model} L={c.lookback} h={c.horizon} failed: {c.error}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args):
    report = models.verify_parity(models.build_parity_model(args.model))
    print(report.to_text())
    report.require_clean()
    return EXIT_OK


def cmd_inspect(args):
    model = load_model(args.checkpoint)
    print(f"model {model.name} (mode {model.mode}), input shape {model.input_shape}")
    print(f"{'#':>3} {'layer':<10} {'output shape':>14} {'params':>10}")
    for idx, kind, shape, count in model.layer_summary():
        print(f"{idx:>3} {kind:<10} {str(shape):>14} {count:>10,}")
    print(f"total parameters: {model.param_count():,}")
    if args.data:
        ds = pipeline.load_windowed(args.data)
        cfg = ds.config
        print(
            f"dataset: {ds.n_rows} rows, width {ds.width} "
            f"(lookback={cfg.lookback} horizon={cfg.horizon} features={cfg.features}), "
            f"positive rate {ds.positive_rate():.4f}, "
            f"normalized: {'yes' if ds.norm_stats is not None else 'no'}"
        )
    return EXIT_OK


def _add_data_flags(p):
    p.add_argument("--input", required=True, help="raw CSV file (indian) or directory (kaggle)")
    p.add_argument("--schema", choices=["indian", "kaggle"], default="indian")
    p.add_argument("--city", default=None, help="city column for the kaggle schema")
    p.add_argument("--months", default="6,7,8,9", help="comma list of months, or 'all'")
    p.add_argument("--split", type=float, default=0.8, help="chronological train fraction")


def _add_train_flags(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--patience", type=int, default=None,
                   help="stop after this many epochs without validation improvement")
    p.add_argument("--val-split", type=float, default=0.1, dest="val_split",
                   help="fraction of the train rows held out (chronological tail) for curves")


def build_parser():
    parser = _Parser(prog="nowcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="raw CSV -> windowed train/test containers")
    _add_data_flags(p)
    p.add_argument("--lookback", type=int, default=24)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train one model on prepared containers")
    p.add_argument("--train", required=True, help="training container (.nwc)")
    p.add_argument("--test", default=None, help="test container (.nwc)")
    p.add_argument("--model", type=str.lower, choices=sorted(models.MODEL_ALIASES), required=True)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a container")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid", help="run the (model x lookback x horizon) grid")
    _add_data_flags(p)
    p.add_argument("--lookbacks", default="24,12")
    p.add_argument("--horizons", default="1,2")
    p.add_argument("--models", default="bilstm,cnn")
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("verify", help="check a parity build against the published counts")
    p.add_argument("model", type=str.lower, choices=sorted(models.MODEL_ALIASES))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inspect", help="print a checkpoint's layer table")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnexpectedMismatch as exc:
        print(f"parity mismatch: {exc}", file=sys.stderr)
        return EXIT_PARITY
    except NonFiniteLoss as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PipelineError, CorruptCheckpoint, ShapeMismatch, InputTooShort, ValueError,
            OSError) as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
