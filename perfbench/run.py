"""Benchmark for the nowcast program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
``src/`` of that checkout, never from an installed copy. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced run with ``--trace 1``. See README.md.
"""

import os

# one BLAS thread, set before numpy loads; the grid's threads are the only others
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 3

WORKLOADS = ("prepare_station", "train_bilstm", "train_cnn", "grid_bilstm")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "rows_per_s": "1/s", "round_s": "s"}


class ProgramMissing(Exception):
    pass


def load_program():
    """Import nowcast from this checkout's src/; returns (modules, seconds)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nowcast", "cli.py")):
        raise ProgramMissing(f"no nowcast sources under {src}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    program = importlib.import_module("nowcast")
    for sub in ("cli", "pipeline", "training", "models", "nn", "nn.model"):
        importlib.import_module(f"nowcast.{sub}")
    seconds = time.perf_counter() - t0
    if not os.path.abspath(program.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"nowcast imported from {program.__file__}, not {src}")
    return program, seconds


def measure(workload, s, seconds):
    """Whole rounds until the next one would end after ``seconds``; returns
    the per-round metrics and problems with round-to-round repeatability."""
    rounds, prints = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        metrics, fingerprint = workload.round(s)
        rounds.append(metrics)
        prints.append(fingerprint)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    problems = [f"round {i + 1} output differs from round 1"
                for i, p in enumerate(prints) if p != prints[0]]
    return rounds, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program, import_s = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")   # the station input warns by design
    sys.path.insert(0, HERE)
    import tracing
    import workloads as wl

    runs = os.path.join(HERE, "_runs")
    work = os.path.join(runs, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    s = wl.Session(program.cli, program.nn.load_model, work)
    problems = []
    try:
        if args.trace:
            metrics, traced, problems = tracing.tour(
                s, program, args.seed,
                os.path.join(runs, f"trace-{args.workload}-{args.seed}.jsonl"),
            )
            for name, m in traced.items():
                print(f"traced {name}: " + " ".join(f"{k}={v:.6g}" for k, v in m.items()))
            units = {name: unit for name, unit, _ in tracing.per_layer_spec(program.models)}
            missing = sorted(set(units) - set(metrics))
            problems += [f"per-layer metric {m} not measured" for m in missing]
        else:
            workload = wl.all_workloads()[args.workload]
            setups = []
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                workload.setup(s, args.seed)
                setups.append(time.perf_counter() - t0)
            rounds, problems = measure(workload, s, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            problems += wl.check(workload, s)
            metrics = {
                "setup_s": import_s + statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
                "rows_per_s": statistics.median(r["rows_per_s"] for r in rounds),
                "round_s": statistics.median(r["round_s"] for r in rounds),
            }
            units = UNITS
            print(f"{args.workload}: setups " + " ".join(f"{t:.4f}" for t in setups))
            for key in ("rows_per_s", "round_s"):
                print(f"{args.workload}: {key} by round " + " ".join(f"{r[key]:.6g}" for r in rounds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": metrics.get(k), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
