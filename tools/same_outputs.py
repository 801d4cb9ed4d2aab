"""Check that the working tree's ``src/`` gives the same output bytes as REV's.

    python3 tools/same_outputs.py REV

REV's tracked ``src/`` is extracted with ``git archive`` into a temporary
directory (no worktree is left behind). One fixed recipe of ``nowcast``
commands then runs twice, with ``PYTHONPATH`` set to REV's sources and then
to the working tree's, each side in its own directory under the same
relative paths, so a report line that names its input reads the same on
both sides. The recipe, on ``make_series(700, seed=5, label_noise=0.05)``
written as an indian CSV and as the five kaggle tables:

- ``prepare`` of the indian file, and ``prepare --schema kaggle``;
- ``train --epochs 2`` of both nets at ``--val-split`` 0 and 0.1, each
  followed by ``evaluate`` and ``inspect``;
- ``verify bilstm`` and ``verify cnn``;
- ``grid --lookbacks 12,2 --models bilstm,cnn --epochs 2`` at
  ``NOWCAST_THREADS`` 1 and 2, without ``grid_timings.txt`` (wall times).

Every command's exit code, stdout and stderr are kept as an output file
too. The script prints each output's SHA-256 and the files that differ,
and exits 1 if any file differs or exists on one side only.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CITY = "Testville"
KAGGLE_TABLES = ("temperature", "wind_speed", "humidity", "pressure", "weather_description")
RAINY = ("light rain", "Thunderstorm with drizzle", "shower DRIZZLE")
DRY = ("sky is clear", "few clouds", "mist")
# timings, not results
SKIPPED = {"grid_timings.txt"}


def digest_tree(root):
    """{relative path: SHA-256 hex} of every file under ``root``."""
    root = Path(root)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in SKIPPED
    }


def differing(a, b):
    """Sorted paths whose digests differ between two ``digest_tree`` maps,
    a path present on one side only included."""
    return sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))


def write_inputs(root):
    """The recipe's station series as ``station.csv`` and ``kaggle/*.csv``
    under ``root``, written with the working tree's generator."""
    sys.path.insert(0, str(REPO / "src"))
    from nowcast import synthetic

    series = synthetic.make_series(700, seed=5, label_noise=0.05)
    root.mkdir(parents=True)
    synthetic.write_indian_csv(series, root / "station.csv")
    kaggle = root / "kaggle"
    kaggle.mkdir()
    records = series.records
    for name in KAGGLE_TABLES:
        lines = [f"datetime,Elsewhere,{CITY}"]
        for i, obs in enumerate(records):
            if name == "weather_description":
                value = (RAINY if obs.rain else DRY)[i % 3]
            else:
                value = getattr(obs, name)
            lines.append(f"{obs.timestamp:%Y-%m-%d %H:%M:%S},0,{value}")
        (kaggle / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def recipe():
    """(output name, argv, NOWCAST_THREADS) of each command, in order."""
    steps = [
        ("prepare", ["prepare", "--input", "in/station.csv", "--out", "out/data"], "1"),
        ("prepare_kaggle", [
            "prepare", "--schema", "kaggle", "--city", CITY, "--input", "in/kaggle",
            "--out", "out/data_kaggle",
        ], "1"),
    ]
    for model in ("bilstm", "cnn"):
        for val_split in ("0", "0.1"):
            run = f"out/{model}_val{val_split}"
            checkpoint = f"{run}/model.nwm"
            steps += [
                (f"train_{model}_val{val_split}", [
                    "train", "--model", model, "--train", "out/data/train.nwc",
                    "--test", "out/data/test.nwc", "--epochs", "2",
                    "--val-split", val_split, "--out", run,
                ], "1"),
                (f"evaluate_{model}_val{val_split}", [
                    "evaluate", "--checkpoint", checkpoint, "--data", "out/data/test.nwc",
                ], "1"),
                (f"inspect_{model}_val{val_split}", [
                    "inspect", "--checkpoint", checkpoint, "--data", "out/data/test.nwc",
                ], "1"),
            ]
    steps += [(f"verify_{model}", ["verify", model], "1") for model in ("bilstm", "cnn")]
    for threads in ("1", "2"):
        steps.append((f"grid_threads{threads}", [
            "grid", "--input", "in/station.csv", "--months", "all", "--lookbacks", "12,2",
            "--models", "bilstm,cnn", "--epochs", "2", "--out", f"out/grid_threads{threads}",
        ], threads))
    return steps


def run_side(src, workdir, inputs):
    """Run the recipe in ``workdir`` against the package under ``src``."""
    shutil.copytree(inputs, workdir / "in")
    (workdir / "out").mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for name, argv, threads in recipe():
        done = subprocess.run(
            [sys.executable, "-m", "nowcast.cli", *argv],
            cwd=workdir, env=dict(env, NOWCAST_THREADS=threads), capture_output=True,
        )
        (workdir / "out" / f"{name}.console").write_bytes(
            f"exit {done.returncode}\n--- stdout\n".encode() + done.stdout
            + b"--- stderr\n" + done.stderr
        )


def main(argv):
    if len(argv) != 1:
        print("usage: same_outputs.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        rev_tree = tmp / "rev"
        rev_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
            stdout=subprocess.PIPE,
        )
        if archive.returncode:
            return 2  # git has said why
        subprocess.run(["tar", "-x", "-C", str(rev_tree)], input=archive.stdout, check=True)
        write_inputs(tmp / "inputs")
        sides = {"rev": rev_tree / "src", "tree": REPO / "src"}
        digests = {}
        for side, src in sides.items():
            workdir = tmp / side / "run"
            workdir.mkdir(parents=True)
            run_side(src, workdir, tmp / "inputs")
            digests[side] = digest_tree(workdir / "out")
    before, after = digests["rev"], digests["tree"]
    paths = sorted(before.keys() | after.keys())
    for path in paths:
        a, b = before.get(path, "-"), after.get(path, "-")
        print(f"{a}  {path}" if a == b else f"{a} (REV) / {b} (tree)  {path}")
    diff = differing(before, after)
    if diff:
        print(f"{len(diff)} of {len(paths)} output(s) differ from {rev}:")
        for path in diff:
            print(f"  {path}")
        return 1
    print(f"all {len(paths)} outputs identical to {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
