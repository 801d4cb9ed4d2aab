"""The output comparison of ``tools/same_outputs.py``, on two tiny trees."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def make_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return same_outputs.digest_tree(root)


FILES = {"grid/grid.csv": b"model,L\nbilstm,12\n", "train.console": b"exit 0\n"}


def test_identical_trees_pass(tmp_path):
    a = make_tree(tmp_path / "a", FILES)
    b = make_tree(tmp_path / "b", FILES)
    assert sorted(a) == ["grid/grid.csv", "train.console"]
    assert same_outputs.differing(a, b) == []


def test_one_changed_byte_is_flagged(tmp_path):
    a = make_tree(tmp_path / "a", FILES)
    b = make_tree(tmp_path / "b", {**FILES, "grid/grid.csv": b"model,L\nbilstm,13\n"})
    assert same_outputs.differing(a, b) == ["grid/grid.csv"]


def test_a_file_on_one_side_only_is_flagged(tmp_path):
    a = make_tree(tmp_path / "a", FILES)
    b = make_tree(tmp_path / "b", {**FILES, "extra.csv": b""})
    assert same_outputs.differing(a, b) == same_outputs.differing(b, a) == ["extra.csv"]


def test_timings_are_not_compared(tmp_path):
    a = make_tree(tmp_path / "a", {**FILES, "grid/grid_timings.txt": b"1.0\n"})
    b = make_tree(tmp_path / "b", {**FILES, "grid/grid_timings.txt": b"2.0\n"})
    assert same_outputs.differing(a, b) == []
