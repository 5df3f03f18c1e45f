"""Fresh outputs against the golden record (``golden.json``): bitwise where
the numpy, BLAS and BLAS kernel are the record's, otherwise within
``golden.TOLERANCES``. ``PYTHONPATH=src python tests/golden.py``
regenerates the record."""

import os
import subprocess
import sys
from pathlib import Path

import golden
import pytest


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return golden.load(), golden.compute(tmp_path_factory.mktemp("golden"))


def test_every_value_matches_the_record(records):
    recorded, fresh = records
    assert recorded["environment"].keys() == fresh["environment"].keys() == {"numpy", "blas", "blas_config"}
    assert fresh["values"].keys() == recorded["values"].keys()
    same_environment = fresh["environment"] == recorded["environment"]
    for name, old in recorded["values"].items():
        new = fresh["values"][name]
        if same_environment:
            assert new == old, f"{name} moved by {golden.relative_change(old, new):.3g} relative"
        else:
            assert golden.within(name, old, new), f"{name} moved past {golden.tolerance(name)}"


@pytest.mark.parametrize(
    "name, old, new, ok",
    [
        ("train.loss.cls", [1.0, 2.0], [1.0, 2.0 + 1e-3], True),
        ("train.loss.cls", [1.0, 2.0], [1.0, 2.1], False),
        ("train.logits", [1e-6, 4.0], [2e-6, 4.0], True),
        ("lodo.accuracy", [0.9], [0.91], True),
        ("lodo.accuracy", [0.9], [0.95], False),
        ("lodo.selected_iter", [30], [29], False),
        ("lodo.runs", ["d0/0"], ["d1/0"], False),
        ("train.val_acc", [None, 0.5], [0.5, 0.5], False),
        ("gradcheck.max_rel_error", [2e-8], [9e-8], True),
        ("gradcheck.max_rel_error", [2e-8], [3e-7], False),
    ],
)
def test_tolerances(name, old, new, ok):
    assert golden.within(name, old, new) is ok


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2)], ids=["help", "unknown"])
def test_help_and_unknown_arguments_leave_the_record_alone(argv, code):
    # The script takes no options: neither call may compute or write the record.
    before = golden.RECORD.read_bytes(), golden.RECORD.stat().st_mtime_ns
    script = Path(golden.__file__)
    env = {**os.environ, "PYTHONPATH": str(script.parent.parent / "src")}
    run = subprocess.run([sys.executable, str(script), *argv], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == code, run.stderr
    assert (golden.__doc__.splitlines()[0] in run.stdout) is (code == 0)
    assert (golden.RECORD.read_bytes(), golden.RECORD.stat().st_mtime_ns) == before
