"""The golden record: a few of pego's outputs, pinned for tier-1.

``golden.json`` beside this file holds, from one environment:

- the metrics CSV of a 30-iteration ``pego train`` on the canonical
  dataset without domain ``d0`` (group size 2), the accuracy ``pego
  eval`` gives its merged checkpoint on ``d0``, and the merged model's
  logits for the first four images of ``d0``;
- the ``summary.csv`` rows of ``pego lodo --iters 30 --seeds 0`` on the
  canonical dataset;
- the two ``max_rel_error`` figures of ``pego gradcheck``.

It also names the numpy, the BLAS and the BLAS's run-time configuration
string (which names the CPU kernel) it was made with.
``test_golden.py`` compares a fresh record with it: bitwise when the
environment matches, otherwise within ``TOLERANCES``.

A change that moves rounding regenerates the record with

    PYTHONPATH=src python tests/golden.py

which prints each value that moved, with its largest relative change,
and rewrites ``golden.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from pego import checkpoint, cli, data, machine, trainer, vit

RECORD = Path(__file__).with_name("golden.json")
ITERS = "30"
LOGIT_IMAGES = 4

# Allowed change from the record when the environment differs: another
# BLAS kernel rounds GEMMs differently, and 300 pretraining steps plus
# 30 training steps carry that into every figure. Per value prefix:
# ("rel", r) allows a change of r times the largest magnitude in the
# recorded list, ("abs", a) an absolute change of a, and ("factor", f) a
# value within a factor f: the gradient-check errors are rounding noise.
TOLERANCES = {
    "train.loss": ("rel", 1e-2),
    "train.val_acc": ("abs", 0.02),
    "train.heldout_accuracy": ("abs", 0.02),
    "train.logits": ("rel", 1e-2),
    "lodo.accuracy": ("abs", 0.02),
    "lodo.selected_iter": ("abs", 0),
    "gradcheck.max_rel_error": ("factor", 10.0),
}


def environment() -> dict:
    """The numpy version, and the name, version and run-time configuration
    string of its BLAS (None where numpy does not say)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    config = machine._openblas("scipy_openblas_get_config64_", ctypes.c_char_p, ())
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": None if config is None else config().decode(),
    }


def _pego(*argv: str) -> str:
    """Run ``pego`` in this process and return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"pego {' '.join(argv)} exited {code}")
    return out.getvalue()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _number(cell: str):
    return None if cell == "" else float(cell)


def compute(workdir: Path) -> dict:
    """A fresh record, made in ``workdir``: its environment and values."""
    dataset = data.generate_dataset(trainer.canonical_dataset_spec(), seed=0)
    full, sources = workdir / "canonical.ckpt", workdir / "sources.ckpt"
    checkpoint.save_dataset(full, dataset)
    checkpoint.save_dataset(sources, dataset.without("d0"))
    values: dict[str, list] = {}

    run = workdir / "train"
    _pego("train", "--dataset", str(sources), "--out", str(run), "--iters", ITERS, "--group-n", "2")
    history = _rows(run / "run.csv")
    for column in ("loss_cls", "loss_preserve", "loss_diversify", "loss_or", "val_acc"):
        name = column if column == "val_acc" else f"loss.{column[5:]}"
        values[f"train.{name}"] = [_number(row[column]) for row in history]
    merged = run / "merged.ckpt"
    line = _pego("eval", "--ckpt", str(merged), "--dataset", str(full), "--domain", "d0")
    values["train.heldout_accuracy"] = [float(line.rsplit("accuracy=", 1)[1])]
    model = checkpoint.load_model(merged)
    logits = vit.forward_logits_batch(model, dataset.images["d0"][:LOGIT_IMAGES])
    values["train.logits"] = [float(v) for v in logits.ravel()]

    lodo = workdir / "lodo"
    _pego("lodo", "--dataset", str(full), "--out", str(lodo), "--iters", ITERS, "--seeds", "0")
    summary = _rows(lodo / "summary.csv")
    values["lodo.runs"] = [f"{row['test_domain']}/{row['seed']}" for row in summary]
    values["lodo.accuracy"] = [float(row["accuracy"]) for row in summary]
    values["lodo.selected_iter"] = [int(row["selected_iter"]) for row in summary]

    lines = _pego("gradcheck").splitlines()
    values["gradcheck.max_rel_error"] = [float(ln.split("max_rel_error=")[1].split()[0]) for ln in lines]
    return {"environment": environment(), "values": values}


def load() -> dict:
    return json.loads(RECORD.read_text())


def tolerance(name: str):
    """The ``(kind, bound)`` allowed for the value ``name``, or None when
    it must match exactly in any environment."""
    for prefix, tol in TOLERANCES.items():
        if name.startswith(prefix):
            return tol
    return None


def relative_change(old, new) -> float:
    """The largest change between two equally long lists, relative to the
    largest magnitude in ``old`` (so a logit near zero does not inflate
    it); inf when their lengths, their None entries or any non-numeric
    entry differ."""
    if len(old) != len(new):
        return math.inf
    if any((a is None) != (b is None) or isinstance(a, str) and a != b for a, b in zip(old, new)):
        return math.inf
    pairs = [(a, b) for a, b in zip(old, new) if a is not None and not isinstance(a, str)]
    change = max((abs(b - a) for a, b in pairs), default=0.0)
    if change == 0.0:
        return 0.0
    scale = max(abs(a) for a, _ in pairs)
    return change / scale if scale else math.inf


def within(name: str, old, new) -> bool:
    """Whether ``new`` stays within the tolerance of ``name`` around ``old``."""
    tol = tolerance(name)
    if tol is None:
        return old == new
    kind, bound = tol
    if kind == "rel":
        return relative_change(old, new) <= bound
    if len(old) != len(new) or any((a is None) != (b is None) for a, b in zip(old, new)):
        return False
    pairs = [(a, b) for a, b in zip(old, new) if a is not None]
    if kind == "abs":
        return all(abs(b - a) <= bound for a, b in pairs)
    return all(a / bound <= b <= a * bound for a, b in pairs)  # "factor"


def main() -> int:
    # No options: ``--help`` prints the docstring and anything else exits
    # 2, both before the record is computed or written.
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        fresh = compute(Path(tmp))
    old = load() if RECORD.exists() else {"environment": None, "values": {}}
    if old["environment"] != fresh["environment"]:
        print(f"environment: {old['environment']} -> {fresh['environment']}")
    moved = 0
    for name, new in fresh["values"].items():
        before = old["values"].get(name)
        if before == new:
            continue
        moved += 1
        if before is None:
            print(f"{name}: new")
        else:
            changed = sum(a != b for a, b in zip(before, new)) + abs(len(before) - len(new))
            print(f"{name}: {changed} of {len(new)} moved, largest relative change {relative_change(before, new):.3g}")
    for name in old["values"].keys() - fresh["values"].keys():
        print(f"{name}: gone")
    print(f"{moved} values moved; wrote {RECORD}")
    with open(RECORD, "w") as fh:
        json.dump(fresh, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
