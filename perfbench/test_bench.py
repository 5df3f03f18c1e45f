"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench -q``.

They use a short schedule on the canonical model, so they finish in
seconds, and never time anything.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pego import trainer, vit
from pego.data import generate_dataset

from perfbench import spans, workloads

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("autograd.op_calls", "autograd.tape_nodes", "autograd.matmul_calls",
          "autograd.parent_grads_computed", "autograd.parent_grads_kept")


@pytest.fixture(scope="module")
def short_cell():
    ds = generate_dataset(trainer.canonical_dataset_spec(), 3)
    base = trainer.pretrain_base(trainer.canonical_vit_config(), 3, iterations=2)
    cfg = trainer.TrainConfig(batch_per_domain=8, seed=3, iterations=6, eval_every=3)
    return base, ds.without("d1"), cfg


def _traced_train(base, sources, cfg):
    rec = spans.Recorder()
    rec.install()
    try:
        with rec.span("bench.op", 0):
            result = trainer.train(base, sources, cfg)
    finally:
        rec.uninstall()
    return result, rec


def _fingerprint(result):
    return (workloads._history_array(result.history).tobytes(),
            {k: v.tobytes() for k, v in vit.model_to_arrays(result.model).items()})


def test_exact_counts_repeat_across_runs(short_cell):
    seen = []
    for _ in range(2):
        _, rec = _traced_train(*short_cell)
        metrics, problems = spans.per_layer_metrics(spans.SpanTable(rec.names, rec.arrays()))
        assert problems == []
        seen.append({name: metrics[name][0] for name in COUNTS})
    assert seen[0] == seen[1]
    assert all(v > 0 for v in seen[0].values())
    assert seen[0]["autograd.parent_grads_kept"] <= seen[0]["autograd.parent_grads_computed"]


def test_tracing_leaves_results_bitwise_unchanged(short_cell):
    plain = trainer.train(*short_cell)
    traced, _ = _traced_train(*short_cell)
    assert _fingerprint(plain) == _fingerprint(traced)


def test_recorder_uninstall_restores_the_program(short_cell):
    from pego import autograd as ag

    before = (ag.matmul, trainer.train, trainer.make_batch)
    _traced_train(*short_cell)
    assert (ag.matmul, trainer.train, trainer.make_batch) == before


def test_self_time_nearest_and_cells():
    # Span 0 (bench.op, cell 7) holds 1, which holds 2; 3 is a sibling of 0.
    names = ["bench.op", "trainer.train", "fwd.add", "bench.setup"]
    cols = {
        "code": np.array([0, 1, 2, 3]),
        "t0": np.array([0, 10, 20, 200]),
        "t1": np.array([100, 90, 50, 260]),
        "parent": np.array([-1, 0, 1, -1]),
        "n1": np.array([7, 0, 1, 0]),
        "n2": np.zeros(4, dtype=np.int64),
    }
    table = spans.SpanTable(names, {**cols, "cell": np.zeros(4, dtype=np.int64)})
    assert np.allclose(table.self_time * 1e9, [20, 50, 30, 60])
    assert table.nearest("trainer.train").tolist() == [-1, 1, 1, -1]
    assert table.under("bench.op").tolist() == [True, True, True, False]

    rec = spans.Recorder()
    with rec.span("bench.setup"):
        pass
    with rec.span("bench.op", 7):
        with rec.span("inner"):
            pass
    assert rec.arrays()["cell"].tolist() == [-1, 7, 7]


def test_per_layer_names_match_benchmark_json(short_cell):
    _, rec = _traced_train(*short_cell)
    metrics, _ = spans.per_layer_metrics(spans.SpanTable(rec.names, rec.arrays()))
    produced = set(metrics) | {"trainer.pool_cpu_s_per_step", "trainer.pool_busy_share", "trainer.heldout_acc",
                               "trace.overhead_share"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert produced == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in metrics.items())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-cell", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
