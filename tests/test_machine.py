import os
import re
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from pego import machine, trainer, vit
from pego.errors import ShapeError
from pego.numerics import make_rng

needs_fork = pytest.mark.skipif(machine.POOL_CONTEXT is None, reason="the platform cannot fork")


def _assert_reaped(pids):
    # A reaped child is no child of this process any more. Only the pids
    # forked here are asked: another test's forkserver may outlive it.
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _item_and_pid(item):
    return item, os.getpid()


@needs_fork
def test_the_first_slice_runs_here_and_each_other_slice_in_a_child(monkeypatch, forks):
    # 10 items at 2 per worker under a budget of 3: three slices, cut at
    # 10 * w // 3, so items 0-2 run here, 3-5 and 6-9 in two children.
    monkeypatch.setattr(machine, "thread_budget", lambda: 3)
    results = machine.map_split(_item_and_pid, range(10), per_worker=2)
    assert [item for item, _ in results] == list(range(10))
    pids = [pid for _, pid in results]
    assert pids[:3] == [os.getpid()] * 3
    assert len(forks) == 2 and pids[3:6] == [forks[0]] * 3 and pids[6:] == [forks[1]] * 4
    _assert_reaped(forks)


@needs_fork
@pytest.mark.parametrize("items, per_worker, budget", [(range(15), 8, 2), (range(16), 8, 1), (range(3), 1, 1)])
def test_too_few_items_or_a_budget_of_one_run_here(monkeypatch, forks, items, per_worker, budget):
    monkeypatch.setattr(machine, "thread_budget", lambda: budget)
    assert machine.map_split(_item_and_pid, items, per_worker) == [(i, os.getpid()) for i in items]
    assert forks == []


@needs_fork
@pytest.mark.parametrize("error", [ValueError("item 7 is bad"), ShapeError("expected images of shape (batch, 16, 16)")])
def test_a_childs_exception_reaches_the_caller(monkeypatch, forks, error):
    def fn(item):
        if item == 7:
            raise error
        return item

    monkeypatch.setattr(machine, "thread_budget", lambda: 2)
    with pytest.raises(type(error), match=re.escape(str(error))) as caught:
        machine.map_split(fn, range(8), per_worker=4)
    assert type(caught.value) is type(error) and caught.value.args == error.args
    assert len(forks) == 1
    _assert_reaped(forks)


@needs_fork
def test_a_child_that_dies_without_its_results_raises(monkeypatch, forks):
    def fn(item):
        if item >= 4:  # the child's slice
            os._exit(1)
        return item

    monkeypatch.setattr(machine, "thread_budget", lambda: 2)
    with pytest.raises(ChildProcessError, match="exited without sending its results"):
        machine.map_split(fn, range(8), per_worker=4)
    _assert_reaped(forks)


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_exception_here_kills_and_reaps_the_children(monkeypatch, forks, error):
    # Each child would sleep 60 s over its three items; killed, it is
    # reaped at once.
    def fn(item):
        if item == 0:
            raise error("stop")
        time.sleep(20)
        return item

    monkeypatch.setattr(machine, "thread_budget", lambda: 3)
    t0 = time.monotonic()
    with pytest.raises(error, match="stop"):
        machine.map_split(fn, range(9), per_worker=3)
    assert time.monotonic() - t0 < 10
    assert len(forks) == 2
    _assert_reaped(forks)


def test_without_fork_a_forward_runs_here_bitwise_as_split(monkeypatch, forks):
    cfg = trainer.canonical_vit_config()
    model = vit.init_vit(cfg, make_rng(60))
    vit.inject_groups(model, rank=4, n=4, rng=make_rng(61))
    for name, arr in vit.named_arrays(model):
        if ".lora." in name:
            arr[...] = make_rng(62).normal(0, 0.2, arr.shape)
    images = make_rng(63).random((2 * vit.FORWARD_CHUNKS_PER_WORKER * vit.FORWARD_CHUNK + 3, 16, 16))
    monkeypatch.setattr(machine, "thread_budget", lambda: 2)
    split = (vit.features_batch(model, images), vit.forward_logits_batch(model, images))
    assert len(forks) == (0 if machine.POOL_CONTEXT is None else 2)
    _assert_reaped(forks)
    monkeypatch.setattr(machine, "POOL_CONTEXT", None)
    forked = len(forks)
    here = (vit.features_batch(model, images), vit.forward_logits_batch(model, images))
    assert len(forks) == forked
    for got, want in zip(here, split):
        assert np.array_equal(got, want)


# A cell, a checkpoint round trip and a split forward, then a grid, in a
# fresh interpreter: the pytest process has the pool's modules loaded.
FOOTPRINT = textwrap.dedent("""
    import sys, tempfile
    from pathlib import Path

    import numpy as np

    from pego import checkpoint, machine, trainer, vit
    from pego.data import DatasetSpec, generate_dataset
    from pego.numerics import make_rng

    LOADED_BY_A_POOL = ("numpy.ma", "multiprocessing", "concurrent.futures")
    machine.thread_budget = lambda: 2
    ds = generate_dataset(DatasetSpec(domains=4, classes=2, per_class=6, image_size=8), seed=0)
    net = vit.VitConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=1, num_heads=2, mlp_ratio=2.0, num_classes=2)
    cfg = trainer.TrainConfig(iterations=2, eval_every=1, batch_per_domain=4, group_n=2, rank=2, seed=0, vit=net)
    base = vit.init_vit(net, make_rng(99))
    trainer.run_single(ds, cfg, base, "d1", seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint.save_dataset(Path(tmp) / "ds.ckpt", ds)
        checkpoint.load_dataset(Path(tmp) / "ds.ckpt")
        checkpoint.save_model(Path(tmp) / "base.ckpt", base)
        model = checkpoint.load_model(Path(tmp) / "base.ckpt")
    chunks = 2 * vit.FORWARD_CHUNKS_PER_WORKER
    vit.forward_logits_batch(model, make_rng(5).random((chunks * vit.FORWARD_CHUNK, 8, 8)))
    serial = trainer.leave_one_domain_out(ds, cfg, [0], base=base, jobs=1)
    assert [m for m in LOADED_BY_A_POOL if m in sys.modules] == [], sys.modules.keys() & set(LOADED_BY_A_POOL)
    pooled = trainer.leave_one_domain_out(ds, cfg, [0], base=base, jobs=2)
    assert pooled.records == serial.records
    assert "multiprocessing" in sys.modules
""")


def test_only_a_pool_loads_the_pool_modules():
    # A cell, a dataset or model load and a split forward load neither
    # numpy.ma nor the process-pool stack; a 2-job grid loads
    # multiprocessing and gives the serial grid's records.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(machine.__file__))}
    ran = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, capture_output=True, text=True, timeout=120)
    assert ran.returncode == 0, ran.stderr
