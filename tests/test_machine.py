import os
import pickle
import re
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from pego import autograd as ag
from pego import machine, trainer, vit
from pego.errors import ShapeError
from pego.numerics import make_rng

needs_fork = pytest.mark.skipif(not machine.CAN_FORK, reason="the platform cannot fork")


def _assert_reaped(pids):
    # A reaped child is no child of this process any more. Only the pids
    # forked here are asked.
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _item_and_pid(item):
    return item, os.getpid()


@needs_fork
def test_the_first_slice_runs_here_and_each_other_slice_in_a_child(forks):
    # 10 items in 3 workers: three shares, cut at 10 * w // 3, so items
    # 0-2 run here, 3-5 and 6-9 in two children.
    results = machine.map_split(_item_and_pid, range(10), workers=3)
    assert [item for item, _ in results] == list(range(10))
    pids = [pid for _, pid in results]
    assert pids[:3] == [os.getpid()] * 3
    assert len(forks) == 2 and pids[3:6] == [forks[0]] * 3 and pids[6:] == [forks[1]] * 4
    _assert_reaped(forks)


@needs_fork
@pytest.mark.parametrize("items, per_worker, budget", [(range(15), 8, 2), (range(16), 8, 1), (range(3), 1, 1)])
def test_too_few_items_or_a_budget_of_one_run_here(monkeypatch, forks, items, per_worker, budget):
    # A forward of len(items) chunks at per_worker chunks per worker
    # under a budget asks for min(budget, chunks // per_worker) workers,
    # here one or none: every chunk runs in this process.
    monkeypatch.setattr(machine, "thread_budget", lambda: budget)
    monkeypatch.setattr(vit, "FORWARD_CHUNKS_PER_WORKER", per_worker)
    pids = []

    def forward(m, x):
        pids.append(os.getpid())
        return ag.Tensor(np.zeros((len(x), 1)))

    images = np.zeros((len(items) * vit.FORWARD_CHUNK, 16, 16))
    vit._no_grad_chunks(forward, vit.init_vit(trainer.canonical_vit_config(), make_rng(64)), images)
    assert pids == [os.getpid()] * len(items) and forks == []


@needs_fork
@pytest.mark.parametrize("error", [ValueError("item 7 is bad"), ShapeError("expected images of shape (batch, 16, 16)")])
def test_a_childs_exception_reaches_the_caller(forks, error):
    def fn(item):
        if item == 7:
            raise error
        return item

    with pytest.raises(type(error), match=re.escape(str(error))) as caught:
        machine.map_split(fn, range(8), workers=2)
    assert type(caught.value) is type(error) and caught.value.args == error.args
    assert len(forks) == 1
    _assert_reaped(forks)


@needs_fork
def test_a_child_that_dies_without_its_results_raises(forks):
    def fn(item):
        if item >= 4:  # the child's slice
            os._exit(1)
        return item

    with pytest.raises(ChildProcessError, match="exited without sending its results"):
        machine.map_split(fn, range(8), workers=2)
    _assert_reaped(forks)


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_exception_here_kills_and_reaps_the_children(forks, error):
    # Each child would sleep 60 s over its three items; killed, it is
    # reaped at once.
    def fn(item):
        if item == 0:
            raise error("stop")
        time.sleep(20)
        return item

    t0 = time.monotonic()
    with pytest.raises(error, match="stop"):
        machine.map_split(fn, range(9), workers=3)
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
    assert len(forks) == (2 if machine.CAN_FORK else 0)
    _assert_reaped(forks)
    monkeypatch.setattr(machine, "CAN_FORK", False)
    forked = len(forks)
    here = (vit.features_batch(model, images), vit.forward_logits_batch(model, images))
    assert len(forks) == forked
    for got, want in zip(here, split):
        assert np.array_equal(got, want)


def _unpicklable(item):
    return lambda: item


@needs_fork
def test_a_result_that_cannot_be_pickled_raises_its_pickling_error(forks):
    # The child's share computes, then fails to pickle its results: that
    # error, not a lost reply, reaches the caller.
    with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
        machine.map_split(_unpicklable, range(16), workers=2)
    assert len(forks) == 1
    _assert_reaped(forks)


def _budget_and_pid(item):
    return item, machine.thread_budget(), os.getpid()


@needs_fork
def test_every_share_has_a_budget_of_one(monkeypatch, forks):
    # Outside a share the budget is the CPUs (4 here); in each of three
    # shares, this process's included, it is 1.
    monkeypatch.setattr(machine, "cores", lambda: 4)
    monkeypatch.delenv("PEGO_THREADS", raising=False)
    results = machine.map_split(_budget_and_pid, range(6), workers=3)
    assert [item for item, _, _ in results] == list(range(6))
    assert [budget for _, budget, _ in results] == [1] * 6
    assert [pid for _, _, pid in results] == [os.getpid()] * 2 + [forks[0]] * 2 + [forks[1]] * 2
    assert machine.thread_budget() == 4
    _assert_reaped(forks)


def _nested_split(item):
    # A split asked for inside a share, by the budget or by a count.
    return [machine.map_split(_item_and_pid, range(4), workers) for workers in (machine.thread_budget(), 3)]


@needs_fork
def test_a_split_inside_a_share_runs_in_that_share(monkeypatch, forks):
    monkeypatch.setattr(machine, "cores", lambda: 4)
    monkeypatch.delenv("PEGO_THREADS", raising=False)
    here, there = machine.map_split(_nested_split, range(2), workers=2)
    assert here == [[(i, os.getpid()) for i in range(4)]] * 2
    assert there == [[(i, forks[0]) for i in range(4)]] * 2
    assert len(forks) == 1
    _assert_reaped(forks)


@needs_fork
def test_the_budget_is_back_after_a_split_raises(monkeypatch, forks):
    def fn(item):
        assert machine.thread_budget() == 1
        raise ValueError("stop")

    monkeypatch.setattr(machine, "cores", lambda: 4)
    monkeypatch.delenv("PEGO_THREADS", raising=False)
    with pytest.raises(ValueError, match="stop"):
        machine.map_split(fn, range(4), workers=2)
    assert machine.thread_budget() == 4
    assert machine.map_split(_item_and_pid, range(4), workers=2)[2:] == [(2, forks[1]), (3, forks[1])]
    _assert_reaped(forks)


# A cell, a checkpoint round trip, a split forward and a 2-job grid in a
# fresh interpreter: the pytest process may have loaded the modules
# asked about through another package.
FOOTPRINT = textwrap.dedent("""
    import sys, tempfile
    from pathlib import Path

    import numpy as np

    from pego import checkpoint, machine, trainer, vit
    from pego.data import DatasetSpec, generate_dataset
    from pego.numerics import make_rng

    UNUSED = ("numpy.ma", "multiprocessing", "concurrent.futures")
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
    split = trainer.leave_one_domain_out(ds, cfg, [0], base=base, jobs=2)
    assert split.records == serial.records
    assert [m for m in UNUSED if m in sys.modules] == [], sys.modules.keys() & set(UNUSED)
""")


def test_only_a_pool_loads_the_pool_modules():
    # No path loads numpy.ma or the process-pool stack (multiprocessing,
    # concurrent.futures): not a cell, a dataset or model load, a split
    # forward, nor a 2-job grid, which gives the serial grid's records.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(machine.__file__))}
    ran = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, capture_output=True, text=True, timeout=120)
    assert ran.returncode == 0, ran.stderr
