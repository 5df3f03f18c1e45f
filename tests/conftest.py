"""Session-wide fixtures for the canonical toy experiment.

The leave-one-domain-out batteries are expensive (dozens of full
training runs), so they are computed once per session and shared
between the trainer checks and the acceptance suite. Their runs are
independent and deterministic, so they go through pego's process
pool with one worker per core; the results equal those of a serial run.

It also holds six plain helpers that test modules import:
``stack_group``, ``penalty_values``, ``feature_orthogonality_gap``,
``assert_independent_copy``, ``marked`` and ``traced_peak``.
"""

import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pego import adapters, machine, trainer, vit
from pego import autograd as ag
from pego.adapters import AdaptedLinear, LoraGroup, group_delta
from pego.data import generate_dataset
from pego.errors import ShapeError
from pego.trainer import TrainConfig, canonical_dataset_spec, canonical_vit_config

SEEDS = [0, 1, 2]


def stack_group(modules) -> LoraGroup:
    """The group of ``modules`` (``LoraModule``s of one shape), their A's
    and B's copied into the group's two stacks."""
    return LoraGroup(*(ag.Tensor(np.stack([getattr(m, f).data for m in modules])) for f in "ab"))


def penalty_values(target) -> tuple[float, float]:
    """The unweighted (preserve, diversify) values of an adapted layer or
    of a whole model, read from the tape ops that training reads them
    from: a layer's through ``ag.preserve_l1``/``diversify_l1``, a
    model's total through ``adapters.loss_or_tensor``."""
    if isinstance(target, AdaptedLinear):
        a, b = [target.group.a], [target.group.b]
        pres, div = ag.preserve_l1([target.base], a, b), ag.diversify_l1(a, b)
    else:
        pres, div = adapters.loss_or_tensor(target)
    return float(pres.data), float(div.data)


def assert_independent_copy(copy, source, before: dict[str, np.ndarray]) -> None:
    """``source`` still holds ``before`` (its ``vit.model_to_arrays`` taken
    ahead of the copy) bitwise, no array of ``copy`` shares memory with
    ``source``, and differentiating the trainable tensors of ``copy``
    marks exactly those of its tensors whose names are trainable and none
    of ``source``."""
    for name, arr in vit.model_to_arrays(source).items():
        assert np.array_equal(arr, before[name]), name
    with ag.differentiating(vit.trainable_params(copy).values()):
        for name, t in vit.named_params(copy):
            assert not any(np.shares_memory(t.data, s.data) for _, s in vit.named_params(source)), name
            assert t.requires_grad == vit.is_trainable_name(name), name
        assert not any(s.requires_grad for _, s in vit.named_params(source))


def marked(model) -> list[str]:
    """The names of the tensors of ``model`` that need a gradient."""
    return [name for name, t in vit.named_params(model) if t.requires_grad]


def traced_peak(fn) -> int:
    """The traced heap peak, in bytes above its start, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def feature_orthogonality_gap(layer: AdaptedLinear, z_in: np.ndarray) -> float:
    """|z_init^T z_new - z_in^T (W^T sum_i B_i A_i) z_in| for one input vector.

    Algebraically zero; a check of how tightly weight orthogonality
    transfers to feature orthogonality.
    """
    z = np.asarray(z_in, dtype=np.float64).ravel()
    w = layer.base.data
    if z.size != w.shape[1]:
        raise ShapeError(f"input length {z.size} does not match weight {w.shape}")
    delta = group_delta(layer.group) if layer.group is not None else np.zeros_like(w)
    z_init = w @ z
    z_new = delta @ z
    lhs = float(z_init @ z_new)
    rhs = float(z @ (w.T @ delta) @ z)
    return abs(lhs - rhs)


@pytest.fixture(scope="session")
def canonical_dataset():
    return generate_dataset(canonical_dataset_spec(), seed=0)


@pytest.fixture(scope="session")
def pretrained_base():
    return trainer.pretrain_base(canonical_vit_config(), seed=0)


@pytest.fixture(scope="session")
def canonical_cfg():
    return TrainConfig(batch_per_domain=8, seed=0)


@pytest.fixture(scope="session")
def pego_lodo(canonical_dataset, canonical_cfg, pretrained_base):
    """The full toy experiment, plus its wall-clock duration in seconds."""
    t0 = time.monotonic()
    result = trainer.leave_one_domain_out(
        canonical_dataset, canonical_cfg, SEEDS, base=pretrained_base, jobs=os.cpu_count()
    )
    return result, time.monotonic() - t0


@pytest.fixture(scope="session")
def baseline_lodo(canonical_dataset, canonical_cfg, pretrained_base):
    """Same runs with both penalties masked off (plain grouped adapters)."""
    cfg = replace(canonical_cfg, preserve_on=False, diversify_on=False)
    return trainer.leave_one_domain_out(canonical_dataset, cfg, SEEDS, base=pretrained_base, jobs=os.cpu_count())


@pytest.fixture(scope="session")
def rank_battery(canonical_dataset, canonical_cfg, pretrained_base):
    """Adapted (pre-merge) models per variant and seed for the
    weight-diagnostics criteria, trained with d0 held out."""
    sources = canonical_dataset.without("d0")
    variants = {
        "pego": replace(canonical_cfg, rank=2, group_n=4),
        "lora": replace(canonical_cfg, rank=2, group_n=1, alpha=0.0, preserve_on=False, diversify_on=False),
        "stress": replace(canonical_cfg, rank=2, group_n=4, alpha=1e-1),
        "plain": replace(canonical_cfg, rank=2, group_n=4, alpha=0.0),
    }
    cfgs = [replace(cfg, seed=s) for cfg in variants.values() for s in SEEDS]
    adapted = list(machine.map_runs(_train_adapted, (pretrained_base, sources), cfgs, jobs=os.cpu_count()))
    return {label: adapted[i * len(SEEDS) : (i + 1) * len(SEEDS)] for i, label in enumerate(variants)}


def _train_adapted(shared, cfg):
    base, sources = shared
    return trainer.train(base, sources, cfg).adapted
