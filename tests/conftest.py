"""Session-wide fixtures for the canonical toy experiment.

The leave-one-domain-out batteries are expensive (dozens of full
training runs), so they are computed once per session and shared
between the trainer checks and the acceptance suite. Their runs are
independent and deterministic, so they go through the trainer's process
pool with one worker per core; the results equal those of a serial run.
"""

import os
import time
from dataclasses import replace

import pytest

from pego import trainer
from pego.data import generate_dataset
from pego.trainer import TrainConfig, canonical_dataset_spec, canonical_vit_config

SEEDS = [0, 1, 2]


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
    payloads = [(pretrained_base, sources, replace(cfg, seed=s)) for cfg in variants.values() for s in SEEDS]
    adapted = list(trainer._map_runs(_train_adapted, payloads, jobs=os.cpu_count()))
    return {label: adapted[i * len(SEEDS) : (i + 1) * len(SEEDS)] for i, label in enumerate(variants)}


def _train_adapted(payload):
    base, sources, cfg = payload
    return trainer.train(base, sources, cfg).adapted
