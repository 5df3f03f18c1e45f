"""Training loop, Adam, the pre-trained desk-scale base, and the
leave-one-domain-out, ablation, and group-size-sweep harnesses.

The protocol: freeze a pre-trained backbone, inject an adapter group
into every query and value projection, train the adapters and a fresh
head on the source domains with the regularized objective, select the
snapshot with the best training-domain validation accuracy, then merge
the adapters away. The held-out domain never contributes a sample to a
gradient step or a selection decision; every run records which domains
it actually touched, and leave-one-domain-out and sweep runs share one
audit of that record.

Pretraining the base and training the adapters share one step: a batch,
its loss gradient (``gradcheck.backward``, which alone marks the
parameters for a tape), one Adam update. Each harness is one grid of
independent (variant, held-out domain, seed) runs, split over forked
processes by one ``machine.map_split`` call; a forked child inherits
the grid's dataset and base, and within one run training is sequential.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import adapters
from . import autograd as ag
from . import gradcheck, machine, vit
from .data import DatasetSpec, DomainDataset, generate_dataset, make_batch, split_train_val
from .errors import ConfigError, check_field_types
from .numerics import derive_seed, make_rng
from .vit import VitConfig, VitModel

log = logging.getLogger("pego")


def canonical_vit_config(num_classes: int = 4) -> VitConfig:
    return VitConfig(
        image_size=16, patch_size=4, embed_dim=32, num_blocks=2, num_heads=4, mlp_ratio=4.0, num_classes=num_classes
    )


def canonical_dataset_spec() -> DatasetSpec:
    return DatasetSpec(domains=4, classes=4, per_class=100, image_size=16)


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 1e-3
    rank: int = 4
    group_n: int = 4
    lr: float = 5e-4
    iterations: int = 500
    batch_per_domain: int = 8
    seed: int = 0
    val_fraction: float = 0.2
    eval_every: int = 50
    preserve_on: bool = True
    diversify_on: bool = True
    n_search: tuple[int, ...] = (2, 4, 6)
    vit: VitConfig = field(default_factory=canonical_vit_config)

    def __post_init__(self) -> None:
        check_field_types(self)
        if not isinstance(self.n_search, tuple) or not all(
            isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in self.n_search
        ):
            raise ConfigError(f"candidate group sizes must be a list of integers, got {self.n_search!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be nonnegative, got {self.alpha}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val fraction must lie strictly between 0 and 1, got {self.val_fraction}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be nonnegative, got {self.iterations}")
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if self.rank < 1 or self.group_n < 1:
            raise ConfigError(f"rank and group size must be positive, got r={self.rank}, N={self.group_n}")
        if not self.n_search or min(self.n_search) < 1 or len(set(self.n_search)) != len(self.n_search):
            raise ConfigError(f"candidate group sizes must be distinct and positive, got {list(self.n_search)}")
        if self.batch_per_domain < 1:
            raise ConfigError(f"batch per domain must be positive, got {self.batch_per_domain}")
        if self.eval_every < 1:
            raise ConfigError(f"eval cadence must be positive, got {self.eval_every}")
        if self.rank > self.vit.embed_dim:
            raise ConfigError(f"rank {self.rank} exceeds the embed dim {self.vit.embed_dim}")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        raw = dict(raw)
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "vit" in raw:
            try:
                raw["vit"] = VitConfig(**raw["vit"])
            except TypeError as exc:
                raise ConfigError(f"bad vit config: {exc}") from exc
        if isinstance(raw.get("n_search"), list):
            raw["n_search"] = tuple(raw["n_search"])
        return cls(**raw)


def flatten_params(params: dict[str, ag.Tensor]) -> np.ndarray:
    """Move the data of ``params`` into one new contiguous vector, laid end
    to end in dict order, and rebind each tensor's ``data`` to its view
    into it. Names, shapes and values stay as they were."""
    flat = np.concatenate([t.data.ravel() for t in params.values()])
    start = 0
    for t in params.values():
        stop = start + t.data.size
        t.data = flat[start:stop].reshape(t.data.shape)
        start = stop
    return flat


# Adam's moment decay rates and the term that keeps its step finite.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments for parameters laid end to end in one vector, and
    the number of steps taken."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(size: int) -> AdamState:
    """Zero moments for a parameter vector of ``size`` entries."""
    return AdamState(m=np.zeros(size), v=np.zeros(size))


def adam_step(flat: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of the parameter vector ``flat``,
    applied in place; ``grad`` is laid out as ``flat`` and is finite, as
    ``gradcheck.backward`` checks. Every operation is elementwise, so
    the result equals a per-parameter update bitwise."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grad * grad)
    flat -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def _steps(model, params, data, batch_per_domain, rng, lr, alpha=0.0, preserve_on=True, diversify_on=True):
    """Endless Adam steps on ``params`` of ``model``: each draws a batch of ``data``,
    updates by the loss gradient and yields the flat parameter vector, the batch and the loss parts."""
    flat = flatten_params(params)
    state = adam_init(flat.size)
    while True:
        batch = make_batch(data, batch_per_domain, rng)
        _, grad, parts = gradcheck.backward(model, batch, alpha, params, preserve_on, diversify_on)
        adam_step(flat, grad, state, lr)
        yield flat, batch, parts


@dataclass
class HistoryRow:
    """One training iteration. ``loss_cls`` (the batch cross-entropy)
    and the unweighted penalties describe the parameters the step's
    gradient was taken at, before its Adam update. ``val_acc``, set on
    validation iterations only, is the accuracy after that update: the
    parameters that selecting this iteration keeps."""

    iteration: int
    loss_cls: float
    loss_preserve: float
    loss_diversify: float
    loss_or: float
    val_acc: float | None = None


@dataclass
class TrainResult:
    model: VitModel  # merged, adapter-free
    adapted: VitModel  # best snapshot with its adapter group intact
    history: list[HistoryRow]
    selected_iter: int
    best_val_acc: float
    domains_touched: set[str]


def evaluate(model: VitModel, dataset: DomainDataset, domains: list[str] | None = None) -> float:
    """Accuracy of ``model`` over every image of ``domains`` (all of the
    dataset's domains when None), each image weighted equally.

    The domains' images go through one no-grad forward, read in place as
    a list of arrays, so no copy of them is made and a pass over several
    small domains still fills whole chunks; a logit does not
    depend on the images it is computed beside. An empty ``domains``, or
    one naming a domain the dataset lacks, raises ``ConfigError``.
    """
    if domains is None:
        domains = dataset.domains
    if not domains:
        raise ConfigError("evaluate needs at least one domain")
    unknown = [d for d in domains if d not in dataset.domains]
    if unknown:
        raise ConfigError(f"unknown domain {unknown[0]}: the dataset has {dataset.domains}")
    images = [dataset.images[d] for d in domains]
    labels = np.concatenate([dataset.labels[d] for d in domains])
    return int(np.sum(vit.predict_batch(model, images) == labels)) / len(labels)


def train(base: VitModel, sources: DomainDataset, cfg: TrainConfig) -> TrainResult:
    """Inject adapter groups into a frozen base, optimize on the source
    domains, keep the best validation snapshot, and merge."""
    model = vit.clone(base)
    vit.inject_groups(model, cfg.rank, cfg.group_n, make_rng(cfg.seed, 11))
    _reinit_head(model, make_rng(cfg.seed, 12))
    train_ds, val_ds = split_train_val(sources, cfg.val_fraction, cfg.seed)
    steps = _steps(model, vit.trainable_params(model), train_ds, cfg.batch_per_domain, make_rng(cfg.seed, 13), cfg.lr,
                   cfg.alpha, cfg.preserve_on, cfg.diversify_on)
    touched: set[str] = set()
    history: list[HistoryRow] = []
    best_acc = -1.0
    best_iter = 0
    for it, (flat, batch, (ce, pres, div)) in zip(range(1, cfg.iterations + 1), steps):
        touched.update(dom for dom, _ in batch.tags)
        row = HistoryRow(iteration=it, loss_cls=ce, loss_preserve=pres, loss_diversify=div, loss_or=pres + div)
        if it % cfg.eval_every == 0 or it == cfg.iterations:
            acc = evaluate(model, val_ds)
            touched.update(val_ds.domains)
            row.val_acc = acc
            if acc > best_acc:
                best_acc = acc
                best_iter = it
                best_flat = flat.copy()
        history.append(row)
    if cfg.iterations == 0:
        best_acc = evaluate(model, val_ds)
        touched.update(val_ds.domains)
    else:  # the last iteration validates, so a snapshot was kept
        np.copyto(flat, best_flat)
    cloned_from = dict(vit.named_params(base))
    for name, t in vit.named_params(model):
        if not vit.is_trainable_name(name) and not np.array_equal(t.data, cloned_from[name].data):
            raise RuntimeError(f"frozen parameter {name} changed during training")
    return TrainResult(
        model=adapters.merge_all(model),
        adapted=model,
        history=history,
        selected_iter=best_iter,
        best_val_acc=best_acc,
        domains_touched=touched,
    )


def _reinit_head(model: VitModel, rng: np.random.Generator) -> None:
    # The classifier is trained from scratch alongside the adapters.
    model.head_w.data[...] = rng.normal(0.0, 0.02, model.head_w.data.shape)
    model.head_b.data[...] = 0.0


_PRETRAIN_CACHE: dict[tuple, VitModel] = {}
# The pretraining task: samples per class and domain of its dataset, and
# images per domain in one of its batches.
PRETRAIN_PER_CLASS = 40
PRETRAIN_BATCH_PER_DOMAIN = 8


def pretrain_base(cfg: VitConfig, seed: int, iterations: int = 300) -> VitModel:
    """Desk-scale stand-in for a large pre-trained backbone.

    Briefly fine-tunes every parameter of a fresh model but the key
    biases on a synthetic task drawn from a seed-derived stream disjoint
    from any downstream dataset; a run on it then trains only the adapters
    and head it adds (``vit.trainable_params``). A key bias shifts all
    scores of a query by the same amount, which softmax ignores, so its
    gradient is only rounding noise; it stays at zero. Cached per
    configuration; callers clone before mutating.
    """
    key = (cfg, seed, iterations)
    if key in _PRETRAIN_CACHE:
        return _PRETRAIN_CACHE[key]
    spec = DatasetSpec(domains=4, classes=cfg.num_classes, per_class=PRETRAIN_PER_CLASS, image_size=cfg.image_size)
    ds = generate_dataset(spec, derive_seed(seed, 91))
    model = vit.init_vit(cfg, make_rng(seed, 90))
    params = {name: t for name, t in vit.named_params(model) if not name.endswith(".attn.wk.bias")}
    for _ in zip(range(iterations), _steps(model, params, ds, PRETRAIN_BATCH_PER_DOMAIN, make_rng(seed, 92), 1e-3)):
        pass
    _PRETRAIN_CACHE[key] = model
    return model


@dataclass
class LodoRecord:
    test_domain: str
    seed: int
    accuracy: float
    selected_iter: int
    history: list[HistoryRow]


@dataclass
class LodoResult:
    records: list[LodoRecord]
    domains: list[str]
    seeds: list[int]

    def domain_accuracies(self, domain: str) -> list[float]:
        return [r.accuracy for r in self.records if r.test_domain == domain]

    def per_domain_mean(self) -> dict[str, float]:
        return {d: float(np.mean(self.domain_accuracies(d))) for d in self.domains}

    def per_domain_stderr(self) -> dict[str, float]:
        return {d: stderr(self.domain_accuracies(d)) for d in self.domains}

    def per_seed_average(self) -> dict[int, float]:
        return {s: float(np.mean([r.accuracy for r in self.records if r.seed == s])) for s in self.seeds}

    @property
    def average(self) -> float:
        return float(np.mean(list(self.per_domain_mean().values())))


def stderr(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def _train_without(
    dataset: DomainDataset, cfg: TrainConfig, base: VitModel, test_domain: str, seed: int
) -> TrainResult:
    """Train on every domain of ``dataset`` but ``test_domain``; raise if the run touched it anyway."""
    result = train(base, dataset.without(test_domain), replace(cfg, seed=seed))
    if test_domain in result.domains_touched:
        raise RuntimeError(f"held-out domain {test_domain} leaked into training")
    return result


def run_single(dataset: DomainDataset, cfg: TrainConfig, base: VitModel, test_domain: str, seed: int) -> LodoRecord:
    result = _train_without(dataset, cfg, base, test_domain, seed)
    acc = evaluate(result.model, dataset, domains=[test_domain])
    return LodoRecord(test_domain, seed, acc, result.selected_iter, result.history)


def check_grid(dataset: DomainDataset, seeds: list[int]) -> None:
    """Raise ``ConfigError`` unless ``dataset`` and ``seeds`` make a
    leave-one-domain-out grid: at least 3 domains and one seed."""
    if len(dataset.domains) < 3:
        raise ConfigError(f"leave-one-domain-out needs at least 3 domains, got {len(dataset.domains)}")
    if not seeds:
        raise ConfigError("at least one seed is required")


def _run_grid(name: str, task, dataset: DomainDataset, variants, seeds: list[int], base: VitModel, jobs: int):
    """Run ``task(dataset, config, base, held-out domain, seed)`` for each
    run of the (label, config) ``variants`` in one ``machine.map_split``
    call over ``machine.pool_workers(jobs, runs)`` processes; return one
    output list per variant, in run order. The runs are dealt round-robin
    before the split cuts them into contiguous shares, so each share
    holds every variant alike. Each run logs its progress line, with the
    wall and CPU seconds it took, in the process that ran it, as it
    finishes. A forked child inherits ``task`` as the caller passed it:
    ``run_single`` as bound in this module when the grid started, a
    wrapper too, which pickle could not send."""
    check_grid(dataset, seeds)
    payloads = [(label, cfg, dom, seed) for label, cfg in variants for dom in dataset.domains for seed in seeds]

    def run(k):
        label, cfg, dom, seed = payloads[k]
        t0, c0 = time.perf_counter(), time.process_time()
        out = task(dataset, cfg, base, dom, seed)
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
        score = f"acc={out.accuracy:.4f}" if isinstance(out, LodoRecord) else f"val_acc={out:.4f}"
        what = " ".join(filter(None, (label, dom, f"seed={seed}", score)))
        log.info("[%s %d/%d] %s %.1fs cpu=%.1fs", name, k + 1, len(payloads), what, seconds, cpu)
        return out

    workers = machine.pool_workers(jobs, len(payloads))
    dealt = sorted(range(len(payloads)), key=lambda k: k % workers)
    outputs = [None] * len(payloads)
    for k, out in zip(dealt, machine.map_split(run, dealt, workers)):
        outputs[k] = out
    runs = len(dataset.domains) * len(seeds)
    return [outputs[i : i + runs] for i in range(0, len(outputs), runs)]


def leave_one_domain_out(
    dataset: DomainDataset, cfg: TrainConfig, seeds: list[int], base: VitModel, jobs: int = 1
) -> LodoResult:
    """Hold out each domain in turn, train on the rest for every seed, and
    score the merged model on the untouched held-out domain."""
    (records,) = _run_grid("lodo", run_single, dataset, [("", cfg)], seeds, base, jobs)
    return LodoResult(records=records, domains=list(dataset.domains), seeds=list(seeds))


@dataclass
class AblateRow:
    label: str
    preserve_on: bool
    diversify_on: bool
    group_n: int
    mean_acc: float
    stderr: float


def ablate(
    dataset: DomainDataset, cfg: TrainConfig, seeds: list[int], base: VitModel, jobs: int = 1
) -> list[AblateRow]:
    """The 2x2 penalty on/off grid at the configured group size, plus a
    single-module reference row. Means and standard errors are over the
    per-seed leave-one-domain-out averages."""
    variants = [
        ("both", replace(cfg, preserve_on=True, diversify_on=True)),
        ("preserve_only", replace(cfg, preserve_on=True, diversify_on=False)),
        ("diversify_only", replace(cfg, preserve_on=False, diversify_on=True)),
        ("none", replace(cfg, preserve_on=False, diversify_on=False)),
        ("lora", replace(cfg, preserve_on=False, diversify_on=False, group_n=1)),
    ]
    grouped = _run_grid("ablate", run_single, dataset, variants, seeds, base, jobs)
    rows = []
    for (label, v), records in zip(variants, grouped):
        accs = list(LodoResult(records, list(dataset.domains), list(seeds)).per_seed_average().values())
        rows.append(AblateRow(label, v.preserve_on, v.diversify_on, v.group_n, float(np.mean(accs)), stderr(accs)))
    return rows


@dataclass
class SweepRow:
    n: int
    mean_val_acc: float
    stderr: float


@dataclass
class SweepResult:
    best_n: int
    rows: list[SweepRow]


def _sweep_task(*run) -> float:
    # Scores only the source domains' validation split, never the held-out domain.
    return _train_without(*run).best_val_acc


def sweep_n(dataset: DomainDataset, cfg: TrainConfig, seeds: list[int], base: VitModel, jobs: int = 1) -> SweepResult:
    """Pick the group size in ``cfg.n_search`` with the best mean
    training-domain validation accuracy. Held-out test accuracy is never
    computed here, so the selection cannot leak; ties go to the smaller
    size."""
    variants = [(f"n={n}", replace(cfg, group_n=n)) for n in sorted(cfg.n_search)]
    rows = [
        SweepRow(n=v.group_n, mean_val_acc=float(np.mean(accs)), stderr=stderr(accs))
        for (_, v), accs in zip(variants, _run_grid("sweep", _sweep_task, dataset, variants, seeds, base, jobs))
    ]
    # max keeps the first of equal means, and the rows run from the smallest size up
    return SweepResult(best_n=max(rows, key=lambda r: r.mean_val_acc).n, rows=rows)
