"""Training loop, Adam, the pre-trained desk-scale base, and the
leave-one-domain-out, ablation, and group-size-sweep harnesses.

The protocol: freeze a pre-trained backbone, inject an adapter group
into every query and value projection, train the adapters and a fresh
head on the source domains with the regularized objective, select the
snapshot with the best training-domain validation accuracy, then merge
the adapters away. The held-out domain never contributes a sample to a
gradient step or a selection decision; every run records which domains
it actually touched so harnesses can assert that.

Independent (held-out domain, seed) runs are order-independent and can
execute in parallel processes; within one run training is sequential.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import adapters
from . import autograd as ag
from . import gradcheck, vit
from .data import DatasetSpec, DomainDataset, generate_dataset, make_batch, split_train_val
from .errors import ConfigError
from .numerics import derive_seed, make_rng
from .vit import VitConfig, VitModel


def canonical_vit_config(num_classes: int = 4) -> VitConfig:
    return VitConfig(
        image_size=16, patch_size=4, embed_dim=32, num_blocks=2, num_heads=4, mlp_ratio=4.0, num_classes=num_classes
    )


def canonical_dataset_spec() -> DatasetSpec:
    return DatasetSpec(domains=4, classes=4, per_class=100, image_size=16)


@dataclass
class TrainConfig:
    alpha: float = 1e-3
    rank: int = 4
    group_n: int = 4
    lr: float = 5e-4
    iterations: int = 500
    batch_per_domain: int = 32
    seed: int = 0
    val_fraction: float = 0.2
    eval_every: int = 50
    preserve_on: bool = True
    diversify_on: bool = True
    n_search: tuple[int, ...] = (2, 4, 6)
    vit: VitConfig = field(default_factory=canonical_vit_config)

    def validate(self) -> None:
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
        if self.batch_per_domain < 1:
            raise ConfigError(f"batch per domain must be positive, got {self.batch_per_domain}")
        if self.eval_every < 1:
            raise ConfigError(f"eval cadence must be positive, got {self.eval_every}")
        self.vit.validate()

    def to_dict(self) -> dict:
        out = asdict(self)
        out["n_search"] = list(self.n_search)
        return out

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
        if "n_search" in raw:
            raw["n_search"] = tuple(int(n) for n in raw["n_search"])
        cfg = cls(**raw)
        cfg.validate()
        return cfg


def flatten_params(params: dict[str, ag.Tensor]) -> np.ndarray:
    """Move the data of ``params`` into one new contiguous vector, laid end
    to end in dict order, and rebind each tensor's ``data`` to its view
    into it. Names, shapes and values stay as they were."""
    flat = np.concatenate([t.data.ravel() for t in params.values()])
    for t, view in zip(params.values(), gradcheck.split_flat(flat, params.values())):
        t.data = view
    return flat


@dataclass
class AdamState:
    """Adam moments for parameters laid end to end in one vector, with
    the parameters' names and sizes to name one in an error."""

    m: np.ndarray
    v: np.ndarray
    names: list[str]
    sizes: list[int]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    """Zero moments for ``params`` laid end to end in dict order."""
    sizes = [p.size for p in params.values()]
    return AdamState(m=np.zeros(sum(sizes)), v=np.zeros(sum(sizes)), names=list(params), sizes=sizes)


def adam_step(flat: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of the parameter vector ``flat``,
    applied in place; ``grad`` is laid out as ``flat``. Every operation
    is elementwise, so the result equals a per-parameter update bitwise."""
    state.t += 1
    gradcheck.check_finite_grad(grad, state.names, state.sizes, f" at step {state.t}")
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * (grad * grad)
    flat -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return flat, state


@dataclass
class HistoryRow:
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
    correct = 0
    total = 0
    for dom in domains or dataset.domains:
        preds = vit.predict_batch(model, dataset.images[dom])
        correct += int(np.sum(preds == dataset.labels[dom]))
        total += len(dataset.labels[dom])
    return correct / total


def train(base: VitModel, sources: DomainDataset, cfg: TrainConfig) -> TrainResult:
    """Inject adapter groups into a frozen base, optimize on the source
    domains, keep the best validation snapshot, and merge."""
    cfg.validate()
    model = vit.clone(base)
    vit.inject_groups(model, cfg.rank, cfg.group_n, make_rng(cfg.seed, 11))
    _reinit_head(model, make_rng(cfg.seed, 12))
    frozen_before = {
        name: np.array(t.data) for name, t in vit.named_params(model) if not vit.is_trainable_name(name)
    }
    train_ds, val_ds = split_train_val(sources, cfg.val_fraction, cfg.seed)
    params = vit.trainable_params(model)
    flat = flatten_params(params)
    state = adam_init({name: t.data for name, t in params.items()})
    batch_rng = make_rng(cfg.seed, 13)
    touched: set[str] = set()
    history: list[HistoryRow] = []
    best_acc = -1.0
    best_iter = 0
    best_flat = flat.copy()
    for it in range(1, cfg.iterations + 1):
        batch = make_batch(train_ds, cfg.batch_per_domain, batch_rng)
        touched.update(dom for dom, _ in batch.tags)
        _, grads, (ce, pres, div) = gradcheck.backward(
            model, batch, cfg.alpha, preserve_on=cfg.preserve_on, diversify_on=cfg.diversify_on
        )
        if div is None:  # a group of one module has no pair to diversify
            div = 0.0
        adam_step(flat, grads.flat, state, cfg.lr)
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
    np.copyto(flat, best_flat)
    for name, before in frozen_before.items():
        if not np.array_equal(vit.get_param(model, name).data, before):
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


def pretrain_base(
    cfg: VitConfig, seed: int, iterations: int = 300, per_class: int = 40, batch_per_domain: int = 8
) -> VitModel:
    """Desk-scale stand-in for a large pre-trained backbone.

    Briefly fine-tunes every parameter of a fresh model on a synthetic
    task drawn from a seed-derived stream disjoint from any downstream
    dataset, then freezes it. Cached per configuration; callers clone
    before mutating.
    """
    key = (cfg, seed, iterations, per_class, batch_per_domain)
    if key in _PRETRAIN_CACHE:
        return _PRETRAIN_CACHE[key]
    spec = DatasetSpec(domains=4, classes=cfg.num_classes, per_class=per_class, image_size=cfg.image_size)
    ds = generate_dataset(spec, derive_seed(seed, 91))
    model = vit.init_vit(cfg, make_rng(seed, 90))
    params = dict(vit.named_params(model))
    for t in params.values():
        t.requires_grad = True
    flat = flatten_params(params)
    state = adam_init({name: t.data for name, t in params.items()})
    rng = make_rng(seed, 92)
    for _ in range(iterations):
        batch = make_batch(ds, batch_per_domain, rng)
        for t in params.values():
            t.grad = None
        loss = vit.batch_loss_tensor(model, batch.images, batch.labels, alpha=0.0).total
        ag.backprop(loss)
        adam_step(flat, gradcheck.gather_grads(params), state, 1e-3)
    for t in params.values():
        t.grad = None
    vit.apply_trainability(model)
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
        return {
            s: float(np.mean([r.accuracy for r in self.records if r.seed == s])) for s in self.seeds
        }

    @property
    def average(self) -> float:
        return float(np.mean(list(self.per_domain_mean().values())))


def stderr(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def run_single(dataset: DomainDataset, cfg: TrainConfig, base: VitModel, test_domain: str, seed: int) -> LodoRecord:
    sources = dataset.without(test_domain)
    result = train(base, sources, replace(cfg, seed=seed))
    if test_domain in result.domains_touched:
        raise RuntimeError(f"held-out domain {test_domain} leaked into training")
    acc = evaluate(result.model, dataset, domains=[test_domain])
    return LodoRecord(
        test_domain=test_domain,
        seed=seed,
        accuracy=acc,
        selected_iter=result.selected_iter,
        history=result.history,
    )


def _run_single_task(payload):
    return run_single(*payload)


def _map_runs(task, payloads, jobs: int):
    # Runs are independent and deterministic, so the pool only changes
    # wall-clock time, never results; map preserves order.
    if jobs <= 1:
        return [task(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(task, payloads))


def leave_one_domain_out(
    dataset: DomainDataset,
    cfg: TrainConfig,
    seeds: list[int],
    base: VitModel | None = None,
    jobs: int = 1,
) -> LodoResult:
    """Hold out each domain in turn, train on the rest for every seed, and
    score the merged model on the untouched held-out domain."""
    if len(dataset.domains) < 3:
        raise ConfigError(f"leave-one-domain-out needs at least 3 domains, got {len(dataset.domains)}")
    if not seeds:
        raise ConfigError("at least one seed is required")
    if base is None:
        base = pretrain_base(cfg.vit, cfg.seed)
    payloads = [(dataset, cfg, base, dom, seed) for dom in dataset.domains for seed in seeds]
    records = _map_runs(_run_single_task, payloads, jobs)
    return LodoResult(records=records, domains=list(dataset.domains), seeds=list(seeds))


@dataclass
class AblateRow:
    label: str
    preserve_on: bool
    diversify_on: bool
    group_n: int
    mean_acc: float
    stderr: float
    per_seed: dict[int, float]


def ablate(
    dataset: DomainDataset,
    cfg: TrainConfig,
    seeds: list[int],
    base: VitModel | None = None,
    jobs: int = 1,
) -> list[AblateRow]:
    """The 2x2 penalty on/off grid at the configured group size, plus a
    single-module reference row. Means and standard errors are over the
    per-seed leave-one-domain-out averages."""
    if base is None:
        base = pretrain_base(cfg.vit, cfg.seed)
    variants = [
        ("both", True, True, cfg.group_n),
        ("preserve_only", True, False, cfg.group_n),
        ("diversify_only", False, True, cfg.group_n),
        ("none", False, False, cfg.group_n),
        ("lora", False, False, 1),
    ]
    rows = []
    for label, pres, div, n in variants:
        variant_cfg = replace(cfg, preserve_on=pres, diversify_on=div, group_n=n)
        result = leave_one_domain_out(dataset, variant_cfg, seeds, base=base, jobs=jobs)
        per_seed = result.per_seed_average()
        vals = list(per_seed.values())
        rows.append(
            AblateRow(
                label=label,
                preserve_on=pres,
                diversify_on=div,
                group_n=n,
                mean_acc=float(np.mean(vals)),
                stderr=stderr(vals),
                per_seed=per_seed,
            )
        )
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


def _sweep_task(payload):
    base, sources, cfg = payload
    return train(base, sources, cfg).best_val_acc


def sweep_n(
    dataset: DomainDataset,
    cfg: TrainConfig,
    values: tuple[int, ...] = (2, 4, 6),
    seeds: list[int] | None = None,
    base: VitModel | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Pick the group size with the best mean training-domain validation
    accuracy. Held-out test accuracy is never computed here, so the
    selection cannot leak; ties go to the smaller size."""
    if not values:
        raise ConfigError("the sweep needs at least one candidate group size")
    seeds = seeds or [cfg.seed]
    if base is None:
        base = pretrain_base(cfg.vit, cfg.seed)
    rows = []
    best_n = None
    best_acc = -1.0
    for n in sorted(values):
        payloads = [
            (base, dataset.without(dom), replace(cfg, group_n=n, seed=seed))
            for dom in dataset.domains
            for seed in seeds
        ]
        accs = _map_runs(_sweep_task, payloads, jobs)
        mean_acc = float(np.mean(accs))
        rows.append(SweepRow(n=n, mean_val_acc=mean_acc, stderr=stderr(accs)))
        if mean_acc > best_acc:
            best_acc = mean_acc
            best_n = n
    return SweepResult(best_n=best_n, rows=rows)
