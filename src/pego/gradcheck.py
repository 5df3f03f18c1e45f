"""Analytic gradients of the training objective and the central-difference
oracle that audits them.

``backward`` differentiates the full objective with respect to every
trainable parameter (the adapter pairs and the head) and nothing else.
``grad_check`` compares those gradients against central differences of
the forward-only loss at randomly probed entries, skipping probes where
an L1 penalty argument sits close enough to zero that the subgradient
choice is ambiguous.
"""

from __future__ import annotations

import numpy as np

from . import adapters, vit
from . import autograd as ag
from .adapters import final_loss
from .errors import ConfigError, InconclusiveCheckError, InputError, NumericError
from .numerics import make_rng
from .vit import VitModel, batch_loss_tensor, is_trainable_name, named_params

# (cross-entropy, preserve, diversify) as the tape computed them, masked
# penalties included; a penalty is None only when no layer carries a
# group (for diversify, a group of two or more modules).
LossParts = tuple[float, float | None, float | None]


def split_flat(flat: np.ndarray, tensors) -> list[np.ndarray]:
    """Views into ``flat`` shaped like ``tensors``, laid end to end in order."""
    views = []
    start = 0
    for t in tensors:
        stop = start + t.data.size
        views.append(flat[start:stop].reshape(t.data.shape))
        start = stop
    return views


def check_finite_grad(flat: np.ndarray, names, sizes, context: str = "") -> None:
    """Raise ``NumericError`` naming the parameter that holds the first
    non-finite entry of ``flat``, where parameters ``names`` of ``sizes``
    entries lie end to end."""
    finite = np.isfinite(flat)
    if not finite.all():
        bad = names[int(np.searchsorted(np.cumsum(sizes), int(np.argmin(finite)), side="right"))]
        raise NumericError(f"non-finite gradient for parameter {bad}{context}")


def gather_grads(params: dict[str, ag.Tensor]) -> np.ndarray:
    """The gradients of ``params`` in one vector, laid end to end in dict
    order and zero where backprop left none, after a non-finite check."""
    flat = np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.ravel() for t in params.values()])
    check_finite_grad(flat, list(params), [t.data.size for t in params.values()])
    return flat


class GradientSet(dict):
    """Gradients by parameter name, each a view into ``flat``, the one
    vector that holds them end to end in ``vit.trainable_params`` order."""

    def __init__(self, flat: np.ndarray, params: dict[str, ag.Tensor]):
        super().__init__(zip(params, split_flat(flat, params.values())))
        self.flat = flat


def backward(
    model: VitModel,
    batch,
    alpha: float,
    preserve_on: bool = True,
    diversify_on: bool = True,
) -> tuple[float, GradientSet, LossParts]:
    """Loss value, exact gradients for every trainable parameter, and the
    parts of the loss read off the same tape.

    The loss equals the forward-only objective bitwise, since both walk
    the same tape. Gradients of the L1 terms use sign(x) with
    sign(0) = 0.
    """
    if len(batch.labels) == 0:
        raise InputError("empty batch")
    for _, t in named_params(model):
        t.grad = None
    terms = batch_loss_tensor(
        model, batch.images, batch.labels, alpha, preserve_on=preserve_on, diversify_on=diversify_on
    )
    ag.backprop(terms.total)
    params = vit.trainable_params(model)
    grads = GradientSet(gather_grads(params), params)
    for _, t in named_params(model):
        t.grad = None
    parts = tuple(None if t is None else float(t.data) for t in (terms.ce, terms.preserve, terms.diversify))
    return float(terms.total.data), grads, parts


def central_diff(f, x: float, h: float) -> float:
    """(f(x + h) - f(x - h)) / (2 h)."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def finite_diff(model: VitModel, batch, alpha: float, name: str, entry: int, h: float) -> float:
    """Central difference of the objective along one parameter entry."""
    if h <= 0:
        raise ConfigError(f"step size must be positive, got {h}")
    if not is_trainable_name(name):
        raise ConfigError(f"parameter {name} is frozen; no gradient is defined for it")
    flat = vit.get_param(model, name).data.reshape(-1)
    saved = float(flat[entry])

    def f(p):
        flat[entry] = p
        return final_loss(model, batch, alpha)

    try:
        return central_diff(f, saved, h)
    finally:
        flat[entry] = saved


def _ambiguity_floor(model: VitModel) -> dict[str, float]:
    """Smallest |entry| of any L1 argument each adapter parameter feeds."""
    layers = adapters.adapted_layers(model)
    if not layers:
        return {}
    a, b = (np.stack(f) for f in zip(*(lin.group.stacked() for _, lin in layers)))
    w = np.stack([lin.base.data for _, lin in layers])
    low = np.abs(ag.penalty_args(a, b, w)[1]).min(axis=(2, 3))
    pair_low = np.abs(ag.penalty_args(a, b)[1]).min(axis=(2, 3))
    i, j = np.triu_indices(a.shape[1], 1)
    np.minimum.at(low.T, i, pair_low.T)
    np.minimum.at(low.T, j, pair_low.T)
    floors: dict[str, float] = {}
    for (prefix, _), layer_low in zip(layers, low):
        for m, floor in enumerate(layer_low):
            floors[f"{prefix}.lora.{m}.A"] = float(floor)
            floors[f"{prefix}.lora.{m}.B"] = float(floor)
    return floors


def grad_check(
    model: VitModel,
    batch,
    alpha: float,
    samples: int,
    rng: np.random.Generator,
    ambiguity_tol: float = 1e-6,
) -> float:
    """Max relative error between analytic and central-difference gradients
    over randomly probed trainable entries.

    Probes whose L1 arguments contain an entry below ``ambiguity_tol`` in
    magnitude are skipped; if fewer than half the probes survive, the
    check is inconclusive.
    """
    if samples < 1:
        raise ConfigError(f"need at least one probe, got {samples}")
    names, tensors = zip(*vit.trainable_params(model).items())
    sizes = np.array([t.data.size for t in tensors])
    offsets = np.cumsum(sizes)
    total = int(offsets[-1])
    _, grads, _ = backward(model, batch, alpha)
    floors = _ambiguity_floor(model) if alpha != 0.0 else {}
    max_rel = 0.0
    accepted = 0
    for _ in range(samples):
        flat_idx = int(rng.integers(0, total))
        idx = int(np.searchsorted(offsets, flat_idx, side="right"))
        name = names[idx]
        entry = flat_idx - (int(offsets[idx - 1]) if idx > 0 else 0)
        if floors.get(name, np.inf) < ambiguity_tol:
            continue
        accepted += 1
        p0 = float(tensors[idx].data.reshape(-1)[entry])
        h = 1e-5 * max(1.0, abs(p0))
        numeric = finite_diff(model, batch, alpha, name, entry, h)
        analytic = float(grads[name].reshape(-1)[entry])
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        max_rel = max(max_rel, rel)
    if accepted < samples / 2:
        raise InconclusiveCheckError(f"only {accepted} of {samples} probes were unambiguous")
    return max_rel


def make_probe_model(seed: int):
    """The canonical small model and batch used for gradient auditing.

    Two heads on an 8-dim single-block transformer with a two-module
    rank-2 group per adapted projection. Weights are re-drawn at a
    healthy scale (std 0.4) so activations and penalty arguments sit
    far from the L1 kinks and no gradient is vanishingly small.
    """
    from .data import Batch

    cfg = vit.VitConfig(
        image_size=8, patch_size=4, embed_dim=8, num_blocks=1, num_heads=2, mlp_ratio=2.0, num_classes=2
    )
    model = vit.init_vit(cfg, make_rng(seed, 0))
    vit.inject_groups(model, rank=2, n=2, rng=make_rng(seed, 1))
    rng = make_rng(seed, 2)
    for name, t in named_params(model):
        if name.endswith(".scale"):
            t.data[...] = 1.0 + 0.1 * rng.normal(0.0, 1.0, t.data.shape)
        elif name.endswith(".offset"):
            t.data[...] = 0.1 * rng.normal(0.0, 1.0, t.data.shape)
        else:
            t.data[...] = rng.normal(0.0, 0.4, t.data.shape)
    images = make_rng(seed, 3).random((4, 8, 8))
    labels = make_rng(seed, 4).integers(0, cfg.num_classes, 4)
    return model, Batch(images=images, labels=labels, tags=[("probe", i) for i in range(4)])
