"""Analytic gradients of the training objective and the central-difference
oracle that audits them.

``backward`` differentiates the full objective with respect to the
parameters it is handed (in training, the adapter pairs and the head;
while pretraining the base, every parameter but the key biases) and
nothing else, and returns the gradient as one vector, the layout of the
flat parameter buffer the optimizer steps; the vector is
``autograd.backprop``'s return value. The parameters need a gradient
only inside its ``autograd.differentiating`` block, so no other forward
records a tape. ``grad_check`` compares those gradients against central
differences of the forward-only loss at randomly probed entries. It
reads the penalties' L1 arguments per probe: a probe that moves one
close enough to zero that the subgradient choice is ambiguous is
skipped, and any other steps short of the nearest kink among those it
moves.
"""

from __future__ import annotations

import numpy as np

from . import adapters, vit
from . import autograd as ag
from .data import Batch
from .errors import ConfigError, InconclusiveCheckError, InputError, NumericError
from .numerics import make_rng
from .vit import VitModel, batch_loss_tensor, is_trainable_name, named_arrays

# (cross-entropy, preserve, diversify) as the tape computed them, masked
# penalties included; a penalty is None only for a model without groups.
LossParts = tuple[float, float | None, float | None]

# A probe that moves an L1 argument smaller than this in magnitude sits
# too close to a kink for a central difference to audit.
AMBIGUITY_TOL = 1e-6

# A probe's step, times max(1, |entry|), where no kink is nearer. A central
# difference errs by O(h^2) and by O(u/h) from rounding (Nocedal and
# Wright, Numerical Optimization, 8.1); with the h^2 term cancelled, a long
# step keeps both small, where neither 1e-5 nor 1e-4 alone served all seeds.
FD_STEP = 1e-3


def _locate(params: dict[str, ag.Tensor], flat_idx: int) -> tuple[str, int]:
    """The name of the parameter that holds entry ``flat_idx`` of the flat
    layout of ``params``, and the entry's index within it."""
    ends = np.cumsum([t.data.size for t in params.values()])
    idx = int(np.searchsorted(ends, flat_idx, side="right"))
    return list(params)[idx], flat_idx - (int(ends[idx - 1]) if idx else 0)


def check_finite(params: dict[str, ag.Tensor], grad: np.ndarray) -> None:
    """Raise ``NumericError`` naming the first parameter whose block of the
    flat gradient ``grad`` holds a non-finite entry."""
    finite = np.isfinite(grad)
    if not finite.all():
        raise NumericError(f"non-finite gradient for parameter {_locate(params, int(np.argmin(finite)))[0]}")


def backward(
    model: VitModel,
    batch,
    alpha: float,
    params: dict[str, ag.Tensor],
    preserve_on: bool,
    diversify_on: bool,
) -> tuple[float, np.ndarray, LossParts]:
    """Loss value, the exact gradient with respect to ``params`` as one
    vector laid out like ``trainer.flatten_params`` lays out their data,
    and the parts of the loss read off the same tape.

    The loss equals the forward-only objective bitwise, since both walk
    the same tape. Gradients of the L1 terms use sign(x) with
    sign(0) = 0. A non-finite gradient entry raises ``NumericError``.
    """
    if len(batch.labels) == 0:
        raise InputError("empty batch")
    with ag.differentiating(params.values()):
        terms = batch_loss_tensor(
            model, batch.images, batch.labels, alpha, preserve_on=preserve_on, diversify_on=diversify_on
        )
        grad = ag.backprop(terms.total, params.values())
        check_finite(params, grad)
    parts = tuple(None if t is None else float(t.data) for t in (terms.ce, terms.preserve, terms.diversify))
    return float(terms.total.data), grad, parts


def central_diff(f, x: float, h: float) -> float:
    """(f(x + h) - f(x - h)) / (2 h)."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def finite_diff(model: VitModel, batch, alpha: float, name: str, entry: int, h: float) -> float:
    """Central difference of the objective along one parameter entry."""
    if h <= 0:
        raise ConfigError(f"step size must be positive, got {h}")
    if not is_trainable_name(name):
        raise ConfigError(f"parameter {name} is frozen; no gradient is defined for it")
    flat = vit.trainable_params(model)[name].data.reshape(-1)
    saved = float(flat[entry])

    def f(p):
        flat[entry] = p
        return float(batch_loss_tensor(model, batch.images, batch.labels, alpha).total.data)

    try:
        return central_diff(f, saved, h)
    finally:
        flat[entry] = saved


def _kink_reading(layers, flat: np.ndarray, entry: int) -> tuple[float, float]:
    """Among the L1 arguments of both penalties over the adapted
    ``layers`` that entry ``entry`` of ``flat``, an adapter factor stack's
    data, moves: the smallest |value|, and how far the entry can move
    before one of them changes sign (both inf if it moves none). Each
    argument is affine in any one factor entry, so its value after a unit
    step gives its slope; within that distance the penalties are linear in
    the entry."""
    w, saved = np.stack([lin.base.data for lin in layers]), flat[entry]

    def args():
        a, b = (ag._stack_factors([getattr(lin.group, f) for lin in layers]) for f in "ab")
        return np.concatenate([ag._preserve_args(w, a, b)[0].ravel(), ag._diversify_args(a, b)[0].ravel()])

    at = args()
    flat[entry] = saved + 1.0
    try:
        slope = args() - at
    finally:
        flat[entry] = saved
    at, slope = at[slope != 0.0], slope[slope != 0.0]
    return float(np.min(np.abs(at), initial=np.inf)), float(np.min(np.abs(at / slope), initial=np.inf))


def grad_check(
    model: VitModel,
    batch,
    alpha: float,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Max relative error between analytic and central-difference gradients
    over randomly probed trainable entries.

    Probes that move an L1 argument below ``AMBIGUITY_TOL`` in magnitude
    are skipped; if fewer than half the probes survive, the check is
    inconclusive. Each probe's numeric gradient is Richardson's
    ``(4 D(h/2) - D(h)) / 3`` of central differences ``D``, with ``h``
    ``FD_STEP`` times max(1, |entry|), or half the entry's distance to the
    nearest kink of the penalties when that is shorter, so that no step
    crosses one.
    """
    if samples < 1:
        raise ConfigError(f"need at least one probe, got {samples}")
    params = vit.trainable_params(model)
    _, grad, _ = backward(model, batch, alpha, params, True, True)
    layers = adapters.adapted_layers(model) if alpha != 0.0 else []
    factors = {t for lin in layers for t in (lin.group.a, lin.group.b)}
    max_rel = 0.0
    accepted = 0
    for _ in range(samples):
        flat_idx = int(rng.integers(0, grad.size))
        name, entry = _locate(params, flat_idx)
        flat = params[name].data.reshape(-1)
        h = FD_STEP * max(1.0, abs(float(flat[entry])))
        if params[name] in factors:
            nearest, kink = _kink_reading(layers, flat, entry)
            if nearest < AMBIGUITY_TOL:
                continue
            h = min(h, 0.5 * kink)
        accepted += 1
        half, whole = (finite_diff(model, batch, alpha, name, entry, step) for step in (h / 2, h))
        numeric = (4.0 * half - whole) / 3.0
        analytic = float(grad[flat_idx])
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        max_rel = max(max_rel, rel)
    if accepted < samples / 2:
        raise InconclusiveCheckError(f"only {accepted} of {samples} probes were unambiguous")
    return max_rel


def make_probe_model(seed: int):
    """The canonical small model and batch used for gradient auditing.

    Two heads on an 8-dim single-block transformer with a two-module
    rank-2 group per adapted projection. Weights are re-drawn at a
    healthy scale (std 0.4), in checkpoint order, so activations and
    penalty arguments sit far from the L1 kinks and no gradient is tiny.
    """
    cfg = vit.VitConfig(
        image_size=8, patch_size=4, embed_dim=8, num_blocks=1, num_heads=2, mlp_ratio=2.0, num_classes=2
    )
    model = vit.init_vit(cfg, make_rng(seed, 0))
    vit.inject_groups(model, rank=2, n=2, rng=make_rng(seed, 1))
    rng = make_rng(seed, 2)
    for name, arr in named_arrays(model):
        if name.endswith(".scale"):
            arr[...] = 1.0 + 0.1 * rng.normal(0.0, 1.0, arr.shape)
        elif name.endswith(".offset"):
            arr[...] = 0.1 * rng.normal(0.0, 1.0, arr.shape)
        else:
            arr[...] = rng.normal(0.0, 0.4, arr.shape)
    images = make_rng(seed, 3).random((4, 8, 8))
    labels = make_rng(seed, 4).integers(0, cfg.num_classes, 4)
    return model, Batch(images=images, labels=labels, tags=[("probe", i) for i in range(4)])
