"""Low-rank adapter groups on frozen linear maps, their orthogonality
penalties, and exact merge-back.

Conventions: a host weight W has shape (d, k) and acts on column
vectors. Each adapter module is a pair A (r, k), B (d, r); a group of N
modules contributes the update sum_i B_i A_i on top of W. The penalties
read the entrywise L1 norm (sum of absolute values) of their matrix
arguments:

* preserve: sum_i ||W^T (B_i A_i)||_1 pushes every module's update out
  of the host weight's column space;
* diversify: sum_{i<j} ||(B_i A_i)^T (B_j A_j)||_1 pushes the modules'
  updates pairwise apart.

Fresh groups start with B_i = 0, so both penalties are exactly zero at
initialization. The forward path (``autograd.linear``) always applies
adapters in factored order (A_i z first); the d-by-k products are
materialized only inside the penalties, whose arguments one helper,
``autograd.penalty_args``, computes for the tape and for the numpy
values here alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError, InputError, ShapeError


@dataclass
class LoraModule:
    """One low-rank pair; ``a`` has shape (r, k), ``b`` has shape (d, r)."""

    a: Tensor
    b: Tensor

    @property
    def rank(self) -> int:
        return self.a.data.shape[0]

    def delta(self) -> np.ndarray:
        return self.b.data @ self.a.data


@dataclass
class LoraGroup:
    modules: list[LoraModule]

    @property
    def n(self) -> int:
        return len(self.modules)

    def factors(self) -> tuple[list[Tensor], list[Tensor]]:
        """The modules' A tensors and B tensors, in module order."""
        return [m.a for m in self.modules], [m.b for m in self.modules]

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The modules' A's stacked to (N, r, k) and B's to (N, d, r)."""
        return np.stack([m.a.data for m in self.modules]), np.stack([m.b.data for m in self.modules])


@dataclass
class AdaptedLinear:
    """A frozen base weight, its frozen bias, and an optional adapter group."""

    base: Tensor
    bias: Tensor | None = None
    group: LoraGroup | None = None


def init_group(d: int, k: int, r: int, n: int, rng: np.random.Generator) -> LoraGroup:
    """Fresh group: every A_i is Gaussian with std 0.02, every B_i is zero.

    Zero B makes the combined update exactly zero, so the adapted layer
    starts out identical to its host and every penalty starts at 0.
    """
    if n < 1:
        raise ConfigError(f"group size must be at least 1, got {n}")
    if r < 1 or r > min(d, k):
        raise ConfigError(f"rank {r} outside [1, min({d}, {k})]")
    modules = []
    for _ in range(n):
        a = Tensor(rng.normal(0.0, 0.02, (r, k)), requires_grad=True)
        b = Tensor(np.zeros((d, r)), requires_grad=True)
        modules.append(LoraModule(a=a, b=b))
    return LoraGroup(modules=modules)


def group_delta(group: LoraGroup) -> np.ndarray:
    """The combined update sum_i B_i A_i as a dense matrix."""
    total = group.modules[0].delta()
    for m in group.modules[1:]:
        total = total + m.delta()
    return total


def loss_preserve(layer: AdaptedLinear) -> float:
    """sum_i ||W^T (B_i A_i)||_1; zero when the layer has no group."""
    if layer.group is None:
        return 0.0
    return float(np.abs(ag.penalty_args(*layer.group.stacked(), layer.base.data)[1]).sum())


def loss_diversify(group: LoraGroup | None) -> float:
    """sum over pairs i < j of ||(B_i A_i)^T (B_j A_j)||_1; zero for N = 1."""
    if group is None or group.n < 2:
        return 0.0
    return float(np.abs(ag.penalty_args(*group.stacked())[1]).sum())


def loss_orthogonal(layer: AdaptedLinear) -> float:
    return loss_preserve(layer) + loss_diversify(layer.group)


def loss_or(model) -> float:
    """Sum of per-layer orthogonality losses over every adapted projection."""
    total = 0.0
    for block in model.blocks:
        total += loss_orthogonal(block.attn.wq)
        total += loss_orthogonal(block.attn.wv)
    return total


def _sum_tensors(terms: list[Tensor]) -> Tensor | None:
    if not terms:
        return None
    total = terms[0]
    for t in terms[1:]:
        total = ag.add(total, t)
    return total


def loss_or_tensor(model) -> tuple[Tensor | None, Tensor | None]:
    """The two differentiable penalty sums of the orthogonality loss,
    ``(preserve, diversify)``, over every adapted projection. Each layer
    adds one L1 term per penalty, over the stacked arguments of all its
    modules or module pairs. A sum is None when no layer carries a group
    (for diversify, a group of two or more modules)."""
    preserve: list[Tensor] = []
    diversify: list[Tensor] = []
    for block in model.blocks:
        for lin in (block.attn.wq, block.attn.wv):
            if lin.group is None:
                continue
            a, b = lin.group.factors()
            preserve.append(ag.abs_sum(ag.preserve_args(lin.base, a, b)))
            if lin.group.n > 1:
                diversify.append(ag.abs_sum(ag.diversify_args(a, b)))
    return _sum_tensors(preserve), _sum_tensors(diversify)


def final_loss(model, batch, alpha: float) -> float:
    """Mean cross-entropy plus ``alpha`` times the orthogonality loss."""
    from .vit import batch_loss_tensor

    if alpha < 0:
        raise ConfigError(f"alpha must be nonnegative, got {alpha}")
    if len(batch.labels) == 0:
        raise InputError("empty batch")
    with ag.no_grad():
        out = batch_loss_tensor(model, batch.images, batch.labels, alpha)
    return float(out.total.data)


def merge_all(model):
    """Fold every group into its host weight and drop the adapters.

    Returns a new model whose adapted weights become W + sum_i B_i A_i;
    the input-to-logit map is unchanged up to float rounding, and the
    returned model carries zero adapter parameters.
    """
    from . import vit

    arrays = {name: arr for name, arr in vit.model_to_arrays(model).items() if ".lora." not in name}
    for b, block in enumerate(model.blocks):
        for proj in ("wq", "wv"):
            lin = getattr(block.attn, proj)
            if lin.group is not None:
                key = f"blocks.{b}.attn.{proj}.base"
                arrays[key] = arrays[key] + group_delta(lin.group)
    return vit.model_from_arrays(model.cfg, arrays)


def feature_orthogonality_gap(layer: AdaptedLinear, z_in: np.ndarray) -> float:
    """|z_init^T z_new - z_in^T (W^T sum_i B_i A_i) z_in| for one input vector.

    Algebraically zero; exposed as a diagnostic of how tightly weight
    orthogonality transfers to feature orthogonality.
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
