"""Low-rank adapter groups on frozen linear maps, their orthogonality
penalties, and exact merge-back.

Conventions: a host weight W has shape (d, k) and acts on column
vectors. Each adapter module is a pair A (r, k), B (d, r); a group of N
modules contributes the update sum_i B_i A_i on top of W. A group holds
its modules as two trainable stacks, A's (N, r, k) and B's (N, d, r),
which are the tape's leaves while ``gradcheck.backward`` differentiates
them and the optimizer's parameters; a module is a view of them
(``LoraGroup.modules``). The penalties
read the entrywise L1 norm (sum of absolute values) of their matrix
arguments:

* preserve: sum_i ||W^T (B_i A_i)||_1 pushes every module's update out
  of the host weight's column space;
* diversify: sum_{i<j} ||(B_i A_i)^T (B_j A_j)||_1 pushes the modules'
  updates pairwise apart.

Fresh groups start with B_i = 0, so both penalties are exactly zero at
initialization; a group of one module has no pair to diversify. The
forward path (``autograd.linear``) multiplies by W + B A and merge-back
adds the same product B A of the stacks laid end to end
(``autograd.adapter_update``), so merged logits are bitwise the adapted
ones. The penalties, L1 norms of (W^T B_i) A_i and A_i^T (B_i^T B_j) A_j,
are the tape ops ``autograd.preserve_l1``/``diversify_l1``, one node
each: ``loss_or_tensor`` is the one place their values are read, for
the training objective and its logged values alike. Merge-back copies
the model in memory; this module knows no tensor names.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError


@dataclass
class LoraModule:
    """One low-rank pair; ``a`` has shape (r, k), ``b`` has shape (d, r)."""

    a: Tensor
    b: Tensor

    @property
    def rank(self) -> int:
        return self.a.data.shape[0]


@dataclass
class LoraGroup:
    """N modules as two stacks, ``a`` (N, r, k) and ``b`` (N, d, r); module i is ``a[i]``, ``b[i]``."""

    a: Tensor
    b: Tensor

    @property
    def n(self) -> int:
        return self.a.data.shape[0]

    @property
    def modules(self) -> list[LoraModule]:
        """Each module as tensors that view the stacks' data as it is now."""
        return [LoraModule(Tensor(a), Tensor(b)) for a, b in zip(self.a.data, self.b.data)]


@dataclass
class AdaptedLinear:
    """A frozen base weight, its frozen bias, and an optional adapter group."""

    base: Tensor
    bias: Tensor
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
    return LoraGroup(a=Tensor(rng.normal(0.0, 0.02, (n, r, k))), b=Tensor(np.zeros((n, d, r))))


def group_delta(group: LoraGroup) -> np.ndarray:
    """The combined update sum_i B_i A_i as a dense matrix, as ``autograd.linear`` forms it."""
    return ag.adapter_update(group.a.data, group.b.data)[2]


# The projections of each block that carry a group, in draw order.
ADAPTED_PROJECTIONS = ("wq", "wv")


def adapted_layers(model) -> list[AdaptedLinear]:
    """Every projection carrying a group, in block order, then in
    ``ADAPTED_PROJECTIONS`` order."""
    return [
        lin
        for block in model.blocks
        for proj in ADAPTED_PROJECTIONS
        if (lin := getattr(block.attn, proj)).group is not None
    ]


def loss_or_tensor(model) -> tuple[Tensor | None, Tensor | None]:
    """The two differentiable penalty sums of the orthogonality loss,
    ``(preserve, diversify)``, each one 0-d node: the L1 norm over the
    arguments of every adapted projection. Both are None for a model
    without groups. Groups of different shapes raise ``ShapeError``."""
    layers = adapted_layers(model)
    if not layers:
        return None, None
    a, b = [lin.group.a for lin in layers], [lin.group.b for lin in layers]
    return ag.preserve_l1([lin.base for lin in layers], a, b), ag.diversify_l1(a, b)


def merge_all(model):
    """Fold every group into its host weight and drop the adapters.

    Returns a new model whose adapted weights become W + sum_i B_i A_i,
    bitwise those the adapted forward multiplies by, so the logits are
    unchanged bitwise; it carries zero adapter parameters.
    """
    merged = copy.deepcopy(model)
    for lin in adapted_layers(merged):
        lin.base = Tensor(lin.base.data + group_delta(lin.group))
        lin.group = None
    return merged
