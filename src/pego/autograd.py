"""Reverse-mode differentiation on a dynamically recorded tape.

The operator vocabulary is the fixed set the transformer and its
regularizers need: matmul, broadcasting add, a handful of shape movers,
layernorm, GELU, softmax, mean cross-entropy, the entrywise
absolute-value sum, and three fused adapter ops. ``linear`` is a whole
projection, ``x W^T + (x A^T) B^T + bias``, with the adapter factors of
a group stacked inside the op; ``preserve_args`` and ``diversify_args``
each stack the matrix arguments of one orthogonality penalty over every
adapted projection of the model, in rank-factored order, and one
``abs_sum`` then takes their L1 norm. Each operator stores a closure
mapping the output gradient to parent gradients; ``backprop`` walks the
tape once in reverse topological order and accumulates into every leaf
that requires a gradient. The closures of matmul, add, layernorm and the
fused ops return ``None`` for a parent that needs no gradient (a frozen
weight or a constant) and skip its work; ``backprop`` skips ``None``
entries.

Everything is float64. Parameters are 2-D; activations may carry
leading batch axes, and broadcasting against parameters is undone by
summation in the backward pass. The subgradient of ``|x|`` at 0 is 0.

A tape is confined to the thread that built it; building independent
tapes on separate threads is safe.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ShapeError

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Suspend tape recording inside the block (pure evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "parents", "grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.parents: tuple[Tensor, ...] = ()
        self.grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data)


def _node(data, parents, grad_fn) -> Tensor:
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out.parents = tuple(parents)
        out.grad_fn = grad_fn
        return out
    return Tensor(data)


def _swap(x):
    return np.swapaxes(x, -1, -2)


def _unbroadcast(g, shape):
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Batched matrix product over the last two axes; ``transpose_b``
    multiplies by ``b`` with its last two axes swapped."""
    rhs = _swap(b.data) if transpose_b else b.data
    out = a.data @ rhs

    def grad_fn(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ _swap(rhs), a.data.shape)
        if b.requires_grad:
            gr = _swap(a.data) @ g
            gb = _unbroadcast(_swap(gr) if transpose_b else gr, b.data.shape)
        return ga, gb

    return _node(out, (a, b), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def grad_fn(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _node(out, (a, b), grad_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return _node(a.data * c, (a,), grad_fn)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))

    def grad_fn(g):
        return (np.transpose(g, inverse),)

    return _node(np.transpose(a.data, axes), (a,), grad_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = a.data.shape

    def grad_fn(g):
        return (g.reshape(orig),)

    return _node(a.data.reshape(shape), (a,), grad_fn)


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def grad_fn(g):
        return (_unbroadcast(g, a.data.shape),)

    return _node(np.broadcast_to(a.data, shape), (a,), grad_fn)


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    split = a.data.shape[axis]

    def grad_fn(g):
        ga, gb = np.split(g, [split], axis=axis)
        return ga, gb

    return _node(np.concatenate([a.data, b.data], axis=axis), (a, b), grad_fn)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _node(a.data[index], (a,), grad_fn)


def layernorm(x: Tensor, scale_p: Tensor, offset_p: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learned scale and offset."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * scale_p.data + offset_p.data

    def grad_fn(g):
        gs = _unbroadcast(g * xhat, scale_p.data.shape) if scale_p.requires_grad else None
        go = _unbroadcast(g, offset_p.data.shape) if offset_p.requires_grad else None
        gx = None
        if x.requires_grad:
            gh = g * scale_p.data
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * xhat).mean(axis=-1, keepdims=True)
            gx = inv * (gh - m1 - xhat * m2)
        return gx, gs, go

    return _node(out, (x, scale_p, offset_p), grad_fn)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """GELU in its tanh approximation.

    The cube is taken by multiplication (``xd**3`` goes through a slow
    ``pow``). The tanh argument and the output are each built in place
    in a single buffer, which keeps the peak memory of large no-grad
    forwards down; the backward likewise uses two buffers.
    """
    xd = x.data
    t = xd * xd
    t *= xd
    t *= _GELU_A
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 1.0 + t
    out *= xd
    out *= 0.5

    def grad_fn(g):
        # 0.5 (1 + t + x (1 - t^2) c (1 + 3 a x^2)) g, in two buffers
        s = xd * xd
        s *= 3.0 * _GELU_A
        s += 1.0
        s *= _GELU_C
        u = t * t
        np.subtract(1.0, u, out=u)
        u *= xd
        u *= s
        u += t
        u += 1.0
        u *= 0.5
        u *= g
        return (u,)

    return _node(out, (x,), grad_fn)


def softmax_last(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return _node(y, (x,), grad_fn)


def cross_entropy_mean(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of integer labels against raw logits."""
    labels = np.asarray(labels)
    z = logits.data
    n = z.shape[0]
    rows = np.arange(n)
    m = z.max(axis=1, keepdims=True)
    zs = z - m
    lse = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    logp = zs - lse
    loss = -logp[rows, labels].mean()

    def grad_fn(g):
        p = np.exp(logp)
        p[rows, labels] -= 1.0
        return (p * (float(g) / n),)

    return _node(np.float64(loss), (logits,), grad_fn)


def abs_sum(x: Tensor) -> Tensor:
    """Entrywise L1 norm as a scalar tensor; backward uses sign with sign(0) = 0."""

    def grad_fn(g):
        return (float(g) * np.sign(x.data),)

    return _node(np.float64(np.abs(x.data).sum()), (x,), grad_fn)


def _any_grad(parts) -> bool:
    return any(p.requires_grad for p in parts)


def _row_blocks(parts, stacked, axis):
    """Per-part blocks of the gradient of ``np.concatenate(parts, axis)``;
    None for a part that needs no gradient, or when ``stacked`` is None."""
    if stacked is None:
        return [None] * len(parts)
    cuts = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
    return [g if p.requires_grad else None for p, g in zip(parts, np.split(stacked, cuts, axis=axis))]


def linear(x: Tensor, w: Tensor, bias: Tensor | None = None, a_parts=(), b_parts=()) -> Tensor:
    """One projection: ``x W^T + sum_i (x A_i^T) B_i^T + bias``.

    ``x`` is (..., k), ``w`` is (d, k), ``bias`` is (1, d) or None, and
    adapter module i is the pair ``a_parts[i]`` (r_i, k), ``b_parts[i]``
    (d, r_i). The A's are stacked by rows and the B's by columns, so
    every module's term comes from one GEMM pair in factored order and
    no d-by-k product B_i A_i is formed. Leading axes of ``x`` stay
    batch axes rather than GEMM rows: GEMMs that large would start
    OpenBLAS threads, which oversubscribe the cores under ``--jobs``.
    """
    xd = x.data
    out = xd @ w.data.T
    a = b = h = None
    if a_parts:
        a = np.concatenate([p.data for p in a_parts], axis=0)
        b = np.concatenate([p.data for p in b_parts], axis=1)
        h = xd @ a.T
        out += h @ b.T
    if bias is not None:
        out += bias.data
    head = (x, w) if bias is None else (x, w, bias)

    def grad_fn(g):
        gh = g @ b if h is not None and (x.requires_grad or _any_grad(a_parts)) else None
        gx = None
        if x.requires_grad:
            gx = g @ w.data
            if gh is not None:
                gx += gh @ a
        grads = [gx, _unbroadcast(_swap(g) @ xd, w.data.shape) if w.requires_grad else None]
        if bias is not None:
            grads.append(_unbroadcast(g, bias.data.shape) if bias.requires_grad else None)
        ga = _unbroadcast(_swap(gh) @ xd, a.shape) if _any_grad(a_parts) else None
        gb = _unbroadcast(_swap(g) @ h, b.shape) if _any_grad(b_parts) else None
        return grads + _row_blocks(a_parts, ga, 0) + _row_blocks(b_parts, gb, 1)

    return _node(out, head + tuple(a_parts) + tuple(b_parts), grad_fn)


def penalty_args(a: np.ndarray, b: np.ndarray, w: np.ndarray | None = None):
    """The matrix arguments of the orthogonality penalties, from the
    adapter factors of P projections with N modules each: ``a``
    (P, N, r, k) and ``b`` (P, N, d, r). No d-by-k update B_i A_i is
    formed; every product runs in rank-factored order.

    Returns ``(inner, args)``. With the host weights ``w`` (P, d, k),
    ``inner`` holds W^T B_i (P, N, k, r) and ``args`` the preserve
    arguments (W^T B_i) A_i (P, N, k, k). Without them, ``inner`` holds
    the r-by-r Grams B_i^T B_j and ``args`` the diversify arguments
    A_i^T (B_i^T B_j) A_j, for i < j in row-major pair order, stacked
    (P, N (N - 1) / 2, ...).
    """
    if w is not None:
        inner = _swap(w)[:, None] @ b
        return inner, inner @ a
    i, j = np.triu_indices(a.shape[1], 1)
    gram = _swap(b[:, i]) @ b[:, j]
    return gram, _swap(a[:, i]) @ (gram @ a[:, j])


def _stack_groups(groups) -> tuple[np.ndarray, list[Tensor]]:
    """The data of P groups of N equal-shaped tensors stacked (P, N, ...),
    and the tensors in one flat list, group by group."""
    parts = [p for g in groups for p in g]
    shapes = {p.data.shape for p in parts}
    n = len(groups[0])
    if len(shapes) != 1 or any(len(g) != n for g in groups):
        raise ShapeError(f"adapter groups differ: sizes {[len(g) for g in groups]}, shapes {sorted(shapes)}")
    return np.stack([p.data for p in parts]).reshape((len(groups), n) + shapes.pop()), parts


def _module_grads(stacked, parts) -> list:
    """Per-tensor blocks of a gradient stacked (P, N, ...) over the flat
    list ``parts``; None for a part that needs no gradient, or when
    ``stacked`` is None."""
    if stacked is None:
        return [None] * len(parts)
    flat = stacked.reshape((-1,) + stacked.shape[2:])
    return [flat[q] if p.requires_grad else None for q, p in enumerate(parts)]


def preserve_args(ws, a_groups, b_groups) -> Tensor:
    """The preserve arguments (W^T B_i) A_i of every adapted projection,
    stacked (P, N, k, k). Projection p has the host weight ``ws[p]``
    (d, k) and the module factors ``a_groups[p]``, ``b_groups[p]`` as
    in ``linear``; all P groups must have the same shapes.

    The host weights are read as constants and get no gradient: only
    adapter factors are trained while groups are attached.
    """
    (a, a_parts), (b, b_parts) = _stack_groups(a_groups), _stack_groups(b_groups)
    w = np.stack([t.data for t in ws])
    inner, out = penalty_args(a, b, w)

    def grad_fn(g):
        ga = _swap(inner) @ g if _any_grad(a_parts) else None
        gb = w[:, None] @ (g @ _swap(a)) if _any_grad(b_parts) else None
        return _module_grads(ga, a_parts) + _module_grads(gb, b_parts)

    return _node(out, a_parts + b_parts, grad_fn)


def diversify_args(a_groups, b_groups) -> Tensor:
    """The diversify arguments A_i^T (B_i^T B_j) A_j of every adapted
    projection, for i < j in row-major pair order, stacked
    (P, N (N - 1) / 2, k, k); the groups are as in ``preserve_args``."""
    (a, a_parts), (b, b_parts) = _stack_groups(a_groups), _stack_groups(b_groups)
    gram, out = penalty_args(a, b)
    n = a.shape[1]
    i, j = np.triu_indices(n, 1)
    # Pair p feeds modules i[p] and j[p]; a GEMM against this 0/1 matrix
    # sums the pair terms per module.
    owner = (np.arange(n)[:, None] == np.concatenate([i, j])).astype(np.float64)

    def per_module(terms, like):
        return (owner @ terms.reshape(terms.shape[:2] + (-1,))).reshape(like.shape)

    def grad_fn(g):
        need_a, need_b = _any_grad(a_parts), _any_grad(b_parts)
        ga = gb = None
        if need_a or need_b:
            aig = a[:, i] @ g  # A_i G_p
        if need_a:
            ga = per_module(np.concatenate([gram @ (a[:, j] @ _swap(g)), _swap(gram) @ aig], axis=1), a)
        if need_b:
            gg = aig @ _swap(a[:, j])  # gradient of the Gram B_i^T B_j
            gb = per_module(np.concatenate([b[:, j] @ _swap(gg), b[:, i] @ gg], axis=1), b)
        return _module_grads(ga, a_parts) + _module_grads(gb, b_parts)

    return _node(out, a_parts + b_parts, grad_fn)


def backprop(root: Tensor) -> None:
    """Populate ``grad`` on every reachable tensor that requires one."""
    if root.data.ndim != 0:
        raise ShapeError(f"backprop needs a scalar root, got shape {root.data.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node.grad_fn is None:
            continue
        grads = node.grad_fn(node.grad)
        for parent, g in zip(node.parents, grads):
            if g is None or not parent.requires_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g
