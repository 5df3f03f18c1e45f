"""Reverse-mode differentiation on a dynamically recorded tape.

The operator vocabulary is the fixed set the transformer and its
regularizers need: matmul, broadcasting add, a handful of shape movers,
layernorm, GELU, softmax, mean cross-entropy, and the entrywise
absolute-value sum. Each operator stores a closure mapping the output
gradient to parent gradients; ``backprop`` walks the tape once in
reverse topological order and accumulates into every leaf that requires
a gradient. The closures of matmul, add and layernorm return ``None``
for a parent that needs no gradient (a frozen weight or a constant) and
skip its work; ``backprop`` skips ``None`` entries.

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


def matmul(a: Tensor, b: Tensor, transpose_a: bool = False, transpose_b: bool = False) -> Tensor:
    """Batched matrix product over the last two axes, with optional transposes."""
    lhs = _swap(a.data) if transpose_a else a.data
    rhs = _swap(b.data) if transpose_b else b.data
    out = lhs @ rhs

    def grad_fn(g):
        ga = gb = None
        if a.requires_grad:
            gl = g @ _swap(rhs)
            ga = _unbroadcast(_swap(gl) if transpose_a else gl, a.data.shape)
        if b.requires_grad:
            gr = _swap(lhs) @ g
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
    forwards down.
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
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd)
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner),)

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
