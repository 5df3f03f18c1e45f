"""Reverse-mode differentiation on a dynamically recorded tape.

The operator vocabulary is the fixed set the transformer and its
regularizers need:

- ``matmul``, broadcasting ``add`` and ``scale``;
- the shape movers ``transpose``, ``reshape`` and ``narrow``;
- ``layernorm`` and ``cross_entropy_mean``;
- the fused ops. ``attention_probs(q, k, c)`` is attention's
  ``softmax(c q k)``; ``linear(x, w, bias, a=None, b=None)`` is a whole
  projection, ``x (W + B A)^T + bias``, with ``B A`` the update
  (``adapter_update``) of a group's factor stacks ``a`` (N, r, k) and
  ``b`` (N, d, r); ``mlp`` is a block's MLP sublayer with its residual;
  ``embed`` is the token embedding. ``preserve_l1(ws, a_stacks,
  b_stacks)`` and ``diversify_l1(a_stacks, b_stacks)`` are the
  orthogonality penalties, each one 0-d node on the P adapted
  projections' stacks: the L1 norm of the matrix arguments that
  ``_preserve_args`` or ``_diversify_args`` stacks over them. A group's
  factor gradient comes back as one block per stack.

``matmul`` multiplies its operands as given; a caller that needs a
transposed operand lays it out with ``transpose``, as attention does
with its keys. Plain and fused ops share one numpy kernel per formula
(``_layernorm``, ``_gelu``, ``_dense``, the penalty arguments), so a
fused op is bitwise the chain it replaces. Each operator stores a
closure mapping the output gradient to parent gradients; ``backprop``
walks the tape once in reverse topological order and returns the
gradient with respect to the leaves it is handed as one vector. An op
computes its output alike with or without a tape; ``_node`` alone
decides whether it is recorded: when a parent needs a gradient. What an
op keeps for its backward follows its parents' needs and is only what
that backward reads: ``attention_probs`` keeps its probabilities but no
scores, ``mlp`` keeps GELU's slope rather than the hidden layer, and
``mlp`` with no parent that needs a gradient keeps nothing and runs its
hidden layer in blocks of images. Temporaries are bounded alike with or
without a tape: ``attention_probs`` copies its scores for their row max
one block of rows at a time, and ``_gelu`` computes the slope only when
asked and finishes GELU in its tanh's buffer. No tensor stores a
gradient: a node's gradient lives in ``backprop`` until its closure has
used it. The closures of matmul, add, layernorm and the fused ops
return ``None`` for a parent that needs no gradient (a frozen weight or
a constant) and skip its work; ``backprop`` skips ``None`` entries.

Everything is float64. Parameters are 2-D; activations may carry
leading batch axes, and broadcasting against parameters is undone by
summation in the backward pass, except in ``_dense``, whose weight
gradient is one 2-D GEMM over the flattened batch rows.
The subgradient of ``|x|`` at 0 is 0.

A tensor needs a gradient only inside ``differentiating``, which marks
the leaves it is handed and puts back their flags on leaving, also by an
exception. ``gradcheck.backward``, the one gradient call of training,
pretraining and ``pego gradcheck``, builds its tape and runs ``backprop``
in it, so every other forward records nothing.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager

import numpy as np

from .errors import ShapeError


class Tensor:
    __slots__ = ("data", "requires_grad", "parents", "grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.parents: tuple[Tensor, ...] = ()
        self.grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@contextmanager
def differentiating(leaves):
    """Mark each of ``leaves`` as needing a gradient inside the block, so
    that ops on them record a tape, and put back each leaf's previous
    flag on leaving, also by an exception."""
    leaves = list(leaves)
    before = [t.requires_grad for t in leaves]
    for t in leaves:
        t.requires_grad = True
    try:
        yield
    finally:
        for t, flag in zip(leaves, before):
            t.requires_grad = flag


def _node(data, parents, grad_fn) -> Tensor:
    """The output ``data`` of an op on ``parents``, recorded with its
    ``grad_fn`` when a parent needs a gradient."""
    if any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out.parents = tuple(parents)
        out.grad_fn = grad_fn
        return out
    return Tensor(data)


def _needs(parents) -> tuple[bool, ...]:
    return tuple(p.requires_grad for p in parents)


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the last two axes."""
    out = a.data @ b.data

    def grad_fn(g):
        ga = _unbroadcast(g @ _swap(b.data), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(_swap(a.data) @ g, b.data.shape) if b.requires_grad else None
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
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def grad_fn(g):
        return (np.transpose(g, inverse),)

    return _node(np.transpose(a.data, axes), (a,), grad_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = a.data.shape

    def grad_fn(g):
        return (g.reshape(orig),)

    return _node(a.data.reshape(shape), (a,), grad_fn)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _node(a.data[index], (a,), grad_fn)


# Added to the variance under layernorm's square root.
LAYERNORM_EPS = 1e-5


def _row_mean(x):
    """The mean over the last axis, kept as a length-1 axis: bitwise
    ``x.mean(axis=-1, keepdims=True)`` without its Python wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layernorm(x, scale, offset):
    """Layernorm's output and the buffers its backward reads; the centred
    rows are normalized in place, the output gets a buffer of its own."""
    xhat = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(xhat * xhat) + LAYERNORM_EPS)
    xhat *= inv
    out = xhat * scale
    out += offset
    return out, (xhat, inv)


def _layernorm_grads(g, saved, scale, need):
    """Layernorm's x, scale and offset gradients, None where ``need`` is false."""
    (xhat, inv), (need_x, need_scale, need_offset) = saved, need
    gs = _unbroadcast(g * xhat, scale.shape) if need_scale else None
    go = _unbroadcast(g, scale.shape) if need_offset else None
    gx = None
    if need_x:
        # inv (gh - mean(gh) - xhat mean(gh xhat)), gh = g scale
        gx = g * scale
        u = gx * xhat
        m2 = _row_mean(u)
        gx -= _row_mean(gx)
        gx -= np.multiply(xhat, m2, out=u)
        gx *= inv
    return gx, gs, go


def layernorm(x: Tensor, scale_p: Tensor, offset_p: Tensor) -> Tensor:
    """Normalization over the last axis with a learned (1, d) scale and offset."""
    out, saved = _layernorm(x.data, scale_p.data, offset_p.data)
    parents = (x, scale_p, offset_p)
    return _node(out, parents, lambda g: _layernorm_grads(g, saved, scale_p.data, _needs(parents)))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu(x, slope: bool):
    """GELU (tanh form) at ``x``, and when ``slope`` its derivative there,
    by which a backward multiplies the output gradient (else None). The
    tanh is built in place in one buffer, the slope
    0.5 (1 + t + x (1 - t^2) c (1 + 3 a x^2)) is read from it in two more,
    and GELU is then finished in the tanh's buffer; ``x**3`` would go
    through a slow ``pow``."""
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    u = None
    if slope:
        s = x * x
        s *= 3.0 * _GELU_A
        s += 1.0
        s *= _GELU_C
        u = t * t
        np.subtract(1.0, u, out=u)
        u *= x
        u *= s
        u += t
        u += 1.0
        u *= 0.5
    t += 1.0
    t *= x
    t *= 0.5
    return t, u


# Score rows per block of ``attention_probs``' row max, so that the max
# copies one block of rows, not the whole score tensor (592 KB for a
# 64-image chunk of the canonical model, once that chunk's heap peak). On
# the canonical model (2-core Xeon, medians of 400 interleaved calls),
# 1024-row blocks took 44-48 us on 24 images against 46-50 us for one
# whole copy, and 125-132 against 126-134 us on 64 images; the chunk's
# traced peak fell from 2409 to 1941 KiB. 512-row blocks reached 1895 KiB,
# where the MLP sets the peak, and 256-row blocks took 20% longer.
ROW_MAX_BLOCK = 1024


def attention_probs(q: Tensor, k: Tensor, c: float) -> Tensor:
    """Attention probabilities: the softmax over the last axis of the
    scores ``c q k``, ``q`` (..., n, dh) and ``k`` (..., dh, m) laid out as
    keys by column.

    The scores are scaled in their own buffer and softmaxed in place, so
    the node keeps only its output and its parents. numpy reduces short
    last axes slowly, so each block of ``ROW_MAX_BLOCK`` score rows takes
    its row max over the leading axis of its own transposed copy; a max
    does not depend on order, so it is exact. The row sum stays on the
    contiguous last axis.
    """
    c = float(c)
    y = q.data @ k.data
    y *= c
    rows = _rows(y)  # a view: a matmul's product is C-contiguous
    for s in range(0, len(rows), ROW_MAX_BLOCK):
        block = rows[s : s + ROW_MAX_BLOCK]
        block -= np.ascontiguousarray(block.T).max(axis=0)[:, None]
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)

    def grad_fn(g):
        # c (g - sum(g y)) y, the scores' gradient, in one buffer
        u = g * y
        np.subtract(g, np.add.reduce(u, axis=-1, keepdims=True), out=u)
        u *= y
        u *= c
        gq = _unbroadcast(u @ _swap(k.data), q.data.shape) if q.requires_grad else None
        gk = _unbroadcast(_swap(q.data) @ u, k.data.shape) if k.requires_grad else None
        return gq, gk

    return _node(y, (q, k), grad_fn)


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


def _rows(t):
    """``t`` as 2-D rows over its last axis."""
    return t.reshape(-1, t.shape[-1])


def adapter_update(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A, B, B A)``: the A's of a group's stack ``a`` (N, r, k) by rows, a
    view, and the B's of its stack ``b`` (N, d, r) by columns, a copy, and
    their one product, the group's update ``sum_i B_i A_i``."""
    a_cat, b_cat = a.reshape(-1, a.shape[-1]), np.concatenate(b, axis=1)
    return a_cat, b_cat, b_cat @ a_cat


def _dense(x, w_eff, bias):
    """``x W_eff^T + bias`` through a C-contiguous ``W_eff^T``: numpy
    multiplies a batch by a transposed view up to twice as slowly."""
    out = x @ np.ascontiguousarray(w_eff.T)
    out += bias
    return out


def _dense_grads(g, x, w_eff, need):
    """``_dense``'s x, W_eff and bias gradients, None where ``need`` is
    false. W_eff's is one 2-D GEMM ``g^T x`` over all rows."""
    need_x, need_w, need_bias = need
    gx = g @ w_eff if need_x else None
    gw = _rows(g).T @ _rows(x) if need_w else None
    gbias = _unbroadcast(g, (1, g.shape[-1])) if need_bias else None
    return gx, gw, gbias


def linear(x: Tensor, w: Tensor, bias: Tensor, a: Tensor | None = None, b: Tensor | None = None) -> Tensor:
    """One projection: ``x (W + sum_i B_i A_i)^T + bias``.

    ``x`` is (..., k), with leading batch axes, ``w`` is (d, k), ``bias``
    is (1, d), and an adapter group, when given, is its factor stacks
    ``a`` (N, r, k) and ``b`` (N, d, r). The op forms ``W_eff = W + B A``
    (``adapter_update``) and multiplies ``x`` by it alone; merge-back
    adds the same ``B A``. With ``G`` the gradient of ``W_eff``, A's is
    ``B^T G`` and B's ``G A^T``, each returned as one stack.
    """
    w_eff, parents = w.data, (x, w, bias)
    if a is not None:
        parents += (a, b)
        a_cat, b_cat, update = adapter_update(a.data, b.data)
        w_eff = w.data + update
    out = _dense(x.data, w_eff, bias.data)

    def grad_fn(g):
        need_x, need_w, need_bias, *need_ab = _needs(parents)
        gx, g_eff, gbias = _dense_grads(g, x.data, w_eff, (need_x, need_w or any(need_ab), need_bias))
        grads = [gx, g_eff if need_w else None, gbias]
        if need_ab:
            need_a, need_b = need_ab
            grads.append((b_cat.T @ g_eff).reshape(a.data.shape) if need_a else None)
            # G A^T is (d, N r); its i-th block of r columns is B_i's gradient.
            grads.append((g_eff @ a_cat.T).reshape(len(b_cat), len(b.data), -1).swapaxes(0, 1) if need_b else None)
        return grads

    return _node(out, parents, grad_fn)


# Images per block of an ``mlp`` that keeps nothing for a backward, so
# that a no-grad forward holds one block's hidden buffers (two of
# 0.56 MB at 32 canonical images, against 1.1 MB for a 64-image chunk).
# With GELU in three buffers, on the canonical model (2-core Xeon,
# medians of 400 interleaved calls on 64 images), 32-image blocks took
# 1.88 ms at a traced heap peak of 2383 KiB, one 64-image block 2.00 ms
# at 4427 KiB, and 16-image blocks 2.00 ms at 1361 KiB; with 16,
# eval-read's process peak stayed where 32 put it (61.5-61.8 against
# 61.6-61.9 MB) and it read 11% fewer images/s.
MLP_BLOCK = 32


def _mlp(x, ln_scale, ln_offset, w1, b1, w2, b2, need):
    """``mlp``'s output on arrays, and what its backward reads for the
    parents' gradient ``need`` (layernorm's buffers, fc1's input, GELU's
    slope, fc2's input), None where unread. Every other intermediate dies
    after its last reader, the hidden layer before fc2's GEMM, and GELU's
    output is its tanh's buffer."""
    need_m, (need_w1, need_b1, need_w2) = any(need[:3]), need[3:6]
    m, ln_saved = _layernorm(x, ln_scale, ln_offset)
    ln_saved, h = (ln_saved if need_m else None), _dense(m, w1, b1)
    m = m if need_w1 else None
    act, slope = _gelu(h, need_m or need_w1 or need_b1)
    del h
    out = _dense(act, w2, b2)
    out += x
    return out, (ln_saved, m, slope, act if need_w2 else None)


def mlp(x: Tensor, ln_scale: Tensor, ln_offset: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``x + fc2(gelu(fc1(ln(x))))`` as one node, fc1 and fc2 unadapted
    projections as in ``linear``: the kernels of ``layernorm``, ``linear``
    and GELU in a chain's order, so bitwise that chain's values.

    When no parent needs a gradient, nothing is kept for a backward, and
    the chain runs over blocks of at most ``MLP_BLOCK`` entries of the
    leading (image) axis, one block's hidden layer at a time. No GEMM or
    row reduction mixes images, so the output is bitwise the whole
    batch's, which is what a parent that needs a gradient gets.

    Otherwise the node keeps only what its backward reads (``_mlp``):
    GELU's slope (``_gelu``'s second buffer) in place of the hidden layer,
    layernorm's buffers only when x or layernorm's scale or offset
    needs a gradient, and fc1's and fc2's inputs only when their weights do."""
    parents = (x, ln_scale, ln_offset, w1, b1, w2, b2)
    weights = [p.data for p in parents[1:]]
    need = _needs(parents)
    if not any(need):
        out = np.empty_like(x.data)
        for s in range(0, len(out), MLP_BLOCK):
            out[s : s + MLP_BLOCK] = _mlp(x.data[s : s + MLP_BLOCK], *weights, need)[0]
        return _node(out, parents, None)
    need_x, need_s, need_o, need_w1, need_b1, need_w2, need_b2 = need
    out, (ln_saved, m, slope, act) = _mlp(x.data, *weights, need)
    need_m, need_h = ln_saved is not None, slope is not None

    def grad_fn(g):
        g_act, gw2, gb2 = _dense_grads(g, act, w2.data, (need_h, need_w2, need_b2))
        if need_h:
            g_act *= slope
        gm, gw1, gb1 = _dense_grads(g_act, m, w1.data, (need_m, need_w1, need_b1))
        gx, gs, go = _layernorm_grads(gm, ln_saved, ln_scale.data, (need_x, need_s, need_o)) if need_m else [None] * 3
        return (gx + g if need_x else None), gs, go, gw1, gb1, gw2, gb2

    return _node(out, parents, grad_fn)


def embed(patches, w: Tensor, bias: Tensor, class_token: Tensor, pos: Tensor) -> Tensor:
    """The (1, d) ``class_token`` ahead of the rows of ``patches`` (B, P, k)
    projected as by ``linear``, plus the (P + 1, d) positions ``pos``.
    ``patches`` is a plain array, like ``cross_entropy_mean``'s labels."""
    cls = np.broadcast_to(class_token.data, (len(patches), 1, class_token.data.shape[-1]))
    out = np.concatenate([cls, _dense(patches, w.data, bias.data)], axis=1)
    out += pos.data
    parents = (w, bias, class_token, pos)

    def grad_fn(g):
        need_w, need_bias, need_cls, need_pos = _needs(parents)
        _, gw, gbias = _dense_grads(g[:, 1:], patches, w.data, (False, need_w, need_bias))
        gcls = _unbroadcast(g[:, 0], class_token.data.shape) if need_cls else None
        gpos = _unbroadcast(g, pos.data.shape) if need_pos else None
        return gw, gbias, gcls, gpos

    return _node(out, parents, grad_fn)


@functools.lru_cache(maxsize=None)
def pair_order(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The module pairs of a group of ``n`` in diversify order, i < j
    row-major, as read-only index arrays ``i`` and ``j``, and the
    read-only (n, 2 * pairs) 0/1 matrix whose row m marks the entries of
    ``concatenate([i, j])`` equal to m. One copy per ``n`` serves every
    caller."""
    i, j = np.triu_indices(n, 1)
    owner = (np.arange(n)[:, None] == np.concatenate([i, j])).astype(np.float64)
    for arr in (i, j, owner):
        arr.flags.writeable = False
    return i, j, owner


def _stack_factors(stacks) -> np.ndarray:
    """The data of P equal-shaped factor stacks as one (P, N, ...) array."""
    shapes = {t.data.shape for t in stacks}
    if len(shapes) != 1:
        raise ShapeError(f"adapter groups differ: shapes {sorted(shapes)}")
    return np.stack([t.data for t in stacks])


def _per_stack(stacks, g):
    """The (P, N, ...) gradient ``g`` of P stacks per stack; None for a stack that needs none."""
    return [g[p] if t.requires_grad else None for p, t in enumerate(stacks)]


def _preserve_args(w, a, b):
    """Stacked (W^T B_i) A_i of weights ``w`` (P, d, k) and factors stacked (P, N, ...), and W^T B_i."""
    inner = _swap(w)[:, None] @ b
    return inner @ a, inner


def _diversify_args(a, b):
    """Stacked A_i^T (B_i^T B_j) A_j over ``pair_order``'s pairs i < j, and the Gram blocks B_i^T B_j."""
    i, j, _ = pair_order(a.shape[1])
    gram = _swap(b[:, i]) @ b[:, j]
    return _swap(a[:, i]) @ (gram @ a[:, j]), gram


def preserve_l1(ws, a_stacks, b_stacks) -> Tensor:
    """The preserve penalty, the L1 norm of ``_preserve_args``, as one 0-d
    node. Projection p has the host weight ``ws[p]`` (d, k) and the stacks
    ``a_stacks[p]``, ``b_stacks[p]`` as in ``linear``, shaped alike for all p.

    The host weights are read as constants and get no gradient: only
    adapter factors are trained while groups are attached.
    """
    a, b = _stack_factors(a_stacks), _stack_factors(b_stacks)
    w = np.stack([t.data for t in ws])
    args, inner = _preserve_args(w, a, b)

    def grad_fn(g):
        g = float(g) * np.sign(args)
        ga = _swap(inner) @ g if any(_needs(a_stacks)) else None
        gb = w[:, None] @ (g @ _swap(a)) if any(_needs(b_stacks)) else None
        return _per_stack(a_stacks, ga) + _per_stack(b_stacks, gb)

    return _node(np.float64(np.abs(args).sum()), (*a_stacks, *b_stacks), grad_fn)


def diversify_l1(a_stacks, b_stacks) -> Tensor:
    """The diversify penalty, the L1 norm of the ``_diversify_args`` of
    stacks as in ``preserve_l1``, as one 0-d node. A group of one module
    has no pair: its penalty is 0 and the factors get zero gradients."""
    a, b = _stack_factors(a_stacks), _stack_factors(b_stacks)
    i, j, owner = pair_order(a.shape[1])
    args, gram = _diversify_args(a, b)
    # Pair p feeds modules i[p] and j[p]; a GEMM against the 0/1 owner
    # matrix sums the pair terms per module (-1 cannot size the reshape
    # of a group of one, which has no pairs).

    def per_module(terms, like):
        return (owner @ terms.reshape(terms.shape[:2] + (like[0, 0].size,))).reshape(like.shape)

    def grad_fn(g):
        g = float(g) * np.sign(args)
        need_a, need_b = any(_needs(a_stacks)), any(_needs(b_stacks))
        ga = gb = None
        if need_a or need_b:
            aig = a[:, i] @ g  # A_i G_p
        if need_a:
            ga = per_module(np.concatenate([gram @ (a[:, j] @ _swap(g)), _swap(gram) @ aig], axis=1), a)
        if need_b:
            gg = aig @ _swap(a[:, j])  # gradient of the Gram B_i^T B_j
            gb = per_module(np.concatenate([b[:, j] @ _swap(gg), b[:, i] @ gg], axis=1), b)
        return _per_stack(a_stacks, ga) + _per_stack(b_stacks, gb)

    return _node(np.float64(np.abs(args).sum()), (*a_stacks, *b_stacks), grad_fn)


def backprop(root: Tensor, leaves) -> np.ndarray:
    """The gradient of the scalar ``root`` with respect to ``leaves``, laid
    end to end in the order given (the layout of
    ``trainer.flatten_params``), and zero for a leaf ``root`` does not
    reach. Contributions to a tensor add up in tape order."""
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
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        if node.grad_fn is None:
            continue
        for parent, g in zip(node.parents, node.grad_fn(grads.pop(id(node)))):
            if g is not None and parent.requires_grad:
                acc = grads.get(id(parent))
                grads[id(parent)] = g if acc is None else acc + g
    return np.concatenate([grads[id(t)].ravel() if id(t) in grads else np.zeros(t.data.size) for t in leaves])
