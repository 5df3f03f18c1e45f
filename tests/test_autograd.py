"""Operator-level checks: every backward closure against central differences."""

import numpy as np
import pytest

from pego import autograd as ag
from pego import trainer, vit
from pego.errors import ShapeError
from pego.numerics import make_rng


def _fd_check(build, shapes, seed=0, h=1e-6, tol=1e-6):
    """Compare analytic input gradients of a scalar-valued tape against
    central differences, entry by entry."""
    rng = make_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    leaves = [ag.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    ag.backprop(out)
    for arr, leaf in zip(arrays, leaves):
        flat = arr.reshape(-1)
        grad = leaf.grad.reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]

            def f(p):
                flat[idx] = p
                with ag.no_grad():
                    return float(build(*[ag.Tensor(a) for a in arrays]).data)

            num = (f(saved + h) - f(saved - h)) / (2 * h)
            flat[idx] = saved
            assert abs(num - grad[idx]) <= tol * max(abs(num), abs(grad[idx]), 1.0)


def _sum_all(t):
    return ag.abs_sum(ag.add(t, ag.constant(np.full(t.data.shape, 100.0))))  # shifted so |.| is smooth


def test_matmul_grad():
    _fd_check(lambda a, b: _sum_all(ag.matmul(a, b)), [(3, 4), (4, 2)])


def test_matmul_grad_transposes():
    _fd_check(lambda a, b: _sum_all(ag.matmul(a, b, transpose_b=True)), [(3, 4), (2, 4)])


def test_matmul_grad_batched_against_2d():
    # (batch, n, k) @ (m, k)^T exercises the unbroadcast path for parameters
    _fd_check(lambda a, b: _sum_all(ag.matmul(a, b, transpose_b=True)), [(2, 3, 4), (5, 4)])


def test_add_grad_broadcast():
    _fd_check(lambda a, b: _sum_all(ag.add(a, b)), [(2, 3, 4), (1, 4)])
    _fd_check(lambda a, b: _sum_all(ag.add(a, b)), [(3, 4), (3, 4)])


def test_scale_grad():
    _fd_check(lambda a: _sum_all(ag.scale(a, -2.5)), [(3, 3)])


def test_transpose_reshape_grad():
    _fd_check(lambda a: _sum_all(ag.reshape(ag.transpose(a, (0, 2, 1, 3)), (2, 12))), [(2, 3, 2, 2)])


def test_broadcast_concat_narrow_grad():
    def build(a, b):
        wide = ag.broadcast_to(ag.reshape(a, (1, 1, 3)), (2, 2, 3))
        joined = ag.concat(wide, b, axis=1)
        return _sum_all(ag.narrow(joined, 1, 1, 2))

    _fd_check(build, [(1, 3), (2, 2, 3)])


def test_layernorm_grad():
    _fd_check(lambda x, s, o: _sum_all(ag.layernorm(x, s, o)), [(2, 3, 6), (1, 6), (1, 6)], tol=5e-5)


def test_gelu_grad():
    _fd_check(lambda x: _sum_all(ag.gelu(x)), [(3, 5)])


def test_softmax_grad():
    _fd_check(lambda x: _sum_all(ag.softmax_last(x)), [(2, 2, 4)], tol=1e-5)


def test_cross_entropy_grad_matches_fd():
    labels = np.array([0, 2, 1])
    _fd_check(lambda z: ag.cross_entropy_mean(z, labels), [(3, 4)])


def test_cross_entropy_grad_closed_form():
    # d(mean CE)/d(logits) is (softmax - onehot) / batch
    rng = make_rng(3)
    z = rng.normal(size=(5, 3))
    labels = np.array([0, 1, 2, 1, 0])
    leaf = ag.Tensor(z, requires_grad=True)
    ag.backprop(ag.cross_entropy_mean(leaf, labels))
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(5), labels] -= 1.0
    assert np.allclose(leaf.grad, p / 5.0, atol=1e-12)


def test_abs_sum_grad_and_subgradient_at_zero():
    x = ag.Tensor(np.array([[1.5, -2.0], [0.0, 3.0]]), requires_grad=True)
    ag.backprop(ag.abs_sum(x))
    assert np.array_equal(x.grad, np.array([[1.0, -1.0], [0.0, 1.0]]))


def test_grad_accumulates_over_reuse():
    x = ag.Tensor(np.array([[2.0]]), requires_grad=True)
    ag.backprop(ag.abs_sum(ag.add(x, x)))
    assert x.grad[0, 0] == 2.0


def test_no_grad_builds_no_graph():
    x = ag.Tensor(np.ones((2, 2)), requires_grad=True)
    with ag.no_grad():
        y = ag.matmul(x, x)
    assert y.grad_fn is None and not y.requires_grad


def test_constant_inputs_get_no_grad():
    x = ag.constant(np.ones((2, 2)))
    y = ag.matmul(x, x)
    assert y.grad_fn is None


def test_backprop_requires_scalar_root():
    x = ag.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        ag.backprop(ag.add(x, x))


def test_gelu_forward_matches_reference():
    x = np.concatenate([np.linspace(-6.0, 6.0, 2401), [0.0, 1e-8, -1e-8, 30.0, -30.0]])
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    reference = 0.5 * x * (1.0 + np.tanh(c * (x + a * x**3)))
    assert np.max(np.abs(ag.gelu(ag.constant(x)).data - reference)) <= 1e-15


def _t(m):
    return np.swapaxes(m, -1, -2)


def _matmul_grads(a, b, g, transpose_b):
    """Parent gradients of a @ op(b), written out per transpose case; a
    batched gradient of a 2-D ``b`` is summed over the batch."""
    if transpose_b:
        ga, gb = g @ b, _t(_t(a) @ g)
    else:
        ga, gb = g @ _t(b), _t(a) @ g
    return ga, gb.sum(axis=0) if gb.ndim > b.ndim else gb


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("transpose_b", [False, True])
@pytest.mark.parametrize("frozen", [0, 1])
def test_matmul_skips_frozen_operand(batched, transpose_b, frozen):
    # Batched: both operands carry a batch axis, as in attention's
    # q @ k^T and probs @ v (k is frozen in the first block).
    rng = make_rng(40)
    lead = (2,) if batched else ()
    a = rng.normal(size=lead + (3, 4))
    b = rng.normal(size=lead + ((2, 4) if transpose_b else (4, 2)))
    leaves = [ag.Tensor(a, requires_grad=frozen != 0), ag.Tensor(b, requires_grad=frozen != 1)]
    out = ag.matmul(*leaves, transpose_b=transpose_b)
    g = rng.normal(size=out.shape)
    grads = out.grad_fn(g)
    assert grads[frozen] is None
    expected = _matmul_grads(a, b, g, transpose_b)[1 - frozen]
    assert np.array_equal(grads[1 - frozen], expected)


@pytest.mark.parametrize("frozen", [0, 1])
def test_batched_matmul_against_weight_skips_frozen_operand(frozen):
    # activation (batch, n, k) @ weight (m, k)^T, the projection in every layer
    rng = make_rng(41)
    x, w = rng.normal(size=(2, 3, 4)), rng.normal(size=(5, 4))
    out = ag.matmul(ag.Tensor(x, requires_grad=frozen != 0), ag.Tensor(w, requires_grad=frozen != 1), transpose_b=True)
    g = rng.normal(size=out.shape)
    grads = out.grad_fn(g)
    assert grads[frozen] is None
    expected = _matmul_grads(x, w, g, True)[1 - frozen]
    assert np.array_equal(grads[1 - frozen], expected)


@pytest.mark.parametrize("frozen", [0, 1])
def test_add_with_broadcast_bias_skips_frozen_operand(frozen):
    rng = make_rng(42)
    x, bias = rng.normal(size=(2, 3, 4)), rng.normal(size=(1, 4))
    out = ag.add(ag.Tensor(x, requires_grad=frozen != 0), ag.Tensor(bias, requires_grad=frozen != 1))
    g = rng.normal(size=out.shape)
    grads = out.grad_fn(g)
    assert grads[frozen] is None
    expected = (g, g.sum(axis=0).sum(axis=0, keepdims=True))[1 - frozen]
    assert np.array_equal(grads[1 - frozen], expected)


@pytest.mark.parametrize("x_frozen", [False, True])
def test_layernorm_skips_frozen_operands(x_frozen):
    rng = make_rng(43)
    x, s, o = rng.normal(size=(2, 3, 6)), rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
    eps = 1e-5
    out = ag.layernorm(
        ag.Tensor(x, requires_grad=not x_frozen),
        ag.Tensor(s, requires_grad=x_frozen),
        ag.Tensor(o, requires_grad=x_frozen),
        eps,
    )
    g = rng.normal(size=out.shape)
    gx, gs, go = out.grad_fn(g)
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    if x_frozen:
        assert gx is None
        assert np.array_equal(gs, (g * xhat).sum(axis=0).sum(axis=0, keepdims=True))
        assert np.array_equal(go, g.sum(axis=0).sum(axis=0, keepdims=True))
    else:
        assert gs is None and go is None
        gh = g * s
        expected = inv * (gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        assert np.array_equal(gx, expected)


def _skewed_sum(t):
    """``_sum_all`` of ``t @ M`` for a fixed random M: the gradient reaching
    ``t`` is then not symmetric, so a transposed gradient in a backward shows."""
    m = make_rng(53).normal(size=(t.shape[-1], t.shape[-1]))
    return _sum_all(ag.matmul(t, ag.constant(m)))


def _linear_build(n_parts, bias, w_trainable, w_fixed):
    """A scalar tape through ``linear`` whose leaves are x, then W when
    trainable, then the bias when present, then the A's and the B's."""

    def build(x, *rest):
        rest = list(rest)
        w = rest.pop(0) if w_trainable else ag.constant(w_fixed)
        b = rest.pop(0) if bias else None
        return _skewed_sum(ag.linear(x, w, b, rest[:n_parts], rest[n_parts:]))

    return build


@pytest.mark.parametrize("n_parts", [0, 1, 3])
@pytest.mark.parametrize("bias", [False, True])
def test_linear_grad(n_parts, bias):
    # 3-D activation against a 2-D frozen weight, the projection in every layer
    w = make_rng(44).normal(size=(4, 5))
    shapes = [(2, 3, 5)] + ([(1, 4)] if bias else []) + [(2, 5)] * n_parts + [(4, 2)] * n_parts
    _fd_check(_linear_build(n_parts, bias, False, w), shapes)


def test_linear_grad_trainable_weight():
    shapes = [(2, 3, 5), (4, 5), (1, 4), (2, 5), (1, 5), (4, 2), (4, 1)]
    _fd_check(_linear_build(2, True, True, None), shapes)


def _groups(parts, p):
    """``parts`` cut into ``p`` equal groups, as one per adapted projection."""
    n = len(parts) // p
    return [list(parts[q * n : (q + 1) * n]) for q in range(p)]


P = 2  # adapted projections in the penalty tests
# The shifted sums in these tests reach about 1e4, so a step of 1e-6
# would leave central differences with rounding errors near 1e-6.
H_PENALTY = 1e-5


@pytest.mark.parametrize("n", [1, 2, 4])
def test_preserve_args_grad(n):
    ws = [ag.constant(w) for w in make_rng(45).normal(size=(P, 5, 4))]
    shapes = [(2, 4)] * (P * n) + [(5, 2)] * (P * n)

    def build(*f):
        return _skewed_sum(ag.preserve_args(ws, _groups(f[: P * n], P), _groups(f[P * n :], P)))

    _fd_check(build, shapes, h=H_PENALTY)


@pytest.mark.parametrize("n", [2, 4])
def test_diversify_args_grad(n):
    shapes = [(2, 4)] * (P * n) + [(5, 2)] * (P * n)

    def build(*f):
        return _skewed_sum(ag.diversify_args(_groups(f[: P * n], P), _groups(f[P * n :], P)))

    _fd_check(build, shapes, h=H_PENALTY)


def test_penalty_args_match_the_dense_form():
    # The rank-factored products against D_i = B_i A_i written out.
    rng = make_rng(46)
    a, b, w = rng.normal(size=(P, 3, 2, 4)), rng.normal(size=(P, 3, 5, 2)), rng.normal(size=(P, 5, 4))
    d = b @ a
    preserve = np.stack([[w[p].T @ d[p, i] for i in range(3)] for p in range(P)])
    diversify = np.stack([[d[p, i].T @ d[p, j] for i, j in ((0, 1), (0, 2), (1, 2))] for p in range(P)])
    assert np.allclose(ag.penalty_args(a, b, w)[1], preserve, rtol=1e-13, atol=1e-13)
    assert np.allclose(ag.penalty_args(a, b)[1], diversify, rtol=1e-13, atol=1e-13)


def test_penalty_ops_reject_groups_of_different_shapes():
    rng = make_rng(54)
    w = ag.constant(rng.normal(size=(5, 4)))

    def factors(n, r):
        return [ag.Tensor(rng.normal(size=(r, 4)), True) for _ in range(n)], [
            ag.Tensor(rng.normal(size=(5, r)), True) for _ in range(n)
        ]

    for other in (factors(3, 2), factors(2, 3)):
        a0, b0 = factors(2, 2)
        with pytest.raises(ShapeError):
            ag.preserve_args([w, w], [a0, other[0]], [b0, other[1]])
        with pytest.raises(ShapeError):
            ag.diversify_args([a0, other[0]], [b0, other[1]])


def _fused_cases():
    rng = make_rng(47)
    x, w, bias = rng.normal(size=(2, 3, 5)), rng.normal(size=(4, 5)), rng.normal(size=(1, 4))
    a = [rng.normal(size=(2, 5)) for _ in range(2)]
    b = [rng.normal(size=(4, 2)) for _ in range(2)]
    # Two modules on each of P projections for the penalty ops, whose host
    # weights are read as constants, even when they require a gradient,
    # and so are no parents.
    a_pen = a + [rng.normal(size=(2, 5)) for _ in range(2 * P - 2)]
    b_pen = b + [rng.normal(size=(4, 2)) for _ in range(2 * P - 2)]
    ws = [ag.Tensor(rng.normal(size=(4, 5)), requires_grad=True) for _ in range(P)]

    def penalty(op, *head):
        return a_pen + b_pen, lambda p: op(*head, _groups(p[: 2 * P], P), _groups(p[2 * P :], P))

    return {
        "linear": ([x, w, bias] + a + b, lambda p: ag.linear(p[0], p[1], p[2], p[3:5], p[5:])),
        "preserve_args": penalty(ag.preserve_args, ws),
        "diversify_args": penalty(ag.diversify_args),
    }


@pytest.mark.parametrize("op", ["linear", "preserve_args", "diversify_args"])
def test_fused_ops_skip_each_frozen_parent(op):
    arrays, build = _fused_cases()[op]
    g = None
    for frozen in [None] + list(range(len(arrays))):
        out = build([ag.Tensor(arr, requires_grad=i != frozen) for i, arr in enumerate(arrays)])
        assert len(out.parents) == len(arrays)
        if g is None:
            g = make_rng(48).normal(size=out.shape)
        grads = out.grad_fn(g)
        if frozen is None:
            reference = grads
            assert all(gr is not None for gr in grads)
            continue
        assert grads[frozen] is None
        for i, gr in enumerate(grads):
            if i != frozen:
                assert np.array_equal(gr, reference[i])


def test_canonical_step_tape_size():
    # The training step of the benchmark's canonical config: N=4, r=4, batch 24.
    cfg = trainer.canonical_vit_config()
    model = vit.init_vit(cfg, make_rng(49))
    vit.inject_groups(model, rank=4, n=4, rng=make_rng(50))
    images = make_rng(51).random((24, cfg.image_size, cfg.image_size))
    labels = make_rng(52).integers(0, cfg.num_classes, 24)
    total = vit.batch_loss_tensor(model, images, labels, 1e-3).total
    seen, stack, nodes = set(), [total], 0
    while stack:
        t = stack.pop()
        if id(t) in seen or t.grad_fn is None:
            continue
        seen.add(id(t))
        nodes += 1
        stack.extend(t.parents)
    assert nodes <= 100
