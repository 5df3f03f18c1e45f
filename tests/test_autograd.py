"""Operator-level checks: every backward closure against central differences."""

import numpy as np
import pytest
from conftest import traced_peak

from pego import autograd as ag
from pego import adapters, trainer, vit
from pego.errors import ShapeError
from pego.numerics import make_rng


def _fd_check(build, shapes, seed=0, h=1e-6, tol=1e-6):
    """Compare analytic input gradients of a scalar-valued tape against
    central differences, entry by entry."""
    rng = make_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    leaves = [ag.Tensor(a, requires_grad=True) for a in arrays]
    grads = np.split(ag.backprop(build(*leaves), leaves), np.cumsum([a.size for a in arrays])[:-1])
    for arr, grad in zip(arrays, grads):
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]

            def f(p):
                flat[idx] = p
                return float(build(*[ag.Tensor(a) for a in arrays]).data)

            num = (f(saved + h) - f(saved - h)) / (2 * h)
            flat[idx] = saved
            assert abs(num - grad[idx]) <= tol * max(abs(num), abs(grad[idx]), 1.0)


def _sum_all(t):
    """The entries of ``t`` weighted 1, 2, 3, ... in C order and summed, as
    a 0-d node: a smooth reducer whose gradient is the fixed weights."""
    weights = np.arange(1.0, t.data.size + 1.0).reshape(t.data.shape)
    return ag._node(np.float64((weights * t.data).sum()), (t,), lambda g: (float(g) * weights,))


def test_matmul_grad():
    _fd_check(lambda a, b: _sum_all(ag.matmul(a, b)), [(3, 4), (4, 2)])


def test_matmul_grad_transposes():
    # a @ b^T through a transposed view of b, as attention multiplies by its keys
    _fd_check(lambda a, b: _sum_all(ag.matmul(a, ag.transpose(b, (1, 0)))), [(3, 4), (2, 4)])


def test_matmul_grad_batched_against_2d():
    # (batch, n, k) @ (k, m) exercises the unbroadcast path for parameters
    _fd_check(lambda a, b: _sum_all(ag.matmul(a, b)), [(2, 3, 4), (4, 5)])


def test_add_grad_broadcast():
    _fd_check(lambda a, b: _sum_all(ag.add(a, b)), [(2, 3, 4), (1, 4)])
    _fd_check(lambda a, b: _sum_all(ag.add(a, b)), [(3, 4), (3, 4)])


def test_scale_grad():
    _fd_check(lambda a: _sum_all(ag.scale(a, -2.5)), [(3, 3)])


def test_transpose_reshape_grad():
    _fd_check(lambda a: _sum_all(ag.reshape(ag.transpose(a, (0, 2, 1, 3)), (2, 12))), [(2, 3, 2, 2)])


def test_transpose_grad_applies_the_inverse_permutation():
    # (2, 0, 3, 1) is not its own inverse, unlike the attention's swap.
    a = make_rng(62).normal(size=(2, 3, 4, 5))
    out = ag.transpose(ag.Tensor(a, requires_grad=True), (2, 0, 3, 1))
    assert out.shape == (4, 2, 5, 3)
    (g,) = out.grad_fn(out.data)
    assert np.array_equal(g, a)


def test_broadcast_concat_narrow_grad():
    # embed broadcasts the class token over the batch and sets it ahead of
    # the projected patches; narrow keeps the class row and one patch row
    patches = make_rng(63).normal(size=(2, 3, 5))

    def build(w, bias, cls, pos):
        return _sum_all(ag.narrow(ag.embed(patches, w, bias, cls, pos), 1, 0, 2))

    _fd_check(build, [(4, 5), (1, 4), (1, 4), (4, 4)])


def test_layernorm_grad():
    _fd_check(lambda x, s, o: _sum_all(ag.layernorm(x, s, o)), [(2, 3, 6), (1, 6), (1, 6)], tol=5e-5)


def _gelu(x):
    """The GELU kernel as a tape op of its own."""
    out, slope = ag._gelu(x.data, True)
    return ag._node(out, (x,), lambda g: (g * slope,))


def test_gelu_grad():
    _fd_check(lambda x: _sum_all(_gelu(x)), [(3, 5)])
    # and inside the MLP sublayer, every parent trainable as in pretraining
    _fd_check(lambda *p: _sum_all(ag.mlp(*p)), [(2, 3, 4), (1, 4), (1, 4), (6, 4), (1, 6), (4, 6), (1, 4)], tol=5e-5)


def test_softmax_grad():
    # The row softmax is attention's probabilities: q (2, 2, 3, 4) against
    # keys laid out (2, 2, 4, 5), as attention's are, both trainable.
    _fd_check(lambda q, k: _sum_all(ag.attention_probs(q, k, 0.7)), [(2, 2, 3, 4), (2, 2, 4, 5)], tol=1e-5)


def test_softmax_grad_with_frozen_keys():
    # Block 0's keys come from frozen weights alone: the closure returns
    # None for them and the queries' gradient still matches.
    k = ag.Tensor(make_rng(64).normal(size=(2, 2, 4, 5)))
    _fd_check(lambda q: _sum_all(ag.attention_probs(q, k, 0.7)), [(2, 2, 3, 4)], tol=1e-5)
    q = ag.Tensor(make_rng(65).normal(size=(2, 2, 3, 4)), requires_grad=True)
    out = ag.attention_probs(q, k, 0.7)
    gq, gk = out.grad_fn(np.ones_like(out.data))
    assert gq.shape == q.shape and gk is None


def test_cross_entropy_grad_matches_fd():
    labels = np.array([0, 2, 1])
    _fd_check(lambda z: ag.cross_entropy_mean(z, labels), [(3, 4)])


def test_cross_entropy_grad_closed_form():
    # d(mean CE)/d(logits) is (softmax - onehot) / batch
    rng = make_rng(3)
    z = rng.normal(size=(5, 3))
    labels = np.array([0, 1, 2, 1, 0])
    leaf = ag.Tensor(z, requires_grad=True)
    grad = ag.backprop(ag.cross_entropy_mean(leaf, labels), [leaf])
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(5), labels] -= 1.0
    assert np.allclose(grad, (p / 5.0).ravel(), atol=1e-12)


def test_penalty_grad_and_subgradient_at_zero():
    # With W and A the identity, the preserve argument W^T B A is B itself.
    eye = ag.Tensor(np.eye(2))
    x = ag.Tensor(np.array([[[1.5, -2.0], [0.0, 3.0]]]), requires_grad=True)
    total = ag.preserve_l1([eye], [ag.Tensor(np.eye(2)[None])], [x])
    assert float(total.data) == 6.5
    assert np.array_equal(ag.backprop(total, [x]), np.array([1.0, -1.0, 0.0, 1.0]))


def test_grad_accumulates_over_reuse():
    x = ag.Tensor(np.array([[2.0]]), requires_grad=True)
    assert ag.backprop(_sum_all(ag.add(x, x)), [x])[0] == 2.0


def test_backprop_gives_zeros_for_a_leaf_the_root_does_not_reach():
    x = ag.Tensor(np.array([[2.0, -1.0]]), requires_grad=True)
    unused = ag.Tensor(np.ones((2, 2)), requires_grad=True)
    grad = ag.backprop(_sum_all(x), [unused, x])
    assert np.array_equal(grad, np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0]))


def test_backprop_twice_on_one_tape_returns_equal_vectors():
    x = ag.Tensor(np.array([[2.0]]), requires_grad=True)
    root = _sum_all(ag.scale(ag.add(x, x), 3.0))
    first = ag.backprop(root, [x])
    assert first[0] == 6.0
    assert np.array_equal(ag.backprop(root, [x]), first)


def test_backprop_lays_out_the_leaves_in_the_order_given():
    rng = make_rng(4)
    a, b = ag.Tensor(rng.normal(size=(2, 3)), True), ag.Tensor(rng.normal(size=(3, 1)), True)
    root = _sum_all(ag.matmul(a, b))
    ab, ba = ag.backprop(root, [a, b]), ag.backprop(root, [b, a])
    assert np.array_equal(ab, np.concatenate([ba[3:], ba[:3]]))
    assert not np.array_equal(ab, ba)


def test_differentiating_marks_its_leaves_and_puts_their_flags_back():
    # A leaf given twice, and one already marked, keep the flag they had.
    x, y = ag.Tensor(np.ones((2, 2))), ag.Tensor(np.ones((2, 2)), requires_grad=True)
    with ag.differentiating([x, y, x]):
        assert x.requires_grad and y.requires_grad
        taped = ag.matmul(x, x)
    assert taped.grad_fn is not None and taped.parents == (x, x)
    assert not x.requires_grad and y.requires_grad
    assert ag.matmul(x, x).grad_fn is None
    with pytest.raises(RuntimeError, match="inside"):
        with ag.differentiating(iter([x])):
            assert x.requires_grad
            raise RuntimeError("inside")
    assert not x.requires_grad


def test_pair_order_is_one_read_only_copy_per_size():
    i, j, owner = ag.pair_order(4)
    ri, rj = np.triu_indices(4, 1)
    assert np.array_equal(i, ri) and np.array_equal(j, rj)
    assert np.array_equal(owner, (np.arange(4)[:, None] == np.concatenate([ri, rj])).astype(np.float64))
    assert owner.sum(axis=1).tolist() == [3.0] * 4  # each module is in n - 1 pairs
    assert ag.pair_order(4)[2] is owner
    for arr in (i, j, owner):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_constant_inputs_get_no_grad():
    x = ag.Tensor(np.ones((2, 2)))
    y = ag.matmul(x, x)
    assert y.grad_fn is None


def test_backprop_requires_scalar_root():
    x = ag.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        ag.backprop(ag.add(x, x), [x])


def test_gelu_forward_matches_reference():
    x = np.concatenate([np.linspace(-6.0, 6.0, 2401), [0.0, 1e-8, -1e-8, 30.0, -30.0]])
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    reference = 0.5 * x * (1.0 + np.tanh(c * (x + a * x**3)))
    for slope in (False, True):
        assert np.max(np.abs(ag._gelu(x, slope)[0] - reference)) <= 1e-15


def _batch_sum(g):
    """A (B, n, d) gradient summed down to a (1, d) parameter's shape."""
    return g.sum(axis=0).sum(axis=0, keepdims=True)


def _reference_layernorm(x, s, o):
    """Layernorm's value (x, scale s, offset o), and its parents'
    gradients as a function of the output gradient."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ag.LAYERNORM_EPS)
    xhat = xc * inv

    def grads(g):
        gh = g * s
        gx = inv * (gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        return gx, _batch_sum(g * xhat), _batch_sum(g)

    return xhat * s + o, grads


def _reference_gelu(h):
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    t = np.tanh((h * h * h * a + h) * c)
    dgelu = (((1.0 - t * t) * h * ((h * h * (3.0 * a) + 1.0) * c) + t) + 1.0) * 0.5
    return (1.0 + t) * h * 0.5, lambda g: dgelu * g


def _reference_dense(x, w, b):
    """``x W^T + b`` through a contiguous ``W^T``, as the op lays it out;
    W's gradient is one product over all rows."""

    def grads(g):
        return g @ w, g.reshape(-1, g.shape[-1]).T @ x.reshape(-1, x.shape[-1]), _batch_sum(g)

    return x @ np.ascontiguousarray(w.T) + b, grads


def _reference_mlp(x, s, o, w1, b1, w2, b2):
    """``x + fc2(gelu(fc1(ln(x))))`` from the references above."""
    m, ln_grads = _reference_layernorm(x, s, o)
    h, fc1_grads = _reference_dense(m, w1, b1)
    act, gelu_grad = _reference_gelu(h)
    y, fc2_grads = _reference_dense(act, w2, b2)

    def grads(g):
        g_act, gw2, gb2 = fc2_grads(g)
        gm, gw1, gb1 = fc1_grads(gelu_grad(g_act))
        gx, gs, go = ln_grads(gm)
        return gx + g, gs, go, gw1, gb1, gw2, gb2

    return x + y, grads


def _reference_attention_probs(q, k, c):
    """softmax(c q k) over the last axis, and the gradients of q and k."""
    scores = (q @ k) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def grads(g):
        g_scores = (g - (g * y).sum(axis=-1, keepdims=True)) * y * c
        return g_scores @ _t(k), _t(q) @ g_scores

    return y, grads


def test_row_ops_equal_the_written_out_formulas_bitwise():
    # Shapes of the canonical model: activations, MLP hidden rows, and
    # attention queries, keys and probabilities of 24 images, with every
    # parent trainable.
    rng = make_rng(60)
    x, h = rng.normal(size=(24, 17, 32)), rng.normal(size=(24, 17, 128))
    q, k, c = rng.normal(size=(24, 4, 17, 8)), rng.normal(size=(24, 4, 8, 17)), 1.0 / np.sqrt(8)
    s, o = rng.normal(size=(1, 32)), rng.normal(size=(1, 32))
    fc = [rng.normal(size=shape) for shape in [(128, 32), (1, 128), (32, 128), (1, 32)]]
    g_x, g_h, g_probs = (rng.normal(size=shape) for shape in (x.shape, h.shape, (24, 4, 17, 17)))
    leaves = [ag.Tensor(a, requires_grad=True) for a in [x, s, o, q, k, x, s, o] + fc]
    ops = [
        (ag.layernorm(*leaves[:3]), g_x, _reference_layernorm(x, s, o)),
        (ag.attention_probs(leaves[3], leaves[4], c), g_probs, _reference_attention_probs(q, k, c)),
        (ag.mlp(*leaves[5:]), g_x, _reference_mlp(x, s, o, *fc)),
    ]
    for out, g, (value, grads) in ops:
        assert np.array_equal(out.data, value)
        got, want = out.grad_fn(g), grads(g)
        assert len(got) == len(want)
        for got_grad, want_grad in zip(got, want):
            assert np.array_equal(got_grad, want_grad)
    gelu, gelu_grad = _reference_gelu(h)
    (value, slope), (value_alone, no_slope) = ag._gelu(h, True), ag._gelu(h, False)
    assert np.array_equal(value, gelu) and np.array_equal(value_alone, gelu) and no_slope is None
    assert np.array_equal(slope, gelu_grad(np.ones_like(h)))
    assert np.array_equal(g_h * slope, gelu_grad(g_h))
    assert np.array_equal(ag.layernorm(ag.Tensor(x), ag.Tensor(s), ag.Tensor(o)).data, ops[0][2][0])
    assert np.array_equal(ag.attention_probs(ag.Tensor(q), ag.Tensor(k), c).data, ops[1][2][0])


@pytest.mark.parametrize("images", [ag.ROW_MAX_BLOCK // 68 + 1, 64])
def test_row_max_in_blocks_equals_one_whole_copy_bitwise(images):
    # 4 heads of 17 queries give 68 score rows an image: one block and a
    # few rows, then a 64-image chunk's four blocks and a part.
    assert images * 68 > ag.ROW_MAX_BLOCK and images * 68 % ag.ROW_MAX_BLOCK
    rng = make_rng(66)
    q, k, g = (rng.normal(size=shape) for shape in [(images, 4, 17, 8), (images, 4, 8, 17), (images, 4, 17, 17)])
    c = 1.0 / np.sqrt(8)
    whole = (q @ k) * c
    whole -= np.ascontiguousarray(np.moveaxis(whole, -1, 0)).max(axis=0)[..., None]
    whole = np.exp(whole)
    whole /= np.add.reduce(whole, axis=-1, keepdims=True)
    leaves = [ag.Tensor(q, requires_grad=True), ag.Tensor(k, requires_grad=True)]
    taped = ag.attention_probs(*leaves, c)
    assert np.array_equal(taped.data, whole)
    assert np.array_equal(ag.attention_probs(ag.Tensor(q), ag.Tensor(k), c).data, whole)
    g_scores = (g - (g * whole).sum(axis=-1, keepdims=True)) * whole * c
    for got, want in zip(taped.grad_fn(g), (g_scores @ _t(k), _t(q) @ g_scores)):
        assert np.array_equal(got, want)


def test_mlp_without_a_tape_equals_the_taped_output():
    rng = make_rng(61)
    shapes = [(24, 17, 32), (1, 32), (1, 32), (128, 32), (1, 128), (32, 128), (1, 32)]
    arrays = [rng.normal(size=shape) for shape in shapes]
    inputs = [ag.Tensor(a) for a in arrays]
    with ag.differentiating(inputs):
        taped = ag.mlp(*inputs)
    assert taped.grad_fn is not None
    # The same inputs once the block has put their flags back go
    # unrecorded and give the same output.
    untaped = ag.mlp(*inputs)
    assert untaped.grad_fn is None
    assert np.array_equal(untaped.data, taped.data)


def _mlp_weights(rng):
    """The canonical model's layernorm and MLP weights, embed 32, hidden 128."""
    return [ag.Tensor(rng.normal(size=shape)) for shape in [(1, 32), (1, 32), (128, 32), (1, 128), (32, 128), (1, 32)]]


def test_mlp_without_a_gradient_runs_in_blocks_bitwise(monkeypatch):
    # 70 images: two full blocks and a partial one. A parent that needs a
    # gradient makes the op run the whole batch and keep its buffers.
    rng = make_rng(62)
    weights, x = _mlp_weights(rng), rng.normal(size=(70, 17, 32))
    whole = ag.mlp(ag.Tensor(x, requires_grad=True), *weights)
    assert whole.grad_fn is not None
    blocks = []
    real = ag._mlp

    def recording(x, *rest):
        blocks.append(len(x))
        return real(x, *rest)

    monkeypatch.setattr(ag, "_mlp", recording)
    blocked = ag.mlp(ag.Tensor(x), *weights)
    assert blocked.grad_fn is None and blocks == [32, 32, 6]
    assert np.array_equal(blocked.data, whole.data)


def test_mlp_without_a_gradient_holds_one_blocks_hidden_layer():
    # Four blocks' worth of images peak above one block's by their extra
    # output (and input, made beforehand here) alone; the whole batch's
    # hidden buffers would add about 15 times that.
    rng = make_rng(63)
    weights, peaks = _mlp_weights(rng), {}
    for images in (ag.MLP_BLOCK, 4 * ag.MLP_BLOCK):
        x = ag.Tensor(rng.normal(size=(images, 17, 32)))
        ag.mlp(x, *weights)
        peaks[images] = traced_peak(lambda: ag.mlp(x, *weights))
    extra_input_and_output = 2 * 3 * ag.MLP_BLOCK * 17 * 32 * 8
    assert peaks[4 * ag.MLP_BLOCK] - peaks[ag.MLP_BLOCK] <= extra_input_and_output


def _t(m):
    return np.swapaxes(m, -1, -2)


def _matmul_grads(a, b, g):
    """Parent gradients of a @ b; a batched gradient of a 2-D ``b`` is
    summed over the batch."""
    ga, gb = g @ _t(b), _t(a) @ g
    return ga, gb.sum(axis=0) if gb.ndim > b.ndim else gb


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("b_view", [False, True])
@pytest.mark.parametrize("frozen", [0, 1])
def test_matmul_skips_frozen_operand(batched, b_view, frozen):
    # Batched: both operands carry a batch axis, as in attention's
    # q @ k^T and probs @ v (k is frozen in the first block). With
    # ``b_view``, b is a transposed view, as attention's keys are.
    rng = make_rng(40)
    lead = (2,) if batched else ()
    a = rng.normal(size=lead + (3, 4))
    b = _t(rng.normal(size=lead + (2, 4))) if b_view else rng.normal(size=lead + (4, 2))
    leaves = [ag.Tensor(a, requires_grad=frozen != 0), ag.Tensor(b, requires_grad=frozen != 1)]
    out = ag.matmul(*leaves)
    g = rng.normal(size=out.shape)
    grads = out.grad_fn(g)
    assert grads[frozen] is None
    expected = _matmul_grads(a, b, g)[1 - frozen]
    assert np.array_equal(grads[1 - frozen], expected)


@pytest.mark.parametrize("frozen", [0, 1])
def test_batched_matmul_against_weight_skips_frozen_operand(frozen):
    # activation (batch, n, k) @ a 2-D (k, m) operand shared by the batch
    rng = make_rng(41)
    x, w = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
    out = ag.matmul(ag.Tensor(x, requires_grad=frozen != 0), ag.Tensor(w, requires_grad=frozen != 1))
    g = rng.normal(size=out.shape)
    grads = out.grad_fn(g)
    assert grads[frozen] is None
    expected = _matmul_grads(x, w, g)[1 - frozen]
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
    eps = ag.LAYERNORM_EPS
    assert eps == 1e-5
    out = ag.layernorm(
        ag.Tensor(x, requires_grad=not x_frozen),
        ag.Tensor(s, requires_grad=x_frozen),
        ag.Tensor(o, requires_grad=x_frozen),
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
    return _sum_all(ag.matmul(t, ag.Tensor(m)))


def _linear_build(bias_trainable, w_trainable, w_fixed):
    """A scalar tape through ``linear`` whose leaves are x, then W when
    trainable, then the bias when trainable (a constant otherwise), then
    the A stack and the B stack of a group, if any."""

    def build(x, *rest):
        rest = list(rest)
        w = rest.pop(0) if w_trainable else ag.Tensor(w_fixed)
        b = rest.pop(0) if bias_trainable else ag.Tensor(np.linspace(-1.0, 1.0, w.shape[0])[None])
        return _skewed_sum(ag.linear(x, w, b, *rest))

    return build


def _stack_shapes(n, d, r, k):
    """The shapes of a group's A and B stacks, none for a group of 0."""
    return [(n, r, k), (n, d, r)] if n else []


@pytest.mark.parametrize("n_parts", [0, 1, 3])
@pytest.mark.parametrize("bias_trainable", [False, True])
def test_linear_grad(n_parts, bias_trainable):
    # 3-D activation against a 2-D frozen weight, the projection in every layer
    w = make_rng(44).normal(size=(4, 5))
    shapes = [(2, 3, 5)] + ([(1, 4)] if bias_trainable else []) + _stack_shapes(n_parts, 4, 2, 5)
    _fd_check(_linear_build(bias_trainable, False, w), shapes)


def test_linear_grad_trainable_weight():
    shapes = [(2, 3, 5), (4, 5), (1, 4)] + _stack_shapes(2, 4, 1, 5)
    _fd_check(_linear_build(True, True, None), shapes)


def _close(got, ref):
    """Equal within 1e-12 of the reference's largest entry."""
    return got.shape == ref.shape and np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("x_shape", [(3, 5), (2, 3, 5)], ids=["2d", "3d"])
@pytest.mark.parametrize("n_parts", [0, 2])
def test_linear_matches_a_per_image_reference(x_shape, n_parts):
    # Forward and every gradient against products written out one image at
    # a time and summed over the batch afterwards; the op sums the weight
    # and factor gradients over all rows in one GEMM instead. Rows of a
    # 2-D x are images of one row.
    rng = make_rng(56)
    x, w, bias = rng.normal(size=x_shape), rng.normal(size=(4, 5)), rng.normal(size=(1, 4))
    a = [rng.normal(size=(2, 5)) for _ in range(n_parts)]
    b = [rng.normal(size=(4, 2)) for _ in range(n_parts)]
    g = rng.normal(size=x_shape[:-1] + (4,))
    stacks = [np.stack(a), np.stack(b)] if n_parts else []
    out = ag.linear(*[ag.Tensor(arr, requires_grad=True) for arr in [x, w, bias] + stacks])
    grads = out.grad_fn(g)

    rows = 1 if len(x_shape) == 2 else x_shape[1]
    xs, gs = x.reshape(-1, rows, 5), g.reshape(-1, rows, 4)
    ref_out = [xi @ w.T + sum((xi @ ai.T) @ bi.T for ai, bi in zip(a, b)) + bias for xi in xs]
    ref_gx = [gi @ w + sum((gi @ bi) @ ai for ai, bi in zip(a, b)) for gi in gs]
    ref = [
        np.reshape(ref_out, x_shape[:-1] + (4,)),
        np.reshape(ref_gx, x_shape),
        sum(gi.T @ xi for xi, gi in zip(xs, gs)),
        sum(gi.sum(axis=0, keepdims=True) for gi in gs),
    ]
    if n_parts:
        ref.append(np.stack([sum((gi @ bi).T @ xi for xi, gi in zip(xs, gs)) for bi in b]))
        ref.append(np.stack([sum(gi.T @ (xi @ ai.T) for xi, gi in zip(xs, gs)) for ai in a]))
    assert len(grads) == len(ref) - 1 == (5 if n_parts else 3)
    for got, want in zip([out.data] + list(grads), ref):
        assert _close(got, want)


P = 2  # adapted projections in the penalty tests
# The penalties are L1 norms: central differences hold only where no
# argument is within a step of 0, so the gradient tests check that.
H_PENALTY = 1e-5


def _away_from_kinks(args):
    assert np.abs(args).min() > 10 * H_PENALTY


@pytest.mark.parametrize("n", [1, 2, 4])
def test_preserve_args_grad(n):
    # The gradient of the preserve arguments' L1 norm, ``preserve_l1``.
    ws = [ag.Tensor(w) for w in make_rng(45).normal(size=(P, 5, 4))]
    shapes = [(n, 2, 4)] * P + [(n, 5, 2)] * P

    def build(*f):
        a, b = f[:P], f[P:]
        w = np.stack([t.data for t in ws])
        _away_from_kinks(ag._preserve_args(w, ag._stack_factors(a), ag._stack_factors(b))[0])
        return ag.preserve_l1(ws, a, b)

    _fd_check(build, shapes, h=H_PENALTY)


@pytest.mark.parametrize("n", [2, 4])
def test_diversify_args_grad(n):
    # The gradient of the diversify arguments' L1 norm, ``diversify_l1``.
    shapes = [(n, 2, 4)] * P + [(n, 5, 2)] * P

    def build(*f):
        a, b = f[:P], f[P:]
        _away_from_kinks(ag._diversify_args(ag._stack_factors(a), ag._stack_factors(b))[0])
        return ag.diversify_l1(a, b)

    _fd_check(build, shapes, h=H_PENALTY)


def test_penalty_ops_match_the_dense_form():
    # The rank-factored products against D_i = B_i A_i written out, and
    # each op the L1 norm of its kernel's arguments.
    rng = make_rng(46)
    a, b, w = rng.normal(size=(P, 3, 2, 4)), rng.normal(size=(P, 3, 5, 2)), rng.normal(size=(P, 5, 4))
    d = b @ a
    preserve = np.stack([[w[p].T @ d[p, i] for i in range(3)] for p in range(P)])
    diversify = np.stack([[d[p, i].T @ d[p, j] for i, j in ((0, 1), (0, 2), (1, 2))] for p in range(P)])
    pres_args, inner = ag._preserve_args(w, a, b)
    div_args, gram = ag._diversify_args(a, b)
    assert np.allclose(pres_args, preserve, rtol=1e-13, atol=1e-13)
    assert np.allclose(div_args, diversify, rtol=1e-13, atol=1e-13)
    assert np.allclose(inner, np.swapaxes(w, 1, 2)[:, None] @ b, rtol=1e-13, atol=1e-13)
    gram_ref = np.stack([[b[p, i].T @ b[p, j] for i, j in ((0, 1), (0, 2), (1, 2))] for p in range(P)])
    assert np.allclose(gram, gram_ref, rtol=1e-13, atol=1e-13)
    a_stacks, b_stacks = [ag.Tensor(stack) for stack in a], [ag.Tensor(stack) for stack in b]
    assert ag.preserve_l1([ag.Tensor(x) for x in w], a_stacks, b_stacks).data == np.abs(pres_args).sum()
    assert ag.diversify_l1(a_stacks, b_stacks).data == np.abs(div_args).sum()


def test_diversify_of_a_group_of_one_is_zero():
    # One module has no pair: an empty stack, a zero sum, zero gradients.
    rng = make_rng(55)
    a_stacks = [ag.Tensor(rng.normal(size=(1, 2, 4)), True) for _ in range(P)]
    b_stacks = [ag.Tensor(rng.normal(size=(1, 5, 2)), True) for _ in range(P)]
    args, gram = ag._diversify_args(ag._stack_factors(a_stacks), ag._stack_factors(b_stacks))
    assert args.shape == (P, 0, 4, 4) and gram.shape == (P, 0, 2, 2)
    total = ag.diversify_l1(a_stacks, b_stacks)
    assert total.shape == () and float(total.data) == 0.0
    leaves = a_stacks + b_stacks
    grad = ag.backprop(total, leaves)
    assert grad.shape == (sum(t.data.size for t in leaves),) and not grad.any()


def test_penalty_ops_reject_groups_of_different_shapes():
    rng = make_rng(54)
    w = ag.Tensor(rng.normal(size=(5, 4)))

    def factors(n, r):
        return ag.Tensor(rng.normal(size=(n, r, 4)), True), ag.Tensor(rng.normal(size=(n, 5, r)), True)

    for other in (factors(3, 2), factors(2, 3)):
        a0, b0 = factors(2, 2)
        with pytest.raises(ShapeError):
            ag.preserve_l1([w, w], [a0, other[0]], [b0, other[1]])
        with pytest.raises(ShapeError):
            ag.diversify_l1([a0, other[0]], [b0, other[1]])


def _fused_cases():
    rng = make_rng(47)
    x, w, bias = rng.normal(size=(2, 3, 5)), rng.normal(size=(4, 5)), rng.normal(size=(1, 4))
    a, b = rng.normal(size=(2, 2, 5)), rng.normal(size=(2, 4, 2))
    # A group of two modules on each of P projections for the penalty ops,
    # whose host weights are read as constants, even when they require a
    # gradient, and so are no parents.
    a_pen = [a] + [rng.normal(size=(2, 2, 5)) for _ in range(P - 1)]
    b_pen = [b] + [rng.normal(size=(2, 4, 2)) for _ in range(P - 1)]
    ws = [ag.Tensor(rng.normal(size=(4, 5)), requires_grad=True) for _ in range(P)]

    def penalty(op, *head):
        return a_pen + b_pen, lambda p: op(*head, p[:P], p[P:])

    def lin(p):
        return ag.linear(*p)

    # The MLP sublayer on x with a hidden width of 6; the embedding of
    # x's rows as patches, which are a plain array and so no parent; and
    # x's rows as queries against four keys.
    ln = [rng.normal(size=(1, 5)) for _ in range(2)]
    fc = [rng.normal(size=shape) for shape in [(6, 5), (1, 6), (5, 6), (1, 5)]]
    return {
        "linear": ([x, w, bias, a, b], lin),
        "linear_2d": ([x[0], w, bias, a, b], lin),
        "preserve_l1": penalty(ag.preserve_l1, ws),
        "diversify_l1": penalty(ag.diversify_l1),
        "mlp": ([x] + ln + fc, lambda p: ag.mlp(*p)),
        "embed": ([w, bias, rng.normal(size=(1, 4)), rng.normal(size=(4, 4))], lambda p: ag.embed(x, *p)),
        "attention_probs": ([x, rng.normal(size=(2, 5, 4))], lambda p: ag.attention_probs(*p, 0.7)),
    }


@pytest.mark.parametrize("op", ["linear", "linear_2d", "preserve_l1", "diversify_l1", "mlp", "embed", "attention_probs"])
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


def _tape_nodes(root):
    seen, stack, nodes = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) in seen or t.grad_fn is None:
            continue
        seen.add(id(t))
        nodes += 1
        stack.extend(t.parents)
    return nodes


def test_canonical_step_tape_size():
    # The training step of the benchmark's canonical config: N=4, r=4, batch 24.
    cfg = trainer.canonical_vit_config()
    model = vit.init_vit(cfg, make_rng(49))
    images = make_rng(51).random((24, cfg.image_size, cfg.image_size))
    labels = make_rng(52).integers(0, cfg.num_classes, 24)
    # A pretraining step: every weight but the key biases trains.
    with ag.differentiating(_pretrained_leaves(model)):
        assert 0 < _tape_nodes(vit.batch_loss_tensor(model, images, labels, 0.0).total) <= 100
    vit.inject_groups(model, rank=4, n=4, rng=make_rng(50))
    with ag.differentiating(vit.trainable_params(model).values()):
        assert 0 < _tape_nodes(vit.batch_loss_tensor(model, images, labels, 1e-3).total) <= 100


def _pretrained_leaves(model):
    """The tensors a pretraining step trains: every one but the key biases."""
    return [t for name, t in vit.named_params(model) if not name.endswith(".attn.wk.bias")]


def _step_heap_peak(model, images, labels, alpha, leaves):
    """The traced heap peak above its start of one forward and backprop
    on ``leaves``, after a first step."""

    def step():
        with ag.differentiating(leaves):
            ag.backprop(vit.batch_loss_tensor(model, images, labels, alpha).total, leaves)

    step()
    return traced_peak(step)


def test_canonical_steps_keep_only_what_their_backward_reads():
    # The MLP keeps GELU's slope, not its input and tanh, and the inputs
    # of trainable weights alone; attention keeps its probabilities, not
    # its raw and scaled scores. Adapter step: 3.7 MiB (5.5 when every
    # buffer was kept); pretraining step: 5.2 MiB (6.9).
    cfg = trainer.canonical_vit_config()
    model = vit.init_vit(cfg, make_rng(49))
    rng = make_rng(53)
    images, labels = rng.random((32, cfg.image_size, cfg.image_size)), rng.integers(0, cfg.num_classes, 32)
    assert _step_heap_peak(model, images, labels, 0.0, _pretrained_leaves(model)) <= 6.0 * 2**20
    vit.inject_groups(model, rank=4, n=4, rng=make_rng(50))
    leaves = list(vit.trainable_params(model).values())
    assert _step_heap_peak(model, images[:24], labels[:24], 1e-3, leaves) <= 4.5 * 2**20


@pytest.mark.parametrize("trained", [(5, 6), (3,), (4,), (1, 2), (0,)])
def test_mlp_with_some_parents_frozen_matches_every_parent_trainable(trained):
    # Parent order: x, ln scale, ln offset, fc1 w, fc1 b, fc2 w, fc2 b.
    rng = make_rng(66)
    arrays = [rng.normal(size=shape) for shape in [(2, 3, 5), (1, 5), (1, 5), (6, 5), (1, 6), (5, 6), (1, 5)]]
    g = rng.normal(size=(2, 3, 5))
    reference = ag.mlp(*[ag.Tensor(a, requires_grad=True) for a in arrays]).grad_fn(g)
    grads = ag.mlp(*[ag.Tensor(a, requires_grad=i in trained) for i, a in enumerate(arrays)]).grad_fn(g)
    for i, (got, want) in enumerate(zip(grads, reference)):
        assert got is None if i not in trained else np.array_equal(got, want)
    # What the backward reads: layernorm's buffers for x, the ln scale or
    # offset; fc1's input for fc1's weight; GELU's slope for any parent
    # below fc2; fc2's input for fc2's weight. The rest is None.
    need = tuple(i in trained for i in range(7))
    _, saved = ag._mlp(*arrays, need)
    reads = [any(need[:3]), need[3], any(need[:5]), need[5]]
    assert [entry is not None for entry in saved] == reads
    _, saved = ag._mlp(*arrays, (False,) * 7)
    assert saved == (None,) * 4


def test_each_penalty_is_one_node_on_the_adapter_factors():
    # The canonical adapter model: each penalty is a single 0-d node whose
    # parents are the A stacks of the 4 adapted projections, then their B
    # stacks, as the groups hold them.
    model = vit.init_vit(trainer.canonical_vit_config(), make_rng(49))
    vit.inject_groups(model, rank=4, n=4, rng=make_rng(50))
    layers = adapters.adapted_layers(model)
    stacks = [lin.group.a for lin in layers] + [lin.group.b for lin in layers]
    with ag.differentiating(vit.trainable_params(model).values()):
        penalties = adapters.loss_or_tensor(model)
    for penalty in penalties:
        assert penalty.shape == () and _tape_nodes(penalty) == 1
        assert len(penalty.parents) == len(stacks) == 8
        assert all(p is s for p, s in zip(penalty.parents, stacks))
        assert [p.shape for p in penalty.parents] == [(4, 4, 32)] * 4 + [(4, 32, 4)] * 4


def test_an_adapted_projection_is_one_node_on_its_two_stacks():
    # ``linear``'s parents are x, W, the bias and the group's A and B stacks.
    model = vit.init_vit(trainer.canonical_vit_config(), make_rng(49))
    vit.inject_groups(model, rank=4, n=4, rng=make_rng(50))
    lin = model.blocks[0].attn.wq
    with ag.differentiating(vit.trainable_params(model).values()):
        out = vit._linear(ag.Tensor(make_rng(51).normal(size=(2, 17, 32))), lin)
    assert len(out.parents) == 5
    assert out.parents[1:] == (lin.base, lin.bias, lin.group.a, lin.group.b)
