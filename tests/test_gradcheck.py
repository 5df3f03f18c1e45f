from dataclasses import replace

import numpy as np
import pytest
from conftest import marked

from pego import adapters, vit
from pego import autograd as ag
from pego.errors import ConfigError, InconclusiveCheckError, NumericError
from pego.gradcheck import backward, central_diff, check_finite, finite_diff, grad_check, make_probe_model
from pego.numerics import make_rng


@pytest.fixture(scope="module")
def probe():
    return make_probe_model(0)


def _grads_by_name(model, batch, alpha, preserve_on=True, diversify_on=True):
    """``backward``'s gradient vector cut into one array per trainable
    parameter, shaped like it."""
    params = vit.trainable_params(model)
    _, grad, _ = backward(model, batch, alpha, params, preserve_on, diversify_on)
    bounds = np.cumsum([0] + [t.data.size for t in params.values()])
    assert grad.shape == (bounds[-1],)
    return {
        name: grad[start:stop].reshape(t.data.shape)
        for (name, t), start, stop in zip(params.items(), bounds[:-1], bounds[1:])
    }


def test_backward_loss_matches_forward_only_loss(probe):
    model, batch = probe
    for alpha in (0.0, 1e-3, 0.1):
        loss, _, _ = backward(model, batch, alpha, vit.trainable_params(model), True, True)
        assert loss == float(vit.batch_loss_tensor(model, batch.images, batch.labels, alpha).total.data)


def test_backward_vector_is_the_backprop_gradients_end_to_end(probe):
    model, batch = probe
    params = vit.trainable_params(model)
    _, grad, _ = backward(model, batch, 1e-3, params, True, True)
    with ag.differentiating(params.values()):
        terms = vit.batch_loss_tensor(model, batch.images, batch.labels, 1e-3)
        expected = ag.backprop(terms.total, params.values())
    assert np.all(np.isfinite(grad))
    assert np.array_equal(grad, expected)


def test_backward_puts_the_flags_back_when_it_returns_and_when_it_raises(probe, monkeypatch):
    # The parameters need a gradient while the tape is built and walked,
    # and no tensor of the model does before or after, also when the
    # finite check fails inside the block.
    model, batch = probe
    params = vit.trainable_params(model)
    seen = []
    real_backprop = ag.backprop

    def recording(root, leaves):
        seen.append(marked(model))
        return real_backprop(root, leaves)

    monkeypatch.setattr(ag, "backprop", recording)
    assert marked(model) == []
    backward(model, batch, 1e-3, params, True, True)
    assert marked(model) == []
    images = batch.images.copy()
    images[0, 0, 0] = np.nan
    with pytest.raises(NumericError, match="non-finite gradient"):
        backward(model, replace(batch, images=images), 1e-3, params, True, True)
    assert seen == [list(params)] * 2
    assert marked(model) == []


def test_non_finite_gradient_names_its_parameter():
    params = {name: ag.Tensor(np.ones(shape), requires_grad=True) for name, shape in (("a", (2, 2)), ("b", (1, 3)))}
    grad = np.zeros(7)
    check_finite(params, grad)
    grad[5] = np.inf
    with pytest.raises(NumericError, match="parameter b$"):
        check_finite(params, grad)


def test_frozen_gradient_request_is_an_error(probe):
    model, batch = probe
    with pytest.raises(ConfigError, match="frozen"):
        finite_diff(model, batch, 0.0, "patch_embed.w", 0, 1e-5)


def test_head_bias_gradient_matches_closed_form(probe):
    model, batch = probe
    logits = vit.forward_logits_batch(model, batch.images)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(len(batch.labels)), batch.labels] -= 1.0
    grads = _grads_by_name(model, batch, 0.0)
    assert np.allclose(grads["head.b"], p.mean(axis=0, keepdims=True), atol=1e-12)


def _zero_b(model):
    for name, t in vit.named_params(model):
        if ".lora." in name and name.endswith(".B"):
            t.data[...] = 0.0


def test_fresh_group_diversify_gradient_is_zero():
    # With B = 0 both factors of every pairwise product vanish, so the
    # diversify term contributes nothing to any gradient.
    model, batch = make_probe_model(1)
    _zero_b(model)
    with_div = _grads_by_name(model, batch, 1.0, preserve_on=False, diversify_on=True)
    without = _grads_by_name(model, batch, 0.0)
    for name in with_div:
        assert np.array_equal(with_div[name], without[name]), name


def test_central_diff_quadratic_probe():
    assert central_diff(lambda p: p * p, 3.0, 1e-5) == pytest.approx(6.0, abs=1e-9)


def test_l1_of_product_gradient_away_from_kinks():
    rng = make_rng(30)
    w = ag.Tensor(rng.normal(0, 1.0, (4, 4)))
    a = ag.Tensor(rng.normal(0, 1.0, (1, 2, 4)))
    b = ag.Tensor(rng.normal(0, 1.0, (1, 4, 2)))

    def loss_tensor():
        return ag.preserve_l1([w], [a], [b])  # ||W^T B A||_1, a group of one

    argument = w.data.T @ (b.data[0] @ a.data[0])
    h = 1e-5
    assert np.abs(argument).min() > 10 * h
    with ag.differentiating([a, b]):
        grads = np.split(ag.backprop(loss_tensor(), [a, b]), [a.data.size])
    for leaf, grad in zip((a, b), grads):
        flat = leaf.data.reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]

            def f(p):
                flat[idx] = p
                return float(loss_tensor().data)

            num = (f(saved + h) - f(saved - h)) / (2 * h)
            flat[idx] = saved
            assert abs(num - grad[idx]) / max(abs(num), abs(grad[idx]), 1e-8) < 1e-5


def test_finite_diff_error_shrinks_quadratically(probe):
    # On the smooth cross-entropy-only loss, halving h cuts the
    # truncation error by about four.
    model, batch = probe
    grads = _grads_by_name(model, batch, 0.0)
    name = "head.w"
    entry = int(np.argmax(np.abs(grads[name])))
    exact = grads[name].reshape(-1)[entry]
    h = 0.05
    err_h = abs(finite_diff(model, batch, 0.0, name, entry, h) - exact)
    err_h2 = abs(finite_diff(model, batch, 0.0, name, entry, h / 2) - exact)
    assert err_h2 > 0
    assert 2.0 < err_h / err_h2 < 8.0


def test_grad_check_passes_on_probe_model(probe):
    model, batch = probe
    assert grad_check(model, batch, 0.0, 80, make_rng(40)) < 1e-6
    assert grad_check(model, batch, 1e-3, 80, make_rng(41)) < 1e-5


def test_grad_check_is_deterministic(probe):
    model, batch = probe
    a = grad_check(model, batch, 1e-3, 40, make_rng(42))
    b = grad_check(model, batch, 1e-3, 40, make_rng(42))
    assert a == b


def test_grad_check_passes_on_a_fresh_group():
    # With every B_i = 0 each L1 argument is exactly zero, but no argument
    # moves along an A entry, so the A probes are checked; the B probes
    # move arguments at zero and are skipped.
    model, batch = make_probe_model(2)
    _zero_b(model)
    assert grad_check(model, batch, 1e-3, 100, make_rng(43)) < 1e-5


def test_grad_check_inconclusive_when_arguments_sit_at_zero():
    # Cancelling pairs: each A_i's two rows are equal and each B_i's two
    # columns opposite, so every B_i A_i and every L1 argument is zero up
    # to rounding while both factors are nonzero. Every adapter probe then
    # moves an argument at zero, and too few probes survive.
    model, batch = make_probe_model(2)
    for name, t in vit.named_params(model):
        if ".lora." in name and name.endswith(".A"):
            t.data[:, 1] = t.data[:, 0]
        elif ".lora." in name and name.endswith(".B"):
            t.data[..., 1] = -t.data[..., 0]
    for lin in adapters.adapted_layers(model):
        assert np.any(lin.group.a.data) and np.any(lin.group.b.data)
        assert np.abs(lin.group.b.data @ lin.group.a.data).max() < 1e-15  # zero up to rounding
    with pytest.raises(InconclusiveCheckError, match="probes were unambiguous"):
        grad_check(model, batch, 1e-3, 100, make_rng(43))
