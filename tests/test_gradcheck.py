import numpy as np
import pytest

from pego import autograd as ag
from pego import vit
from pego.adapters import final_loss
from pego.errors import ConfigError, InconclusiveCheckError, NumericError
from pego.gradcheck import backward, central_diff, finite_diff, gather_grads, grad_check, make_probe_model
from pego.numerics import make_rng


@pytest.fixture(scope="module")
def probe():
    return make_probe_model(0)


def test_backward_loss_matches_forward_only_loss(probe):
    model, batch = probe
    for alpha in (0.0, 1e-3, 0.1):
        loss, _, _ = backward(model, batch, alpha)
        assert loss == final_loss(model, batch, alpha)


def test_gradient_set_contains_exactly_the_trainables(probe):
    model, batch = probe
    _, grads, _ = backward(model, batch, 1e-3)
    trainable = {n for n, _ in vit.named_params(model) if vit.is_trainable_name(n)}
    assert set(grads) == trainable
    for name, g in grads.items():
        assert g.shape == vit.get_param(model, name).data.shape
        assert np.all(np.isfinite(g))
    # one vector holds them all, in trainable-parameter order
    assert np.array_equal(grads.flat, np.concatenate([g.ravel() for g in grads.values()]))
    assert list(grads) == list(vit.trainable_params(model))
    assert all(np.shares_memory(g, grads.flat) for g in grads.values())


def test_gathered_non_finite_gradient_names_its_parameter():
    params = {name: ag.Tensor(np.ones(shape), requires_grad=True) for name, shape in (("a", (2, 2)), ("b", (1, 3)))}
    params["a"].grad = np.zeros((2, 2))
    assert np.array_equal(gather_grads(params), np.zeros(7))
    params["b"].grad = np.array([[0.0, np.inf, 0.0]])
    with pytest.raises(NumericError, match="parameter b$"):
        gather_grads(params)


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
    _, grads, _ = backward(model, batch, 0.0)
    assert np.allclose(grads["head.b"], p.mean(axis=0, keepdims=True), atol=1e-12)


def test_fresh_group_diversify_gradient_is_zero():
    # With B = 0 both factors of every pairwise product vanish, so the
    # diversify term contributes nothing to any gradient.
    model, batch = make_probe_model(1)
    for name, t in vit.named_params(model):
        if ".lora." in name and name.endswith(".B"):
            t.data[...] = 0.0
    _, with_div, _ = backward(model, batch, 1.0, preserve_on=False, diversify_on=True)
    _, without, _ = backward(model, batch, 0.0)
    for name in with_div:
        assert np.array_equal(with_div[name], without[name]), name


def test_central_diff_quadratic_probe():
    assert central_diff(lambda p: p * p, 3.0, 1e-5) == pytest.approx(6.0, abs=1e-9)


def test_l1_of_product_gradient_away_from_kinks():
    rng = make_rng(30)
    w = ag.constant(rng.normal(0, 1.0, (4, 4)))
    a = ag.Tensor(rng.normal(0, 1.0, (2, 4)), requires_grad=True)
    b = ag.Tensor(rng.normal(0, 1.0, (4, 2)), requires_grad=True)

    def loss_tensor():
        return ag.abs_sum(ag.matmul(ag.transpose(w, (1, 0)), ag.matmul(b, a)))

    argument = w.data.T @ (b.data @ a.data)
    h = 1e-5
    assert np.abs(argument).min() > 10 * h
    out = loss_tensor()
    ag.backprop(out)
    for leaf in (a, b):
        flat = leaf.data.reshape(-1)
        grad = leaf.grad.reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]

            def f(p):
                flat[idx] = p
                with ag.no_grad():
                    return float(loss_tensor().data)

            num = (f(saved + h) - f(saved - h)) / (2 * h)
            flat[idx] = saved
            assert abs(num - grad[idx]) / max(abs(num), abs(grad[idx]), 1e-8) < 1e-5


def test_finite_diff_error_shrinks_quadratically(probe):
    # On the smooth cross-entropy-only loss, halving h cuts the
    # truncation error by about four.
    model, batch = probe
    _, grads, _ = backward(model, batch, 0.0)
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


def test_grad_check_inconclusive_when_arguments_sit_at_zero():
    # A fresh group keeps every L1 argument at exactly zero, so all the
    # adapter probes are ambiguous and too few survive.
    model, batch = make_probe_model(2)
    for name, t in vit.named_params(model):
        if ".lora." in name and name.endswith(".B"):
            t.data[...] = 0.0
    with pytest.raises(InconclusiveCheckError):
        grad_check(model, batch, 1e-3, 100, make_rng(43))

