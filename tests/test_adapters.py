import itertools

import numpy as np
import pytest
from conftest import assert_independent_copy, feature_orthogonality_gap, penalty_values, stack_group

from pego import autograd as ag
from pego import gradcheck, trainer, vit
from pego.adapters import (
    AdaptedLinear,
    LoraModule,
    adapted_layers,
    group_delta,
    init_group,
    merge_all,
)
from pego.autograd import Tensor
from pego.data import Batch
from pego.errors import ConfigError, InputError
from pego.numerics import make_rng, numerical_rank, svd
from pego.vit import VitConfig, init_vit, inject_groups


def _module(b, a):
    return LoraModule(a=Tensor(np.asarray(a, dtype=float)), b=Tensor(np.asarray(b, dtype=float)))


def _layer(w, modules=None):
    w = np.asarray(w, dtype=float)
    group = stack_group(modules) if modules else None
    return AdaptedLinear(base=Tensor(w), bias=Tensor(np.zeros((1, w.shape[0]))), group=group)


def _preserve(layer):
    return penalty_values(layer)[0]


def _diversify(group):
    """The diversify value of ``group``, which needs no host weight."""
    d, k = group.modules[0].b.shape[0], group.modules[0].a.shape[1]
    return penalty_values(_layer(np.zeros((d, k)), group.modules))[1]


def _random_group(d, k, r, n, rng, scale=0.5):
    mods = [
        _module(rng.normal(0, scale, (d, r)), rng.normal(0, scale, (r, k)))
        for _ in range(n)
    ]
    return stack_group(mods)


def _small_model(seed=0, n=2, r=2):
    cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=1, num_heads=2, mlp_ratio=2.0, num_classes=2)
    model = init_vit(cfg, make_rng(seed))
    inject_groups(model, rank=r, n=n, rng=make_rng(seed, 1))
    return model


def _randomize_adapters(model, rng, scale=0.2):
    for name, arr in vit.named_arrays(model):
        if ".lora." in name:
            arr[...] = rng.normal(0, scale, arr.shape)


class TestInitGroup:
    def test_fresh_group_has_zero_delta(self):
        group = init_group(6, 5, 2, 3, make_rng(0))
        assert np.abs(group_delta(group)).sum() == 0.0

    def test_fresh_layer_has_zero_losses_exactly(self):
        group = init_group(6, 5, 2, 3, make_rng(0))
        layer = _layer(make_rng(1).normal(size=(6, 5)), modules=group.modules)
        assert penalty_values(layer) == (0.0, 0.0)

    def test_same_seed_gives_identical_a_matrices(self):
        g1 = init_group(4, 4, 2, 2, make_rng(5))
        g2 = init_group(4, 4, 2, 2, make_rng(5))
        for m1, m2 in zip(g1.modules, g2.modules):
            assert np.array_equal(m1.a.data, m2.a.data)
            assert np.array_equal(m1.b.data, np.zeros_like(m1.b.data))

    def test_one_stacked_draw_is_each_module_drawn_in_turn(self):
        # A fresh group draws its A stack at once; a module-by-module draw
        # gives the same matrices and leaves the stream where it does.
        rng, per_module = make_rng(5), make_rng(5)
        group = init_group(4, 3, 2, 3, rng)
        for m in group.modules:
            assert np.array_equal(m.a.data, per_module.normal(0.0, 0.02, (2, 3)))
        assert rng.random() == per_module.random()

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigError):
            init_group(4, 4, 5, 2, make_rng(0))
        with pytest.raises(ConfigError):
            init_group(4, 4, 2, 0, make_rng(0))


def _adapted_linear(layer, x):
    """The model's projection (``ag.linear``) of row-stacked inputs through ``layer``."""
    return vit._linear(ag.Tensor(x), layer).data


class TestAdaptedForward:
    def test_zero_b_reduces_to_base(self):
        rng = make_rng(2)
        w = rng.normal(size=(4, 3))
        layer = _layer(w, modules=init_group(4, 3, 2, 2, rng).modules)
        x = rng.normal(size=(5, 3))
        assert np.array_equal(_adapted_linear(layer, x), _adapted_linear(_layer(w), x))

    def test_worked_example(self):
        layer = _layer(np.eye(2), modules=[_module([[1.0], [0.0]], [[0.0, 1.0]])])
        out = _adapted_linear(layer, np.array([[3.0, 4.0]]))
        assert np.array_equal(out, np.array([[7.0, 4.0]]))

    def test_matches_dense_path(self):
        rng = make_rng(3)
        w = rng.normal(size=(6, 5))
        layer = _layer(w, modules=_random_group(6, 5, 2, 3, rng).modules)
        x = rng.normal(size=(4, 5))
        dense = x @ (w + group_delta(layer.group)).T
        out = _adapted_linear(layer, x)
        assert np.abs(out - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())


class TestLossPreserve:
    def test_worked_example(self):
        layer = _layer(np.eye(2), modules=[_module([[1.0], [0.0]], [[0.0, 1.0]])])
        # W^T (BA) = [[0, 1], [0, 0]], so the L1 norm is 1
        assert _preserve(layer) == pytest.approx(1.0, abs=1e-15)

    def test_zero_when_update_in_null_space_of_w_transpose(self):
        # W's columns span e2, e3; B's column is e0, so W^T B = 0
        w = np.zeros((4, 2))
        w[2, 0] = 1.0
        w[3, 1] = 1.0
        b = np.zeros((4, 1))
        b[0, 0] = 1.0
        layer = _layer(w, modules=[_module(b, [[0.5, -1.0]])])
        assert _preserve(layer) == 0.0

    def test_sums_over_modules(self):
        rng = make_rng(4)
        w = rng.normal(size=(5, 5))
        group = _random_group(5, 5, 2, 3, rng)
        total = sum(
            float(np.abs(w.T @ (m.b.data @ m.a.data)).sum()) for m in group.modules
        )
        layer = _layer(w, modules=group.modules)
        assert _preserve(layer) == pytest.approx(total, rel=1e-15)


class TestLossDiversify:
    def test_single_module_is_zero(self):
        assert _diversify(_random_group(4, 4, 2, 1, make_rng(0))) == 0.0

    def test_orthogonal_updates_give_zero(self):
        g = stack_group(
            [
                _module([[1.0], [0.0]], [[1.0, 0.0]]),  # B1 A1 = [[1,0],[0,0]]
                _module([[0.0], [1.0]], [[0.0, 1.0]]),  # B2 A2 = [[0,0],[0,1]]
            ]
        )
        assert _diversify(g) == 0.0

    def test_identical_updates_worked_example(self):
        mods = [_module([[1.0], [0.0]], [[1.0, 0.0]]) for _ in range(2)]
        assert _diversify(stack_group(mods)) == pytest.approx(1.0, abs=1e-15)

    def test_permutation_invariance(self):
        rng = make_rng(6)
        group = _random_group(6, 6, 2, 3, rng)
        reference = _diversify(group)
        for perm in itertools.permutations(group.modules):
            permuted = _diversify(stack_group(list(perm)))
            assert abs(permuted - reference) <= 1e-12 * max(1.0, reference)


class TestLossComposition:
    def test_loss_or_fresh_model_is_zero(self):
        assert penalty_values(_small_model()) == (0.0, 0.0)

    def test_doubling_all_b_scales_terms(self):
        rng = make_rng(9)
        w = rng.normal(size=(6, 6))
        group = _random_group(6, 6, 2, 3, rng)

        def preserve_terms(g):
            return [float(np.abs(w.T @ (m.b.data @ m.a.data)).sum()) for m in g.modules]

        def diversify_terms(g):
            deltas = [m.b.data @ m.a.data for m in g.modules]
            return [
                float(np.abs(deltas[i].T @ deltas[j]).sum())
                for i in range(len(deltas))
                for j in range(i + 1, len(deltas))
            ]

        before_p = preserve_terms(group)
        before_d = diversify_terms(group)
        doubled = stack_group([_module(2.0 * m.b.data, m.a.data) for m in group.modules])
        for got, want in zip(preserve_terms(doubled), before_p):
            assert got == pytest.approx(2.0 * want, rel=1e-12)
        for got, want in zip(diversify_terms(doubled), before_d):
            assert got == pytest.approx(4.0 * want, rel=1e-12)

    def test_scaling_one_module_b_is_linear_per_term(self):
        rng = make_rng(10)
        w = rng.normal(size=(6, 6))
        group = _random_group(6, 6, 2, 3, rng)
        scaled_modules = [
            _module(2.0 * m.b.data, m.a.data) if i == 0 else _module(m.b.data, m.a.data)
            for i, m in enumerate(group.modules)
        ]
        scaled = stack_group(scaled_modules)
        deltas = [m.b.data @ m.a.data for m in group.modules]
        deltas_s = [m.b.data @ m.a.data for m in scaled.modules]
        assert np.abs(w.T @ deltas_s[0]).sum() == pytest.approx(2.0 * np.abs(w.T @ deltas[0]).sum(), rel=1e-12)
        assert np.abs(w.T @ deltas_s[1]).sum() == pytest.approx(np.abs(w.T @ deltas[1]).sum(), rel=1e-12)
        for j in (1, 2):
            pair = np.abs(deltas_s[0].T @ deltas_s[j]).sum()
            assert pair == pytest.approx(2.0 * np.abs(deltas[0].T @ deltas[j]).sum(), rel=1e-12)
        untouched = np.abs(deltas_s[1].T @ deltas_s[2]).sum()
        assert untouched == pytest.approx(np.abs(deltas[1].T @ deltas[2]).sum(), rel=1e-12)

    def test_losses_are_nonnegative(self):
        rng = make_rng(11)
        for _ in range(10):
            layer = _layer(rng.normal(size=(5, 4)), modules=_random_group(5, 4, 2, 3, rng).modules)
            assert _preserve(layer) >= 0.0
            assert _diversify(layer.group) >= 0.0


def _final_loss(model, batch, alpha):
    """The training objective's value, as the gradient oracle reads it."""
    return float(vit.batch_loss_tensor(model, batch.images, batch.labels, alpha).total.data)


class TestFinalLoss:
    def test_alpha_zero_is_cross_entropy(self):
        model = _small_model()
        _randomize_adapters(model, make_rng(12))
        images = make_rng(13).random((4, 8, 8))
        labels = np.array([0, 1, 0, 1])
        batch = Batch(images=images, labels=labels)
        logits = vit.forward_logits_batch(model, images)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        ce = float(-logp[np.arange(4), labels].mean())
        assert _final_loss(model, batch, alpha=0.0) == pytest.approx(ce, abs=1e-12)

    def test_fresh_model_zero_head_gives_log_classes(self):
        model = _small_model()
        model.head_w.data[...] = 0.0
        model.head_b.data[...] = 0.0
        batch = Batch(images=make_rng(14).random((3, 8, 8)), labels=np.array([0, 1, 1]))
        assert _final_loss(model, batch, alpha=1e-3) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_input_validation(self):
        model = _small_model()
        empty = Batch(images=np.zeros((0, 8, 8)), labels=np.zeros(0, dtype=int))
        with pytest.raises(InputError, match="empty batch"):
            gradcheck.backward(model, empty, 0.0, vit.trainable_params(model), True, True)


class TestMerge:
    def test_zero_b_merge_is_bitwise_identity(self):
        model = _small_model()
        # the trainable tensors as views into one flat vector, as ``train`` leaves them
        trainer.flatten_params(vit.trainable_params(model))
        before = vit.model_to_arrays(model)
        merged = merge_all(model)
        assert adapted_layers(merged) == []
        after = vit.model_to_arrays(merged)
        assert all(".lora." not in name for name in after)
        for name, arr in after.items():
            assert np.array_equal(arr, before[name]), name
        assert_independent_copy(merged, model, before)
        with ag.differentiating(vit.trainable_params(merged).values()):
            assert [n for n, t in vit.named_params(merged) if t.requires_grad] == ["head.w", "head.b"]

    def test_worked_example(self):
        layer = _layer(np.eye(2), modules=[_module([[1.0], [0.0]], [[0.0, 1.0]])])
        merged = layer.base.data + group_delta(layer.group)
        assert np.array_equal(merged, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_logits_agree_after_merge(self):
        model = _small_model(n=3, r=2)
        _randomize_adapters(model, make_rng(16))
        merged = merge_all(model)
        images = make_rng(17).random((20, 8, 8))
        diff = np.abs(vit.forward_logits_batch(model, images) - vit.forward_logits_batch(merged, images))
        assert diff.max() <= 1e-10

    def test_logits_are_bitwise_equal_after_merge(self):
        # The adapted forward multiplies by W + B A, and merge-back adds the
        # same B A; two blocks cover the all-token and class-row paths.
        cfg = VitConfig(
            image_size=8, patch_size=4, embed_dim=8, num_blocks=2, num_heads=2, mlp_ratio=2.0, num_classes=3
        )
        model = init_vit(cfg, make_rng(25))
        inject_groups(model, rank=2, n=3, rng=make_rng(25, 1))
        _randomize_adapters(model, make_rng(26))
        merged = merge_all(model)
        images = make_rng(27).random((20, 8, 8))
        assert np.array_equal(vit.forward_logits_batch(model, images), vit.forward_logits_batch(merged, images))

    def test_prediction_invariant_under_merge(self):
        model = _small_model(n=2, r=2)
        _randomize_adapters(model, make_rng(18))
        merged = merge_all(model)
        for i in range(5):
            img = make_rng(19, i).random((1, 8, 8))
            assert np.array_equal(vit.predict_batch(model, img), vit.predict_batch(merged, img))


class TestFeatureOrthogonalityGap:
    def test_fresh_group_both_sides_zero(self):
        layer = _layer(make_rng(20).normal(size=(4, 4)), modules=init_group(4, 4, 2, 2, make_rng(21)).modules)
        assert feature_orthogonality_gap(layer, np.ones(4)) == 0.0

    def test_gap_is_rounding_level(self):
        rng = make_rng(22)
        layer = _layer(rng.normal(size=(6, 6)), modules=_random_group(6, 6, 2, 2, rng).modules)
        assert feature_orthogonality_gap(layer, rng.normal(size=6)) < 1e-10

    def test_hundred_random_trials(self):
        rng = make_rng(23)
        worst = 0.0
        for _ in range(100):
            layer = _layer(rng.normal(size=(8, 8)), modules=_random_group(8, 8, 2, 3, rng).modules)
            worst = max(worst, feature_orthogonality_gap(layer, rng.normal(size=8)))
        assert worst < 1e-9


def test_rank_bound_on_random_groups():
    rng = make_rng(24)
    for _ in range(20):
        d = int(rng.integers(4, 12))
        k = int(rng.integers(4, 12))
        r = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        delta = group_delta(_random_group(d, k, r, n, rng))
        rank = numerical_rank(svd(delta).s, 1e-10)
        assert rank <= min(d, k, n * r)
