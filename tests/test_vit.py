import numpy as np
import pytest

from pego import adapters, vit
from pego import autograd as ag
from pego.errors import ConfigError, ShapeError
from pego.numerics import make_rng
from pego.vit import VitConfig, VitModel, extract_patches, init_vit, inject_groups


def _cfg(**overrides):
    base = dict(image_size=16, patch_size=4, embed_dim=32, num_blocks=2, num_heads=4, num_classes=4)
    base.update(overrides)
    return VitConfig(**base)


def _randomize_adapters(model, rng, scale=0.2):
    for name, t in vit.named_params(model):
        if ".lora." in name:
            t.data[...] = rng.normal(0, scale, t.data.shape)


def test_init_is_deterministic():
    a = init_vit(_cfg(), make_rng(3))
    b = init_vit(_cfg(), make_rng(3))
    c = init_vit(_cfg(), make_rng(4))
    for (name, ta), (_, tb) in zip(vit.named_params(a), vit.named_params(b)):
        assert np.array_equal(ta.data, tb.data), name
    assert not np.array_equal(a.patch_w.data, c.patch_w.data)


def test_token_count_and_head_dim():
    cfg = _cfg()
    assert cfg.num_patches == 16
    assert cfg.seq_len == 17
    assert cfg.head_dim == 8
    assert _cfg(embed_dim=64, num_heads=4).head_dim == 16


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(image_size=15).validate()
    with pytest.raises(ConfigError):
        _cfg(embed_dim=30).validate()
    with pytest.raises(ConfigError):
        _cfg(num_blocks=0).validate()
    with pytest.raises(ConfigError):
        _cfg(num_classes=1).validate()


def test_extract_patches_layout():
    image = np.arange(16.0).reshape(4, 4)
    patches = extract_patches(image[None], 2)[0]
    assert patches.shape == (4, 4)
    assert np.array_equal(patches[0], image[0:2, 0:2].ravel())
    assert np.array_equal(patches[1], image[0:2, 2:4].ravel())
    assert np.array_equal(patches[3], image[2:4, 2:4].ravel())


def test_param_names_follow_the_checkpoint_scheme():
    model = init_vit(_cfg(), make_rng(0))
    inject_groups(model, rank=2, n=2, rng=make_rng(1))
    names = {n for n, _ in vit.named_params(model)}
    expected = {
        "patch_embed.w",
        "patch_embed.b",
        "class_token",
        "pos_embed",
        "blocks.0.attn.wq.base",
        "blocks.0.attn.wq.lora.0.A",
        "blocks.0.attn.wq.lora.1.B",
        "blocks.1.attn.wv.lora.0.B",
        "blocks.1.mlp.fc1.w",
        "final_ln.scale",
        "head.w",
        "head.b",
    }
    assert expected <= names
    assert not any(".lora." in n for n in names if ".wk." in n or ".wo." in n)


def test_trainable_set_is_exactly_adapters_and_head():
    model = init_vit(_cfg(), make_rng(0))
    inject_groups(model, rank=2, n=2, rng=make_rng(1))
    for name, t in vit.named_params(model):
        expected = name.startswith("head.") or (".lora." in name and name.endswith((".A", ".B")))
        assert vit.is_trainable_name(name) == expected
        assert t.requires_grad == expected


def test_adapter_placement():
    model = init_vit(_cfg(), make_rng(0))
    inject_groups(model, rank=2, n=3, rng=make_rng(1))
    for block in model.blocks:
        assert block.attn.wq.group is not None and block.attn.wq.group.n == 3
        assert block.attn.wv.group is not None
        assert block.attn.wk.group is None
        assert block.attn.wo.group is None


def test_zero_adapter_identity_is_exact():
    base = init_vit(_cfg(), make_rng(5))
    adapted = vit.clone(base)
    inject_groups(adapted, rank=4, n=4, rng=make_rng(6))
    images = make_rng(7).random((6, 16, 16))
    assert np.array_equal(
        vit.forward_logits_batch(base, images), vit.forward_logits_batch(adapted, images)
    )


def test_merge_equivalence_on_random_models():
    rng = make_rng(8)
    for trial in range(5):
        model = init_vit(_cfg(), make_rng(100 + trial))
        inject_groups(model, rank=2, n=2, rng=make_rng(200 + trial))
        _randomize_adapters(model, rng)
        merged = adapters.merge_all(model)
        images = make_rng(300 + trial).random((4, 16, 16))
        diff = np.abs(
            vit.forward_logits_batch(model, images) - vit.forward_logits_batch(merged, images)
        ).max()
        assert diff <= 1e-9


def test_forward_is_finite_on_random_inputs():
    model = init_vit(_cfg(), make_rng(9))
    images = make_rng(10).normal(size=(100, 16, 16))
    logits = vit.forward_logits_batch(model, images)
    assert np.all(np.isfinite(logits))


def test_zero_head_gives_zero_logits():
    model = init_vit(_cfg(), make_rng(11))
    model.head_w.data[...] = 0.0
    model.head_b.data[...] = 0.0
    assert np.array_equal(vit.forward_logits_batch(model, make_rng(12).random((1, 16, 16))), np.zeros((1, 4)))


def test_predict_tie_breaks_to_lowest_index():
    model = init_vit(_cfg(), make_rng(13))
    model.head_w.data[...] = 0.0
    model.head_b.data[...] = 0.0
    assert vit.predict_batch(model, make_rng(14).random((1, 16, 16))).tolist() == [0]


def test_argmax_invariant_under_constant_logit_shift():
    model = init_vit(_cfg(), make_rng(15))
    img = make_rng(16).random((1, 16, 16))
    before = vit.predict_batch(model, img)
    model.head_b.data[...] += 3.7
    assert np.array_equal(vit.predict_batch(model, img), before)


def test_attention_rows_sum_to_one(monkeypatch):
    model = init_vit(_cfg(), make_rng(17))
    captured = []
    real_softmax = ag.softmax_last

    def recording(x):
        out = real_softmax(x)
        captured.append(np.array(out.data))
        return out

    monkeypatch.setattr(ag, "softmax_last", recording)
    with ag.no_grad():
        vit.batch_logits_tensor(model, make_rng(18).random((3, 16, 16)))
    assert len(captured) == 2
    for probs in captured:
        assert probs.shape == (3, 4, 17, 17)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-12


def test_forward_shape_errors():
    model = init_vit(_cfg(), make_rng(19))
    with pytest.raises(ShapeError):
        vit.forward_logits_batch(model, np.zeros((1, 8, 8)))
    with pytest.raises(ShapeError):
        vit.forward_logits_batch(model, np.zeros((2, 16, 8)))


def test_arrays_roundtrip_is_bitwise():
    model = init_vit(_cfg(), make_rng(20))
    inject_groups(model, rank=2, n=2, rng=make_rng(21))
    _randomize_adapters(model, make_rng(22))
    rebuilt = vit.model_from_arrays(model.cfg, vit.model_to_arrays(model))
    assert isinstance(rebuilt, VitModel)
    for (name, ta), (_, tb) in zip(vit.named_params(model), vit.named_params(rebuilt)):
        assert np.array_equal(ta.data, tb.data), name
        assert ta.requires_grad == tb.requires_grad
