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
    # the last block queries with the class token alone
    assert [probs.shape for probs in captured] == [(3, 4, 17, 17), (3, 4, 1, 17)]
    for probs in captured:
        assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-12


def _full_sequence_features(model, images):
    """Class-token features with every block run on all rows, narrowed to
    the class token only after the last block."""
    cfg = model.cfg
    bs, n, d, h, dh = len(images), cfg.seq_len, cfg.embed_dim, cfg.num_heads, cfg.head_dim

    def proj(x, lin):
        a, b = lin.group.factors() if lin.group is not None else ((), ())
        return ag.linear(x, lin.base, lin.bias, a, b)

    def heads(t):
        return ag.transpose(ag.reshape(t, (bs, n, h, dh)), (0, 2, 1, 3))

    x = ag.linear(ag.constant(extract_patches(images, cfg.patch_size)), model.patch_w, model.patch_b)
    cls = ag.broadcast_to(ag.reshape(model.class_token, (1, 1, d)), (bs, 1, d))
    x = ag.add(ag.concat(cls, x, axis=1), model.pos_embed)
    for blk in model.blocks:
        z = ag.layernorm(x, blk.ln1_scale, blk.ln1_offset)
        q, k, v = (heads(proj(z, lin)) for lin in (blk.attn.wq, blk.attn.wk, blk.attn.wv))
        probs = ag.softmax_last(ag.scale(ag.matmul(q, k, transpose_b=True), 1.0 / np.sqrt(dh)))
        ctx = ag.reshape(ag.transpose(ag.matmul(probs, v), (0, 2, 1, 3)), (bs, n, d))
        x = ag.add(x, proj(ctx, blk.attn.wo))
        m = ag.gelu(ag.linear(ag.layernorm(x, blk.ln2_scale, blk.ln2_offset), blk.fc1_w, blk.fc1_b))
        x = ag.add(x, ag.linear(m, blk.fc2_w, blk.fc2_b))
    cls_out = ag.reshape(ag.narrow(x, 1, 0, 1), (bs, d))
    return ag.layernorm(cls_out, model.final_ln_scale, model.final_ln_offset)


@pytest.mark.parametrize("num_blocks", [1, 2])
def test_class_token_only_last_block_matches_the_full_sequence(num_blocks):
    model = init_vit(_cfg(num_blocks=num_blocks), make_rng(23))
    inject_groups(model, rank=2, n=2, rng=make_rng(24))
    _randomize_adapters(model, make_rng(25))
    images = make_rng(26).random((5, 16, 16))
    labels = make_rng(27).integers(0, 4, 5)
    params = vit.trainable_params(model)

    def features_and_grads(features):
        feats = features(model, images)
        ag.backprop(ag.cross_entropy_mean(ag.linear(feats, model.head_w, model.head_b), labels))
        grads = {name: t.grad for name, t in params.items()}
        for t in params.values():
            t.grad = None
        return feats.data, grads

    feats, grads = features_and_grads(vit.batch_features_tensor)
    ref_feats, ref_grads = features_and_grads(_full_sequence_features)
    assert np.abs(feats - ref_feats).max() <= 1e-12 * np.abs(ref_feats).max()
    for name, ref in ref_grads.items():
        assert np.abs(grads[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name


def test_no_grad_forwards_run_in_chunks(monkeypatch):
    model = init_vit(_cfg(), make_rng(28))
    inject_groups(model, rank=2, n=2, rng=make_rng(29))
    _randomize_adapters(model, make_rng(30))
    images = make_rng(31).random((2 * vit.FORWARD_CHUNK + 5, 16, 16))
    with ag.no_grad():
        whole_feats = vit.batch_features_tensor(model, images).data
        whole_logits = vit.batch_logits_tensor(model, images).data
    sizes = []
    real = vit.batch_features_tensor

    def recording(m, x):
        sizes.append(len(x))
        return real(m, x)

    monkeypatch.setattr(vit, "batch_features_tensor", recording)
    feats = vit.features_batch(model, images)
    logits = vit.forward_logits_batch(model, images)
    assert sizes == [vit.FORWARD_CHUNK, vit.FORWARD_CHUNK, 5] * 2
    # Features are per image bitwise; the head's 2-D GEMM sums in another
    # order for another number of rows.
    assert np.array_equal(feats, whole_feats)
    assert np.abs(logits - whole_logits).max() <= 1e-14 * np.abs(whole_logits).max()


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
