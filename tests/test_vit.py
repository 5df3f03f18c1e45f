import os
from dataclasses import replace

import numpy as np
import pytest
from conftest import assert_independent_copy, traced_peak

from pego import adapters, machine, trainer, vit
from pego import autograd as ag
from pego.errors import ConfigError, ShapeError
from pego.numerics import make_rng
from pego.vit import VitConfig, VitModel, extract_patches, init_vit, inject_groups


def _cfg(**overrides):
    base = dict(image_size=16, patch_size=4, embed_dim=32, num_blocks=2, num_heads=4, num_classes=4)
    base.update(overrides)
    return VitConfig(**base)


def _randomize_adapters(model, rng, scale=0.2):
    for name, arr in vit.named_arrays(model):
        if ".lora." in name:
            arr[...] = rng.normal(0, scale, arr.shape)


def test_init_is_deterministic():
    a = init_vit(_cfg(), make_rng(3))
    b = init_vit(_cfg(), make_rng(3))
    c = init_vit(_cfg(), make_rng(4))
    for (name, ta), (_, tb) in zip(vit.named_params(a), vit.named_params(b)):
        assert np.array_equal(ta.data, tb.data), name
    assert not np.array_equal(a.patch_w.data, c.patch_w.data)


def test_init_draws_the_weight_matrices_in_canonical_order():
    cfg = _cfg(num_blocks=3, mlp_ratio=2.0)
    model = init_vit(cfg, make_rng(7))
    drawn = ["patch_embed.w", "class_token", "pos_embed"]
    for b in range(cfg.num_blocks):
        drawn += [f"blocks.{b}.attn.{p}.base" for p in ("wq", "wk", "wv", "wo")]
        drawn += [f"blocks.{b}.mlp.fc1.w", f"blocks.{b}.mlp.fc2.w"]
    drawn.append("head.w")
    rng = make_rng(7)
    params = dict(vit.named_params(model))
    for name in drawn:
        assert np.array_equal(params[name].data, rng.normal(0.0, 0.02, params[name].data.shape)), name
    with ag.differentiating(vit.trainable_params(model).values()):
        for name, t in params.items():
            if name not in drawn:
                assert np.array_equal(t.data, np.full(t.data.shape, 1.0 if name.endswith(".scale") else 0.0)), name
            assert t.requires_grad == vit.is_trainable_name(name), name
    assert params["blocks.2.mlp.fc1.w"].data.shape == (cfg.hidden_dim, cfg.embed_dim)


def test_token_count_and_head_dim():
    cfg = _cfg()
    assert cfg.num_patches == 16
    assert cfg.seq_len == 17
    assert cfg.head_dim == 8
    assert _cfg(embed_dim=64, num_heads=4).head_dim == 16


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(image_size=15)
    with pytest.raises(ConfigError):
        _cfg(embed_dim=30)
    with pytest.raises(ConfigError):
        _cfg(num_blocks=0)
    with pytest.raises(ConfigError):
        _cfg(num_classes=1)
    with pytest.raises(ConfigError, match="image size 15 not divisible by patch size 4"):
        replace(_cfg(), image_size=15)


def test_extract_patches_layout():
    image = np.arange(16.0).reshape(4, 4)
    patches = extract_patches(image[None], 2)[0]
    assert patches.shape == (4, 4)
    assert np.array_equal(patches[0], image[0:2, 0:2].ravel())
    assert np.array_equal(patches[1], image[0:2, 2:4].ravel())
    assert np.array_equal(patches[3], image[2:4, 2:4].ravel())


def test_param_names_follow_the_checkpoint_scheme():
    # A checkpoint names each module's factors, module by module after the
    # projection's bias; the model's parameters are the groups' stacks.
    model = init_vit(_cfg(), make_rng(0))
    inject_groups(model, rank=2, n=2, rng=make_rng(1))
    ordered = list(vit.model_to_arrays(model))
    names = set(ordered)
    start = ordered.index("blocks.0.attn.wq.bias") + 1
    assert ordered[start : start + 5] == [f"blocks.0.attn.wq.lora.{i}.{f}" for i in (0, 1) for f in "AB"] + [
        "blocks.0.attn.wk.base"
    ]
    params = dict(vit.named_params(model))
    assert [n for n in params if ".lora." in n] == [
        f"blocks.{b}.attn.{p}.lora.{f}" for b in (0, 1) for p in ("wq", "wv") for f in "AB"
    ]
    assert params["blocks.0.attn.wq.lora.A"].shape == (2, 2, 32)
    assert params["blocks.0.attn.wq.lora.B"].shape == (2, 32, 2)
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


def test_the_canonical_adapted_model_trains_two_stacks_per_projection_and_the_head():
    model = init_vit(trainer.canonical_vit_config(), make_rng(49))
    inject_groups(model, rank=4, n=4, rng=make_rng(50))
    params = vit.trainable_params(model)
    assert len(params) == 10 and list(params)[-2:] == ["head.w", "head.b"]
    assert [t.shape for n, t in params.items() if ".lora." in n] == [(4, 4, 32), (4, 32, 4)] * 4


def test_trainable_set_is_exactly_adapters_and_head():
    model = init_vit(_cfg(), make_rng(0))
    inject_groups(model, rank=2, n=2, rng=make_rng(1))
    with ag.differentiating(vit.trainable_params(model).values()):
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
    before = vit.model_to_arrays(base)
    adapted = vit.clone(base)
    assert_independent_copy(adapted, base, before)
    inject_groups(adapted, rank=4, n=4, rng=make_rng(6))
    images = make_rng(7).random((6, 16, 16))
    assert np.array_equal(
        vit.forward_logits_batch(base, images), vit.forward_logits_batch(adapted, images)
    )
    # a clone of a model whose trainable tensors are views into one flat
    # vector, as ``train`` leaves them
    trainer.flatten_params(vit.trainable_params(adapted))
    before = vit.model_to_arrays(adapted)
    assert_independent_copy(vit.clone(adapted), adapted, before)


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
    real_probs = ag.attention_probs

    def recording(q, k, c):
        out = real_probs(q, k, c)
        captured.append(np.array(out.data))
        return out

    monkeypatch.setattr(ag, "attention_probs", recording)
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
        group = (lin.group.a, lin.group.b) if lin.group is not None else ()
        return ag.linear(x, lin.base, lin.bias, *group)

    def heads(t):
        return ag.transpose(ag.reshape(t, (bs, n, h, dh)), (0, 2, 1, 3))

    patches = extract_patches(images, cfg.patch_size)
    x = ag.embed(patches, model.patch_w, model.patch_b, model.class_token, model.pos_embed)
    for blk in model.blocks:
        z = ag.layernorm(x, blk.ln1_scale, blk.ln1_offset)
        q, k, v = (heads(proj(z, lin)) for lin in (blk.attn.wq, blk.attn.wk, blk.attn.wv))
        probs = ag.attention_probs(q, ag.transpose(k, (0, 1, 3, 2)), 1.0 / np.sqrt(dh))
        ctx = ag.reshape(ag.transpose(ag.matmul(probs, v), (0, 2, 1, 3)), (bs, n, d))
        x = ag.add(x, proj(ctx, blk.attn.wo))
        x = ag.mlp(x, blk.ln2_scale, blk.ln2_offset, blk.fc1_w, blk.fc1_b, blk.fc2_w, blk.fc2_b)
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
        with ag.differentiating(params.values()):
            feats = features(model, images)
            logits = ag.linear(feats, model.head_w, model.head_b)
            grad = ag.backprop(ag.cross_entropy_mean(logits, labels), params.values())
        return feats.data, dict(zip(params, np.split(grad, np.cumsum([t.data.size for t in params.values()])[:-1])))

    feats, grads = features_and_grads(vit.batch_features_tensor)
    ref_feats, ref_grads = features_and_grads(_full_sequence_features)
    assert np.abs(feats - ref_feats).max() <= 1e-12 * np.abs(ref_feats).max()
    for name, ref in ref_grads.items():
        assert np.abs(grads[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name


def test_a_no_grad_chunk_holds_only_live_activations():
    # One forward chunk of the canonical adapted model: each sublayer frees
    # its inputs after their last reader, attention copies its scores for
    # the row max one block of rows at a time, and GELU ends in its tanh's
    # buffer, so the peak sits in block 0's attention, at its input, q, k,
    # v, the scores and one block's copy (1941 KiB traced; 2409 KiB with a
    # copy of all scores and GELU's output in a third buffer, and 3328 KiB
    # when a block also held its input, ln1's output, q/k/v and the MLP's
    # hidden layer to the end).
    cfg = trainer.canonical_vit_config()
    model = init_vit(cfg, make_rng(49))
    inject_groups(model, rank=4, n=4, rng=make_rng(50))
    images = make_rng(51).random((vit.FORWARD_CHUNK, cfg.image_size, cfg.image_size))

    def forward():
        vit.batch_logits_tensor(model, images)

    forward()
    assert traced_peak(forward) <= 2.15 * 2**20


def test_no_grad_forwards_run_in_chunks(monkeypatch):
    model = init_vit(_cfg(), make_rng(28))
    inject_groups(model, rank=2, n=2, rng=make_rng(29))
    _randomize_adapters(model, make_rng(30))
    images = make_rng(31).random((2 * vit.FORWARD_CHUNK + 5, 16, 16))
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


def _record_across_the_split(monkeypatch, calls):
    """Route ``machine.map_split`` through a wrapper whose workers send
    back, with each chunk's result, what the forward appended to ``calls``
    while computing it; after each split ``calls`` holds every chunk's
    record in chunk order. A forked worker's own appends never reach
    this process."""
    real = machine.map_split

    def split(fn, items, workers):
        before = len(calls)

        def run(item):
            start = len(calls)
            return fn(item), calls[start:]

        pairs = real(run, items, workers)
        del calls[before:]
        calls.extend(record for _, records in pairs for record in records)
        return [out for out, _ in pairs]

    monkeypatch.setattr(machine, "map_split", split)


def test_threaded_forwards_equal_one_thread_bitwise(monkeypatch):
    # A budget of 2 splits a forward of 17 chunks: this process computes
    # the first 8 and a forked child the other 9.
    model = init_vit(_cfg(), make_rng(32))
    inject_groups(model, rank=2, n=2, rng=make_rng(33))
    _randomize_adapters(model, make_rng(34))
    full_chunks = 2 * vit.FORWARD_CHUNKS_PER_WORKER  # the fewest that fork a second worker
    images = make_rng(35).random((full_chunks * vit.FORWARD_CHUNK + 5, 16, 16))
    real = vit.batch_features_tensor
    calls = []

    def recording(m, x):
        calls.append((len(x), os.getpid()))
        return real(m, x)

    monkeypatch.setattr(vit, "batch_features_tensor", recording)
    _record_across_the_split(monkeypatch, calls)
    outputs = {}
    for budget in (1, 2):
        monkeypatch.setattr(machine, "thread_budget", lambda: budget)
        del calls[:]
        outputs[budget] = (vit.features_batch(model, images), vit.forward_logits_batch(model, images), list(calls))
    (feats1, logits1, calls1), (feats2, logits2, calls2) = outputs[1], outputs[2]
    assert np.array_equal(feats2, feats1) and np.array_equal(logits2, logits1)
    expected = sorted([vit.FORWARD_CHUNK] * 2 * full_chunks + [5] * 2)
    assert sorted(n for n, _ in calls2) == sorted(n for n, _ in calls1) == expected
    main = os.getpid()
    assert all(pid == main for _, pid in calls1)
    here = (full_chunks + 1) // 2
    for forward in (calls2[: full_chunks + 1], calls2[full_chunks + 1 :]):
        pids = [pid for _, pid in forward]
        assert pids[:here] == [main] * here
        assert len(set(pids[here:])) == 1 and pids[-1] != main


@pytest.mark.parametrize("chunks", [4, 7, 2 * vit.FORWARD_CHUNKS_PER_WORKER - 1, 2 * vit.FORWARD_CHUNKS_PER_WORKER])
def test_a_forward_starts_threads_only_with_enough_chunks_per_thread(monkeypatch, forks, chunks):
    # Training's validation (4 chunks) and held-out (7 chunks) passes stay
    # in the calling process; a budget of 2 forks one child for a pass
    # only from 2 * FORWARD_CHUNKS_PER_WORKER chunks up.
    calls = []

    def forward(m, x):
        calls.append(os.getpid())
        return ag.Tensor(np.zeros((len(x), 1)))

    monkeypatch.setattr(machine, "thread_budget", lambda: 2)
    _record_across_the_split(monkeypatch, calls)
    images = np.zeros(((chunks - 1) * vit.FORWARD_CHUNK + 1, 16, 16))
    out = vit._no_grad_chunks(forward, init_vit(_cfg(), make_rng(40)), images)
    assert out.shape == (len(images), 1) and len(calls) == chunks
    split = chunks >= 2 * vit.FORWARD_CHUNKS_PER_WORKER and machine.CAN_FORK
    assert len(forks) == (1 if split else 0)
    main = os.getpid()
    assert calls[: chunks // 2] == [main] * (chunks // 2)
    assert all((pid != main) == split for pid in calls[chunks // 2 :]) and len(set(calls)) <= 2


@pytest.mark.parametrize("budget", [1, 2])
def test_forwards_on_a_list_of_arrays_equal_the_concatenated_array(monkeypatch, budget):
    # 50 + 100 + 37 images go in chunks of 64, 64 and 59 either way: the
    # first and last chunks cross an array boundary and are copied, the
    # middle one is a view into the second array. One chunk per worker
    # lets the three chunks fork a child at a budget of 2. Each chunk is
    # recorded by its size and whether it is a view, computed where the
    # chunk runs.
    model = init_vit(_cfg(), make_rng(41))
    inject_groups(model, rank=2, n=2, rng=make_rng(42))
    _randomize_adapters(model, make_rng(43))
    arrays = [make_rng(44, i).random((n, 16, 16)) for i, n in enumerate((50, 100, 37))]
    monkeypatch.setattr(machine, "thread_budget", lambda: budget)
    monkeypatch.setattr(vit, "FORWARD_CHUNKS_PER_WORKER", 1)
    real = vit.batch_features_tensor
    chunks = []

    def recording(m, x):
        views = [np.shares_memory(x, a) for a in arrays]
        chunks.append((len(x), any(views), views[1]))
        return real(m, x)

    monkeypatch.setattr(vit, "batch_features_tensor", recording)
    _record_across_the_split(monkeypatch, chunks)
    outputs = {}
    for key, images in (("list", arrays), ("array", np.concatenate(arrays))):
        del chunks[:]
        forwards = (vit.features_batch(model, images), vit.forward_logits_batch(model, images))
        outputs[key] = forwards + (vit.predict_batch(model, images), list(chunks))
    *listed, list_chunks = outputs["list"]
    *whole, array_chunks = outputs["array"]
    for got, want in zip(listed, whole):
        assert np.array_equal(got, want)
    assert sorted(n for n, _, _ in list_chunks) == sorted(n for n, _, _ in array_chunks) == [59] * 3 + [64] * 6
    views = [c for c in list_chunks if c[1]]
    assert len(views) == 3 and all(n == 64 and of_second for n, _, of_second in views)


def test_logits_do_not_depend_on_the_images_beside_them():
    # trainer.evaluate scores its domains in one forward: three domains
    # of 80 images are chunked 64 + 64 + 64 + 48 there and 64 + 16 per
    # domain here, and no GEMM of a chunk mixes rows.
    model = init_vit(_cfg(), make_rng(36))
    inject_groups(model, rank=2, n=2, rng=make_rng(37))
    _randomize_adapters(model, make_rng(38))
    domains = [make_rng(39, i).random((80, 16, 16)) for i in range(3)]
    per_domain = np.concatenate([vit.forward_logits_batch(model, d) for d in domains])
    assert np.array_equal(vit.forward_logits_batch(model, np.concatenate(domains)), per_domain)


def test_thread_budget_is_the_affinity_capped_by_pego_threads(monkeypatch):
    cores = len(os.sched_getaffinity(0))
    monkeypatch.delenv("PEGO_THREADS", raising=False)
    assert machine.thread_budget() == cores
    monkeypatch.setenv("PEGO_THREADS", "1")
    assert machine.thread_budget() == 1
    monkeypatch.setenv("PEGO_THREADS", str(cores + 3))
    assert machine.thread_budget() == cores
    for bad in ("0", "-2", "two", "²"):
        monkeypatch.setenv("PEGO_THREADS", bad)
        with pytest.raises(ConfigError):
            machine.thread_budget()


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
