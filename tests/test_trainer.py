import logging
import multiprocessing
import os
import re
import time
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from conftest import marked, traced_peak

from pego import autograd as ag
from pego import adapters, checkpoint, gradcheck, machine, trainer, vit
from pego.data import DatasetSpec, DomainDataset, generate_dataset, split_train_val
from pego.errors import ConfigError
from pego.numerics import make_rng
from pego.trainer import (
    AdamState,
    TrainConfig,
    adam_init,
    adam_step,
    canonical_vit_config,
    leave_one_domain_out,
    pretrain_base,
    run_single,
    stderr,
    sweep_n,
    train,
)
from pego.vit import VitConfig, init_vit


def _tiny_vit():
    return VitConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=1, num_heads=2, mlp_ratio=2.0, num_classes=2)


def _tiny_cfg(**overrides):
    defaults = dict(
        iterations=6,
        eval_every=3,
        batch_per_domain=4,
        group_n=2,
        rank=2,
        seed=0,
        vit=_tiny_vit(),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(DatasetSpec(domains=4, classes=2, per_class=6, image_size=8), seed=0)


@pytest.fixture(scope="module")
def tiny_base():
    return init_vit(_tiny_vit(), make_rng(99))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.alpha == 1e-3
        assert cfg.rank == 4
        assert cfg.lr == 5e-4
        assert cfg.val_fraction == 0.2
        assert cfg.n_search == (2, 4, 6)
        assert cfg.batch_per_domain == 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            _tiny_cfg(alpha=-1.0)
        with pytest.raises(ConfigError):
            _tiny_cfg(val_fraction=1.5)
        with pytest.raises(ConfigError):
            _tiny_cfg(lr=0.0)
        with pytest.raises(ConfigError):
            _tiny_cfg(group_n=0)

    def test_a_negative_seed_is_rejected(self):
        _tiny_cfg(seed=0)
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
            _tiny_cfg(seed=-1)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(n_search=()), "candidate group sizes"),
            (dict(n_search=(0, 2)), "candidate group sizes"),
            (dict(n_search=(2, 4, 2)), "candidate group sizes"),
            (dict(rank=9), "rank 9 exceeds the embed dim 8"),
        ],
        ids=["empty", "below-one", "repeated", "rank-above-embed-dim"],
    )
    def test_group_sizes_and_rank_are_validated(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            _tiny_cfg(**overrides)

    def test_a_built_config_stays_valid(self):
        cfg = _tiny_cfg()
        with pytest.raises(ConfigError, match="learning rate must be positive, got 0.0"):
            replace(cfg, lr=0.0)
        with pytest.raises(FrozenInstanceError):
            cfg.lr = 1.0

    def test_dict_roundtrip(self):
        cfg = _tiny_cfg(alpha=0.5, n_search=(2, 6))
        again = TrainConfig.from_dict(asdict(cfg))
        assert again == cfg

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"rank": "4"}, "rank must be of type int"),
            ({"alpha": "0.1"}, "alpha must be of type float"),
            ({"iterations": 2.5}, "iterations must be of type int"),
            ({"seed": 1.5}, "seed must be of type int"),
            ({"preserve_on": "no"}, "preserve_on must be of type bool"),
            ({"diversify_on": 1}, "diversify_on must be of type bool"),
            ({"batch_per_domain": True}, "batch_per_domain must be of type int"),
            ({"n_search": ["a"]}, "candidate group sizes must be a list of integers"),
            ({"n_search": [2.7]}, "candidate group sizes must be a list of integers"),
            ({"n_search": 4}, "candidate group sizes must be a list of integers"),
        ],
        ids=[
            "rank-str",
            "alpha-str",
            "iterations-float",
            "seed-float",
            "preserve_on-str",
            "diversify_on-int",
            "batch_per_domain-bool",
            "n_search-str-entry",
            "n_search-float-entry",
            "n_search-int",
        ],
    )
    def test_mistyped_fields_are_rejected(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig.from_dict(raw)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"alhpa": 1.0})


def _flat(params):
    return np.concatenate([p.ravel() for p in params.values()])


class TestAdam:
    def test_zero_gradient_leaves_params_and_increments_t(self):
        params = {"p": np.array([[1.0, -2.0]])}
        flat = _flat(params)
        state = adam_init(flat.size)
        adam_step(flat, np.zeros(2), state, lr=0.1)
        assert np.array_equal(flat, np.array([1.0, -2.0]))
        assert state.t == 1

    def test_first_step_hand_computed(self):
        # g = 1: bias correction gives m_hat = v_hat = 1, so the update is
        # lr / (1 + eps), within eps of lr itself.
        params = {"p": np.array([[3.0]])}
        flat = _flat(params)
        state = adam_init(flat.size)
        adam_step(flat, np.array([1.0]), state, lr=0.1)
        assert flat[0] == pytest.approx(3.0 - 0.1, abs=1e-7)

    def test_lr_zero_is_identity(self):
        rng = make_rng(1)
        params = {"p": rng.normal(size=(3, 3))}
        flat = _flat(params)
        state = adam_init(flat.size)
        before = flat.copy()
        for _ in range(5):
            adam_step(flat, rng.normal(size=9), state, lr=0.0)
        assert np.array_equal(flat, before)

    def test_trajectory_is_deterministic(self):
        def run():
            rng = make_rng(2)
            params = {"p": np.ones((2, 2))}
            flat = _flat(params)
            state = adam_init(flat.size)
            for _ in range(10):
                adam_step(flat, rng.normal(size=4), state, lr=0.01)
            return flat

        assert np.array_equal(run(), run())

    def test_state_shapes(self):
        state = adam_init(10)
        assert isinstance(state, AdamState)
        assert state.m.shape == (10,) and state.v.shape == (10,) and state.t == 0
        assert (trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPS) == (0.9, 0.999, 1e-8)

    def test_flat_step_equals_a_per_tensor_loop_bitwise(self):
        rng = make_rng(3)
        shapes = {"a": (4, 3), "b": (2, 4), "head": (1, 5)}
        tensors = {k: ag.Tensor(rng.normal(size=s)) for k, s in shapes.items()}
        loop = {k: np.array(t.data) for k, t in tensors.items()}
        flat = trainer.flatten_params(tensors)
        state = adam_init(flat.size)
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        for t in range(1, 8):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            adam_step(flat, _flat(grads), state, lr=0.01)
            c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for k, g in grads.items():
                m[k] *= 0.9
                m[k] += (1.0 - 0.9) * g
                v[k] *= 0.999
                v[k] += (1.0 - 0.999) * (g * g)
                loop[k] -= 0.01 * (m[k] / c1) / (np.sqrt(v[k] / c2) + 1e-8)
            for k, t_ in tensors.items():
                assert np.array_equal(t_.data, loop[k]), k
        assert all(np.shares_memory(t.data, flat) for t in tensors.values())


class TestEvaluate:
    @pytest.fixture
    def uneven(self, tiny_dataset):
        # Domains of 12, 5 and 9 images, so a mean of per-domain
        # accuracies differs from the per-image accuracy.
        sizes = {"d0": 12, "d1": 5, "d2": 9}
        return DomainDataset(
            domains=list(sizes),
            images={d: tiny_dataset.images[d][:n] for d, n in sizes.items()},
            labels={d: tiny_dataset.labels[d][:n] for d, n in sizes.items()},
            num_classes=2,
        )

    def test_one_forward_weighted_by_samples(self, uneven, monkeypatch):
        model = init_vit(_tiny_vit(), make_rng(7))
        model.head_w.data[...] = make_rng(8).normal(0.0, 1.0, model.head_w.data.shape)
        hits = {d: int(np.sum(vit.predict_batch(model, uneven.images[d]) == uneven.labels[d])) for d in uneven.domains}
        assert len({hits[d] / len(uneven.labels[d]) for d in hits}) > 1
        calls = []
        real = vit.predict_batch

        def counting(m, images):
            # evaluate hands over the domains' arrays as a list, uncopied.
            calls.append(sum(len(a) for a in images))
            return real(m, images)

        monkeypatch.setattr(vit, "predict_batch", counting)
        assert trainer.evaluate(model, uneven) == sum(hits.values()) / 26
        assert calls == [26]
        assert trainer.evaluate(model, uneven, ["d2", "d0"]) == (hits["d2"] + hits["d0"]) / 21
        assert calls == [26, 21]

    def test_a_read_holds_no_copy_of_the_images(self, monkeypatch):
        # Doubling the dataset grows evaluate's traced heap peak by its
        # per-image outputs (logits, predictions, labels), about 65 bytes
        # an image, not by a copy of the 512-byte images.
        monkeypatch.setenv("PEGO_THREADS", "1")
        model = init_vit(_tiny_vit(), make_rng(7))
        peaks = {}
        for per_domain in (150, 300):
            rng = make_rng(9, per_domain)
            domains = ["d0", "d1", "d2"]
            dataset = DomainDataset(
                domains=domains,
                images={d: rng.random((per_domain, 8, 8)) for d in domains},
                labels={d: np.arange(per_domain) % 2 for d in domains},
                num_classes=2,
            )
            trainer.evaluate(model, dataset)
            peaks[per_domain] = traced_peak(lambda: trainer.evaluate(model, dataset))
        extra_image_bytes = 3 * 150 * 8 * 8 * 8
        assert peaks[300] - peaks[150] < extra_image_bytes / 4

    def test_an_empty_domain_list_is_an_error(self, uneven):
        model = init_vit(_tiny_vit(), make_rng(7))
        with pytest.raises(ConfigError, match="at least one domain"):
            trainer.evaluate(model, uneven, [])

    def test_an_unknown_domain_is_an_error_naming_the_datasets_domains(self, uneven):
        model = init_vit(_tiny_vit(), make_rng(7))
        with pytest.raises(ConfigError, match=r"unknown domain d9: the dataset has \['d0', 'd1', 'd2'\]"):
            trainer.evaluate(model, uneven, ["d0", "d9"])


class TestTrain:
    def test_history_and_cadence_bookkeeping(self, tiny_dataset, tiny_base):
        cfg = _tiny_cfg(iterations=7, eval_every=3)
        result = train(tiny_base, tiny_dataset.without("d3"), cfg)
        assert len(result.history) == 7
        evaluated = [row.iteration for row in result.history if row.val_acc is not None]
        assert evaluated == [3, 6, 7]
        assert result.selected_iter in evaluated
        assert 0.0 <= result.best_val_acc <= 1.0

    def test_zero_iterations_returns_base_backbone(self, tiny_dataset, tiny_base):
        result = train(tiny_base, tiny_dataset.without("d3"), _tiny_cfg(iterations=0))
        assert result.history == []
        assert adapters.adapted_layers(result.model) == []
        base_arrays = vit.model_to_arrays(tiny_base)
        merged_arrays = vit.model_to_arrays(result.model)
        for name, arr in merged_arrays.items():
            if not name.startswith("head."):
                assert np.array_equal(arr, base_arrays[name]), name

    def test_frozen_backbone_is_bitwise_invariant(self, tiny_dataset, tiny_base):
        before = vit.model_to_arrays(tiny_base)
        result = train(tiny_base, tiny_dataset.without("d0"), _tiny_cfg(iterations=5))
        after = vit.model_to_arrays(result.adapted)
        for name in after:
            if not vit.is_trainable_name(name):
                assert np.array_equal(after[name], before[name]), name

    def test_a_changed_frozen_weight_is_named(self, tiny_dataset, tiny_base, monkeypatch):
        real_backward = gradcheck.backward

        def tampering(model, *args):
            out = real_backward(model, *args)
            model.blocks[0].attn.wk.base.data[0, 0] += 1.0
            return out

        monkeypatch.setattr(gradcheck, "backward", tampering)
        with pytest.raises(RuntimeError, match=r"frozen parameter blocks\.0\.attn\.wk\.base changed"):
            train(tiny_base, tiny_dataset.without("d3"), _tiny_cfg(iterations=2))

    def test_training_actually_updates_trainables(self, tiny_dataset, tiny_base):
        result = train(tiny_base, tiny_dataset.without("d0"), _tiny_cfg(iterations=5))
        arrays = vit.model_to_arrays(result.adapted)
        assert any(np.abs(arrays[n]).sum() > 0 for n in arrays if n.endswith(".B"))

    def test_determinism_across_runs(self, tiny_dataset, tiny_base):
        cfg = _tiny_cfg(iterations=5)
        r1 = train(tiny_base, tiny_dataset.without("d1"), cfg)
        r2 = train(tiny_base, tiny_dataset.without("d1"), cfg)
        a1 = vit.model_to_arrays(r1.model)
        a2 = vit.model_to_arrays(r2.model)
        for name in a1:
            assert np.array_equal(a1[name], a2[name]), name
        assert [row.loss_cls for row in r1.history] == [row.loss_cls for row in r2.history]

    def test_best_snapshot_is_restored(self, tiny_dataset, tiny_base):
        # Validation accuracy ties on this data, so the first evaluation
        # is selected; a run cut there ends on the same parameters.
        full = train(tiny_base, tiny_dataset.without("d0"), _tiny_cfg(iterations=8, eval_every=2))
        assert full.selected_iter < 8
        cut = train(tiny_base, tiny_dataset.without("d0"), _tiny_cfg(iterations=full.selected_iter, eval_every=2))
        expected = vit.model_to_arrays(cut.adapted)
        for name, arr in vit.model_to_arrays(full.adapted).items():
            assert np.array_equal(arr, expected[name]), name

    def test_adapted_checkpoint_bytes_equal_those_of_a_clone(self, tiny_dataset, tiny_base, tmp_path):
        # Training leaves the trainable tensors as views into one vector.
        result = train(tiny_base, tiny_dataset.without("d0"), _tiny_cfg(iterations=3))
        checkpoint.save_model(tmp_path / "adapted.ckpt", result.adapted)
        checkpoint.save_model(tmp_path / "clone.ckpt", vit.clone(result.adapted))
        assert (tmp_path / "adapted.ckpt").read_bytes() == (tmp_path / "clone.ckpt").read_bytes()

    def test_modules_view_the_trained_stacks_and_checkpoints_name_each_module(self, tiny_dataset, tiny_base):
        # Training rebinds each group's stacks to views into one vector; a
        # module still reads them, and a checkpoint still names each
        # module's factors, module by module.
        result = train(tiny_base, tiny_dataset.without("d0"), _tiny_cfg(iterations=3))
        arrays = vit.model_to_arrays(result.adapted)
        names = [f"blocks.0.attn.{p}.lora.{i}.{f}" for p in ("wq", "wv") for i in (0, 1) for f in "AB"]
        assert [n for n in arrays if ".lora." in n] == names
        for lin in adapters.adapted_layers(result.adapted):
            group = lin.group
            assert group.n == 2 and group.b.data.any()
            for i, m in enumerate(group.modules):
                assert m.rank == 2
                assert np.array_equal(m.a.data, group.a.data[i]) and np.array_equal(m.b.data, group.b.data[i])
        wv = result.adapted.blocks[0].attn.wv.group
        assert np.array_equal(arrays["blocks.0.attn.wv.lora.1.B"], wv.b.data[1])

    def test_domains_touched_excludes_nothing_from_sources(self, tiny_dataset, tiny_base):
        sources = tiny_dataset.without("d2")
        result = train(tiny_base, sources, _tiny_cfg(iterations=4))
        assert result.domains_touched == set(sources.domains)


def _count_step_calls(monkeypatch) -> dict[str, int]:
    """Patch the three calls of a training step, each looked up as a
    module global, to count how often they run."""
    counts = {}
    for module, name in ((trainer, "make_batch"), (gradcheck, "backward"), (trainer, "adam_step")):

        def counting(*args, real=getattr(module, name), name=name):
            counts[name] += 1
            return real(*args)

        counts[name] = 0
        monkeypatch.setattr(module, name, counting)
    return counts


class TestSteps:
    @pytest.mark.parametrize("iterations", [0, 1, 5])
    def test_train_takes_one_batch_gradient_and_update_per_iteration(
        self, tiny_dataset, tiny_base, monkeypatch, iterations
    ):
        counts = _count_step_calls(monkeypatch)
        train(tiny_base, tiny_dataset.without("d0"), _tiny_cfg(iterations=iterations))
        assert counts == {"make_batch": iterations, "backward": iterations, "adam_step": iterations}

    def test_pretraining_takes_one_batch_gradient_and_update_per_iteration(self, monkeypatch):
        monkeypatch.setattr(trainer, "_PRETRAIN_CACHE", {})
        counts = _count_step_calls(monkeypatch)
        pretrain_base(_tiny_vit(), seed=5, iterations=3)
        assert counts == {"make_batch": 3, "backward": 3, "adam_step": 3}


class TestOnlyBackwardDifferentiates:
    def test_no_tensor_is_marked_on_a_built_injected_loaded_pretrained_or_trained_model(
        self, tiny_dataset, tiny_base, monkeypatch, tmp_path
    ):
        model = init_vit(_tiny_vit(), make_rng(1))
        assert marked(model) == []
        vit.inject_groups(model, rank=2, n=2, rng=make_rng(2))
        assert marked(model) == []
        checkpoint.save_model(tmp_path / "m.ckpt", model)
        assert marked(checkpoint.load_model(tmp_path / "m.ckpt")) == []
        monkeypatch.setattr(trainer, "_PRETRAIN_CACHE", {})
        assert marked(pretrain_base(_tiny_vit(), seed=5, iterations=2)) == []
        result = train(tiny_base, tiny_dataset.without("d0"), _tiny_cfg(iterations=3))
        assert marked(result.adapted) == marked(result.model) == marked(tiny_base) == []

    def test_a_forward_outside_backward_records_no_node_and_runs_the_mlp_in_blocks(
        self, tiny_dataset, tiny_base, monkeypatch
    ):
        # Over a training run with validation, ops record nodes inside
        # ``gradcheck.backward`` alone; each MLP of a validation forward
        # runs in blocks with nothing kept (``ag._mlp`` needs no gradient).
        inside = [False]
        nodes = {True: 0, False: 0}
        needs = {True: set(), False: set()}

        def backward(*args, real=gradcheck.backward):
            inside[0] = True
            try:
                return real(*args)
            finally:
                inside[0] = False

        def node(data, parents, grad_fn, real=ag._node):
            out = real(data, parents, grad_fn)
            nodes[inside[0]] += out.grad_fn is not None
            return out

        def mlp(*args, real=ag._mlp):
            needs[inside[0]].add(args[-1])
            return real(*args)

        monkeypatch.setattr(gradcheck, "backward", backward)
        monkeypatch.setattr(ag, "_node", node)
        monkeypatch.setattr(ag, "_mlp", mlp)
        train(tiny_base, tiny_dataset.without("d0"), _tiny_cfg(iterations=4, eval_every=2))
        assert nodes[True] > 0 and nodes[False] == 0
        assert needs[False] == {(False,) * 7}
        assert needs[True] and all(any(need) for need in needs[True])


class TestHistoryLogging:
    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(preserve_on=False, diversify_on=False), dict(alpha=0.0), dict(preserve_on=False), dict(group_n=1)],
        ids=["default", "both_off", "alpha_0", "preserve_off", "group_n_1"],
    )
    def test_rows_log_the_tape_that_produced_the_step(self, tiny_dataset, tiny_base, monkeypatch, overrides):
        # The penalties start at exactly 0 (B = 0 at the first step) and
        # every row repeats the values the tape computed, masked or
        # alpha-0 penalties included; a group of one module has no pair,
        # and its diversify term is 0.
        parts = []
        real_backward = gradcheck.backward

        def recording(*args, **kwargs):
            out = real_backward(*args, **kwargs)
            parts.append(out[2])
            return out

        monkeypatch.setattr(gradcheck, "backward", recording)
        cfg = _tiny_cfg(iterations=4, **overrides)
        result = train(tiny_base, tiny_dataset.without("d0"), cfg)
        first = result.history[0]
        assert (first.loss_preserve, first.loss_diversify, first.loss_or) == (0.0, 0.0, 0.0)
        assert [(r.loss_cls, r.loss_preserve, r.loss_diversify) for r in result.history] == parts
        assert all(r.loss_or == r.loss_preserve + r.loss_diversify for r in result.history)

    @pytest.mark.parametrize(
        "overrides",
        [dict(preserve_on=False, diversify_on=False), dict(alpha=0.0), dict(preserve_on=False)],
    )
    def test_penalties_off_the_tape_are_still_logged(self, tiny_dataset, tiny_base, overrides):
        result = train(tiny_base, tiny_dataset.without("d0"), _tiny_cfg(iterations=4, **overrides))
        pres = np.array([r.loss_preserve for r in result.history])
        div = np.array([r.loss_diversify for r in result.history])
        assert np.all(np.isfinite(pres)) and np.all(pres >= 0.0)
        assert np.all(np.isfinite(div)) and np.all(div >= 0.0)
        # logged before the update: zero at the first step, nonzero once B moves
        assert pres[0] == 0.0 and div[0] == 0.0
        assert pres[-1] > 0.0 and div[-1] > 0.0

    def test_val_acc_is_taken_after_the_rows_update(self):
        # Row t's losses come from the parameters before step t, its
        # val_acc from those after it: the adapted model of a t-iteration
        # run, whose one validation is at t. At this learning rate the
        # accuracy moves at every step, so the two states read apart.
        vit_cfg = replace(_tiny_vit(), num_classes=4)
        base = pretrain_base(vit_cfg, seed=0)
        sources = generate_dataset(DatasetSpec(domains=3, classes=4, per_class=10, image_size=8), seed=1)
        cfg = _tiny_cfg(iterations=3, eval_every=1, lr=1e-2, vit=vit_cfg)
        _, val = split_train_val(sources, cfg.val_fraction, cfg.seed)
        rows = train(base, sources, cfg).history
        adapted = [train(base, sources, replace(cfg, iterations=t, eval_every=max(t, 1))).adapted for t in range(4)]
        accs = [trainer.evaluate(model, val) for model in adapted]
        assert [r.val_acc for r in rows] == accs[1:]
        assert accs[:3] != accs[1:]


class TestLodo:
    def test_counting_and_aggregation(self, tiny_dataset, tiny_base):
        result = leave_one_domain_out(tiny_dataset, _tiny_cfg(iterations=3), [0, 1], base=tiny_base)
        assert len(result.records) == 8
        means = result.per_domain_mean()
        assert set(means) == set(tiny_dataset.domains)
        assert result.average == pytest.approx(np.mean(list(means.values())))
        for rec in result.records:
            assert 0.0 <= rec.accuracy <= 1.0
        for err in result.per_domain_stderr().values():
            assert err >= 0.0

    def test_leak_detection_fires(self, tiny_dataset, tiny_base, monkeypatch):
        _report_d1_touched(monkeypatch)
        with pytest.raises(RuntimeError, match="held-out domain d1 leaked"):
            run_single(tiny_dataset, _tiny_cfg(iterations=2), tiny_base, "d1", seed=0)

    def test_requires_three_domains_and_seeds(self, tiny_dataset, tiny_base):
        with pytest.raises(ConfigError):
            leave_one_domain_out(tiny_dataset.without("d0").without("d1"), _tiny_cfg(), [0], base=tiny_base)
        with pytest.raises(ConfigError):
            leave_one_domain_out(tiny_dataset, _tiny_cfg(), [], base=tiny_base)

    def test_pool_workers_call_the_run_single_bound_in_trainer(self, tiny_dataset, tiny_base, monkeypatch):
        # Workers look ``run_single`` up by name, so a wrapper bound there
        # runs in them although pickle cannot send a closure.
        real = trainer.run_single

        def marking(*args):
            record = real(*args)
            record.marked = True
            return record

        monkeypatch.setattr(trainer, "run_single", marking)
        assert machine.POOL_CONTEXT == "fork"
        calls = _count_map_runs(monkeypatch)
        result = leave_one_domain_out(tiny_dataset, _tiny_cfg(iterations=2), [0], base=tiny_base, jobs=2)
        assert len(result.records) == 4 and all(getattr(r, "marked", False) for r in result.records)
        assert calls == [4]

    @pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(), reason="no forkserver")
    def test_a_forkserver_pool_matches_the_serial_grid(self, tiny_dataset, tiny_base, monkeypatch):
        # Workers that import the package afresh, as forkserver's do, give
        # the serial grid's records: results do not hang on the start method.
        cfg = _tiny_cfg(iterations=2)
        serial = leave_one_domain_out(tiny_dataset, cfg, [0], base=tiny_base, jobs=1)
        monkeypatch.setattr(machine, "POOL_CONTEXT", "forkserver")
        calls = _count_map_runs(monkeypatch)
        pooled = leave_one_domain_out(tiny_dataset, cfg, [0], base=tiny_base, jobs=2)
        assert calls == [4] and pooled.records == serial.records

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_progress_line_ends_with_wall_and_cpu_seconds(self, tiny_dataset, tiny_base, caplog, jobs):
        caplog.set_level(logging.INFO, logger="pego")
        three = tiny_dataset.without("d3")
        leave_one_domain_out(three, _tiny_cfg(iterations=2), [0], base=tiny_base, jobs=jobs)
        lines = [r.getMessage() for r in caplog.records if r.name == "pego"]
        assert len(lines) == 3
        line_re = r"\[lodo \d/3\] d\d seed=0 acc=\S+ \d+\.\ds cpu=\d+\.\ds"
        assert all(re.fullmatch(line_re, line) for line in lines), lines

    def test_a_library_call_prints_no_progress(self, tiny_dataset, tiny_base, capfd):
        leave_one_domain_out(tiny_dataset, _tiny_cfg(iterations=2), [0], base=tiny_base)
        assert capfd.readouterr() == ("", "")


class TestAblate:
    def test_grid_shape_and_baseline_equivalence(self, tiny_dataset, tiny_base):
        cfg = _tiny_cfg(iterations=3)
        rows = trainer.ablate(tiny_dataset, cfg, [0], base=tiny_base)
        assert [r.label for r in rows] == ["both", "preserve_only", "diversify_only", "none", "lora"]
        assert [(r.preserve_on, r.diversify_on) for r in rows[:4]] == [
            (True, True),
            (True, False),
            (False, True),
            (False, False),
        ]
        assert rows[4].group_n == 1
        # the both-off row is the plain group baseline: exact same computation
        baseline = leave_one_domain_out(
            tiny_dataset, replace(cfg, preserve_on=False, diversify_on=False), [0], base=tiny_base
        )
        assert rows[3].mean_acc == np.mean(list(baseline.per_seed_average().values()))

    def test_one_pool_for_every_variant(self, tiny_dataset, tiny_base, monkeypatch):
        calls = _count_map_runs(monkeypatch)
        trainer.ablate(tiny_dataset, _tiny_cfg(iterations=2), [0], base=tiny_base, jobs=2)
        assert calls == [5 * 4]

    def test_pool_matches_serial(self, tiny_dataset, tiny_base):
        cfg = _tiny_cfg(iterations=3)
        serial = trainer.ablate(tiny_dataset, cfg, [0, 1], base=tiny_base, jobs=1)
        pooled = trainer.ablate(tiny_dataset, cfg, [0, 1], base=tiny_base, jobs=2)
        assert pooled == serial


def _report_d1_touched(monkeypatch) -> None:
    """Patch ``trainer.train`` so that every run reports touching d1."""
    real_train = trainer.train

    def leaky_train(base, sources, cfg):
        result = real_train(base, sources, cfg)
        result.domains_touched.add("d1")
        return result

    monkeypatch.setattr(trainer, "train", leaky_train)


def _holds(obj, types) -> bool:
    """Whether ``obj`` is an instance of ``types`` or a tuple or list holding one, at any depth."""
    return isinstance(obj, types) or (isinstance(obj, (tuple, list)) and any(_holds(o, types) for o in obj))


def _count_map_runs(monkeypatch) -> list[int]:
    """Patch ``machine.map_runs`` to record the payload count of each
    call, and check that no payload holds the dataset or the base: those
    reach a pool's workers once, as the shared inputs."""
    calls: list[int] = []
    real = machine.map_runs

    def counting(task, shared, payloads, jobs):
        assert not _holds(payloads, (DomainDataset, vit.VitModel))
        calls.append(len(payloads))
        return real(task, shared, payloads, jobs)

    monkeypatch.setattr(machine, "map_runs", counting)
    return calls


class TestSweep:
    def test_single_candidate_returned_trivially(self, tiny_dataset, tiny_base):
        result = sweep_n(tiny_dataset, _tiny_cfg(iterations=2, n_search=(4,)), [0], base=tiny_base)
        assert result.best_n == 4
        assert len(result.rows) == 1

    def test_tie_goes_to_smaller_n(self, tiny_dataset, tiny_base, monkeypatch):
        def fake_train(base, sources, cfg):
            return trainer.TrainResult(
                model=base, adapted=base, history=[], selected_iter=0, best_val_acc=0.75, domains_touched=set()
            )

        monkeypatch.setattr(trainer, "train", fake_train)
        result = sweep_n(tiny_dataset, _tiny_cfg(n_search=(6, 2, 4)), [0], base=tiny_base)
        assert result.best_n == 2

    def test_selection_never_sees_the_held_out_domain(self, tiny_dataset, tiny_base, monkeypatch):
        # every evaluate() call during a sweep scores exactly the source
        # domains of its run: never the held-out one, alone or with others
        real_train, real_evaluate = trainer.train, trainer.evaluate
        sources: list[set] = []
        seen: list[tuple[set, set]] = []

        def spy_train(base, dataset, cfg):
            sources.append(set(dataset.domains))
            return real_train(base, dataset, cfg)

        def spy_evaluate(model, dataset, domains=None):
            seen.append((sources[-1], set(domains or dataset.domains)))
            return real_evaluate(model, dataset, domains)

        monkeypatch.setattr(trainer, "train", spy_train)
        monkeypatch.setattr(trainer, "evaluate", spy_evaluate)
        sweep_n(tiny_dataset, _tiny_cfg(iterations=2, n_search=(2,)), [0], base=tiny_base)
        assert len(sources) == len(tiny_dataset.domains) and seen
        assert all(len(src) == len(tiny_dataset.domains) - 1 for src in sources)
        for src, domains in seen:
            assert domains == src

    def test_leak_detection_fires(self, tiny_dataset, tiny_base, monkeypatch):
        # The d0 run passes the audit; the d1 run trips it.
        _report_d1_touched(monkeypatch)
        with pytest.raises(RuntimeError, match="held-out domain d1 leaked"):
            sweep_n(tiny_dataset, _tiny_cfg(iterations=2, n_search=(2,)), [0], base=tiny_base)

    def test_one_pool_for_every_size(self, tiny_dataset, tiny_base, monkeypatch):
        calls = _count_map_runs(monkeypatch)
        result = sweep_n(tiny_dataset, _tiny_cfg(iterations=2, n_search=(1, 2, 4)), [0, 1], base=tiny_base, jobs=2)
        assert calls == [3 * 4 * 2]
        assert [r.n for r in result.rows] == [1, 2, 4]

    def test_requires_three_domains(self, tiny_dataset, tiny_base):
        two = tiny_dataset.without("d0").without("d1")
        with pytest.raises(ConfigError, match="at least 3 domains"):
            sweep_n(two, _tiny_cfg(iterations=2, n_search=(2,)), [0], base=tiny_base)

    def test_pool_matches_serial(self, tiny_dataset, tiny_base):
        cfg = _tiny_cfg(iterations=2, n_search=(1, 2))
        serial = sweep_n(tiny_dataset, cfg, [0], base=tiny_base, jobs=1)
        pooled = sweep_n(tiny_dataset, cfg, [0], base=tiny_base, jobs=2)
        assert pooled == serial

    def test_empty_values_rejected(self, tiny_dataset, tiny_base):
        with pytest.raises(ConfigError):
            sweep_n(tiny_dataset, _tiny_cfg(n_search=()), [0], base=tiny_base)


def test_stderr_behaviour():
    assert stderr([0.5]) == 0.0
    assert stderr([0.4, 0.6]) == pytest.approx(np.std([0.4, 0.6], ddof=1) / np.sqrt(2))
    assert stderr([0.5, 0.5, 0.5]) == 0.0


def _reported_thread_budget(shared, _):
    return shared, machine.thread_budget()


def test_pool_workers_run_their_forwards_on_one_thread(monkeypatch):
    monkeypatch.setenv("PEGO_THREADS", "2")
    assert list(machine.map_runs(_reported_thread_budget, "s", range(4), jobs=2)) == [("s", 1)] * 4
    assert list(machine.map_runs(_reported_thread_budget, "s", range(1), jobs=1)) == [("s", machine.thread_budget())]
    assert os.environ["PEGO_THREADS"] == "2"


def _reported_blas_threads(shared, _):
    return machine.blas_threads()


@pytest.mark.skipif(machine.blas_threads() is None, reason="numpy's OpenBLAS thread count cannot be read")
def test_openblas_runs_one_thread_here_and_in_pool_workers(monkeypatch):
    # Importing machine pins it, and workers keep the pin: the worker
    # initializer caps their forward threads alone.
    assert machine.blas_threads() == 1
    assert list(machine.map_runs(_reported_blas_threads, None, range(4), jobs=2)) == [1] * 4
    monkeypatch.setenv("PEGO_THREADS", "2")
    monkeypatch.setattr(machine, "_worker_task", None)
    machine._start_worker(len)
    assert os.environ["PEGO_THREADS"] == "1" and machine.thread_budget() == 1 and machine.blas_threads() == 1
    assert machine._run_in_worker("run") == 3


def _pid_after_meeting(_, payload):
    """This process's pid, once ``count`` processes have each left a file
    in ``directory`` (or after 30 s), so every worker of a pool of
    ``count`` takes a run rather than one worker taking them all."""
    directory, count = payload
    (directory / str(os.getpid())).touch()
    deadline = time.monotonic() + 30
    while len(list(directory.iterdir())) < count and time.monotonic() < deadline:
        time.sleep(0.01)
    return os.getpid()


def _pids_and_peak_children(directory, count, runs, jobs):
    """The pids ``map_runs`` returns for ``runs`` meeting runs, and the
    most live child processes seen while its results were consumed."""
    pids, peak = [], 0
    for pid in machine.map_runs(_pid_after_meeting, None, [(directory, count)] * runs, jobs=jobs):
        pids.append(pid)
        peak = max(peak, len(multiprocessing.active_children()))
    return pids, peak


def test_pool_workers_is_the_least_of_jobs_runs_and_budget(monkeypatch):
    monkeypatch.setattr(machine, "thread_budget", lambda: 8)
    assert [machine.pool_workers(jobs, runs) for jobs, runs in ((4, 3), (2, 5), (9, 12), (1, 4))] == [3, 2, 8, 1]
    assert machine.pool_workers(4, 0) == 1  # nothing to run: serial, no pool
    monkeypatch.setattr(machine, "thread_budget", lambda: 1)
    assert machine.pool_workers(4, 4) == 1


@pytest.mark.skipif(machine.cores() < 2, reason="a pool needs two CPUs")
class TestPoolSize:
    # The pool forks machine.pool_workers(jobs, runs) workers, and none
    # when that is 1.
    def test_runs_cap_the_pool(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PEGO_THREADS", raising=False)
        pids, peak = _pids_and_peak_children(tmp_path, 2, runs=2, jobs=4)
        assert len(set(pids)) == 2 and os.getpid() not in pids
        assert peak <= 2

    def test_the_thread_budget_caps_the_pool(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PEGO_THREADS", "2")
        pids, peak = _pids_and_peak_children(tmp_path, 2, runs=4, jobs=3)
        assert len(set(pids)) == 2 and os.getpid() not in pids
        assert peak <= 2

    def test_a_budget_of_one_thread_runs_serially(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PEGO_THREADS", "1")
        pids, peak = _pids_and_peak_children(tmp_path, 1, runs=3, jobs=2)
        assert pids == [os.getpid()] * 3 and peak == 0


def test_pretrain_base_is_deterministic_and_cached():
    cfg = _tiny_vit()
    a = pretrain_base(cfg, seed=5, iterations=10)
    b = pretrain_base(cfg, seed=5, iterations=10)
    assert a is b
    c = pretrain_base(cfg, seed=6, iterations=10)
    assert not np.array_equal(a.head_w.data, c.head_w.data)
    for _, t in vit.named_params(a):
        assert np.all(np.isfinite(t.data))


def test_pretraining_leaves_the_key_biases_at_zero():
    model = pretrain_base(_tiny_vit(), seed=5, iterations=10)
    for blk in model.blocks:
        assert np.array_equal(blk.attn.wk.bias.data, np.zeros_like(blk.attn.wk.bias.data))
        assert np.all(blk.attn.wq.bias.data != 0.0)  # the other biases do train


def test_canonical_vit_config_shape():
    cfg = canonical_vit_config()
    assert (cfg.image_size, cfg.patch_size, cfg.embed_dim, cfg.num_blocks, cfg.num_heads) == (16, 4, 32, 2, 4)
