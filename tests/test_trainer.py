import numpy as np
import pytest

from pego import autograd as ag
from pego import checkpoint, gradcheck, trainer, vit
from pego.data import DatasetSpec, generate_dataset
from pego.errors import ConfigError, NumericError
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
        assert cfg.batch_per_domain == 32

    def test_validation(self):
        with pytest.raises(ConfigError):
            _tiny_cfg(alpha=-1.0).validate()
        with pytest.raises(ConfigError):
            _tiny_cfg(val_fraction=1.5).validate()
        with pytest.raises(ConfigError):
            _tiny_cfg(lr=0.0).validate()
        with pytest.raises(ConfigError):
            _tiny_cfg(group_n=0).validate()

    def test_dict_roundtrip(self):
        cfg = _tiny_cfg(alpha=0.5, n_search=(2, 6))
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"alhpa": 1.0})


def _flat(params):
    return np.concatenate([p.ravel() for p in params.values()])


class TestAdam:
    def test_zero_gradient_leaves_params_and_increments_t(self):
        params = {"p": np.array([[1.0, -2.0]])}
        flat, state = _flat(params), adam_init(params)
        adam_step(flat, np.zeros(2), state, lr=0.1)
        assert np.array_equal(flat, np.array([1.0, -2.0]))
        assert state.t == 1

    def test_first_step_hand_computed(self):
        # g = 1: bias correction gives m_hat = v_hat = 1, so the update is
        # lr / (1 + eps), within eps of lr itself.
        params = {"p": np.array([[3.0]])}
        flat, state = _flat(params), adam_init(params)
        adam_step(flat, np.array([1.0]), state, lr=0.1)
        assert flat[0] == pytest.approx(3.0 - 0.1, abs=1e-7)

    def test_lr_zero_is_identity(self):
        rng = make_rng(1)
        params = {"p": rng.normal(size=(3, 3))}
        flat, state = _flat(params), adam_init(params)
        before = flat.copy()
        for _ in range(5):
            adam_step(flat, rng.normal(size=9), state, lr=0.0)
        assert np.array_equal(flat, before)

    def test_trajectory_is_deterministic(self):
        def run():
            rng = make_rng(2)
            params = {"p": np.ones((2, 2))}
            flat, state = _flat(params), adam_init(params)
            for _ in range(10):
                adam_step(flat, rng.normal(size=4), state, lr=0.01)
            return flat

        assert np.array_equal(run(), run())

    def test_non_finite_gradient_raises(self):
        params = {"a": np.ones((2, 2)), "p": np.ones((1, 1)), "c": np.ones((1, 3))}
        flat, state = _flat(params), adam_init(params)
        grad = np.zeros(8)
        grad[4] = np.nan
        with pytest.raises(NumericError, match=r"parameter p at step 1$"):
            adam_step(flat, grad, state, lr=0.1)

    def test_state_shapes(self):
        params = {"a": np.zeros((2, 3)), "b": np.zeros((1, 4))}
        state = adam_init(params)
        assert isinstance(state, AdamState)
        assert state.m.shape == (10,) and state.v.shape == (10,)
        assert (state.names, state.sizes) == (["a", "b"], [6, 4])
        assert state.beta1 == 0.9 and state.beta2 == 0.999 and state.eps == 1e-8

    def test_flat_step_equals_a_per_tensor_loop_bitwise(self):
        rng = make_rng(3)
        shapes = {"a": (4, 3), "b": (2, 4), "head": (1, 5)}
        tensors = {k: ag.Tensor(rng.normal(size=s)) for k, s in shapes.items()}
        loop = {k: np.array(t.data) for k, t in tensors.items()}
        flat = trainer.flatten_params(tensors)
        state = adam_init({k: t.data for k, t in tensors.items()})
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
        assert not result.model.has_adapters()
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

    def test_domains_touched_excludes_nothing_from_sources(self, tiny_dataset, tiny_base):
        sources = tiny_dataset.without("d2")
        result = train(tiny_base, sources, _tiny_cfg(iterations=4))
        assert result.domains_touched == set(sources.domains)


class TestHistoryLogging:
    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(preserve_on=False, diversify_on=False), dict(alpha=0.0), dict(preserve_on=False), dict(group_n=1)],
        ids=["default", "both_off", "alpha_0", "preserve_off", "group_n_1"],
    )
    def test_rows_log_the_tape_that_produced_the_step(self, tiny_dataset, tiny_base, monkeypatch, overrides):
        # The penalties start at exactly 0 (B = 0 at the first step) and
        # every row repeats the values the tape computed, masked or
        # alpha-0 penalties included; only a group of one module has no
        # diversify term, which logs as 0.
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
        expected = [(ce, pres, 0.0 if div is None and cfg.group_n == 1 else div) for ce, pres, div in parts]
        assert [(r.loss_cls, r.loss_preserve, r.loss_diversify) for r in result.history] == expected
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
        real_train = trainer.train

        def leaky_train(base, sources, cfg):
            result = real_train(base, sources, cfg)
            result.domains_touched.add("d1")
            return result

        monkeypatch.setattr(trainer, "train", leaky_train)
        with pytest.raises(RuntimeError, match="leaked"):
            run_single(tiny_dataset, _tiny_cfg(iterations=2), tiny_base, "d1", seed=0)

    def test_requires_three_domains_and_seeds(self, tiny_dataset, tiny_base):
        with pytest.raises(ConfigError):
            leave_one_domain_out(tiny_dataset.without("d0").without("d1"), _tiny_cfg(), [0], base=tiny_base)
        with pytest.raises(ConfigError):
            leave_one_domain_out(tiny_dataset, _tiny_cfg(), [], base=tiny_base)


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
        from dataclasses import replace

        baseline = leave_one_domain_out(
            tiny_dataset, replace(cfg, preserve_on=False, diversify_on=False), [0], base=tiny_base
        )
        assert rows[3].mean_acc == np.mean(list(baseline.per_seed_average().values()))


class TestSweep:
    def test_single_candidate_returned_trivially(self, tiny_dataset, tiny_base):
        result = sweep_n(tiny_dataset, _tiny_cfg(iterations=2), values=(4,), seeds=[0], base=tiny_base)
        assert result.best_n == 4
        assert len(result.rows) == 1

    def test_tie_goes_to_smaller_n(self, tiny_dataset, tiny_base, monkeypatch):
        def fake_train(base, sources, cfg):
            return trainer.TrainResult(
                model=base, adapted=base, history=[], selected_iter=0, best_val_acc=0.75, domains_touched=set()
            )

        monkeypatch.setattr(trainer, "train", fake_train)
        result = sweep_n(tiny_dataset, _tiny_cfg(), values=(6, 2, 4), seeds=[0], base=tiny_base)
        assert result.best_n == 2

    def test_selection_never_sees_the_held_out_domain(self, tiny_dataset, tiny_base, monkeypatch):
        # every evaluate() call during a sweep must score source-domain data only
        real_evaluate = trainer.evaluate
        seen: list[set] = []

        def spy(model, dataset, domains=None):
            seen.append(set(domains or dataset.domains))
            return real_evaluate(model, dataset, domains)

        monkeypatch.setattr(trainer, "evaluate", spy)
        sweep_n(tiny_dataset, _tiny_cfg(iterations=2), values=(2,), seeds=[0], base=tiny_base)
        assert seen
        for domains in seen:
            assert len(domains) < len(tiny_dataset.domains)

    def test_pool_matches_serial(self, tiny_dataset, tiny_base):
        cfg = _tiny_cfg(iterations=2)
        serial = sweep_n(tiny_dataset, cfg, values=(1, 2), seeds=[0], base=tiny_base, jobs=1)
        pooled = sweep_n(tiny_dataset, cfg, values=(1, 2), seeds=[0], base=tiny_base, jobs=2)
        assert pooled == serial

    def test_empty_values_rejected(self, tiny_dataset, tiny_base):
        with pytest.raises(ConfigError):
            sweep_n(tiny_dataset, _tiny_cfg(), values=(), seeds=[0], base=tiny_base)


def test_stderr_behaviour():
    assert stderr([0.5]) == 0.0
    assert stderr([0.4, 0.6]) == pytest.approx(np.std([0.4, 0.6], ddof=1) / np.sqrt(2))
    assert stderr([0.5, 0.5, 0.5]) == 0.0


def test_pretrain_base_is_deterministic_and_cached():
    cfg = _tiny_vit()
    a = pretrain_base(cfg, seed=5, iterations=10, per_class=3)
    b = pretrain_base(cfg, seed=5, iterations=10, per_class=3)
    assert a is b
    c = pretrain_base(cfg, seed=6, iterations=10, per_class=3)
    assert not np.array_equal(a.head_w.data, c.head_w.data)
    for _, t in vit.named_params(a):
        assert np.all(np.isfinite(t.data))


def test_canonical_vit_config_shape():
    cfg = canonical_vit_config()
    assert (cfg.image_size, cfg.patch_size, cfg.embed_dim, cfg.num_blocks, cfg.num_heads) == (16, 4, 32, 2, 4)
