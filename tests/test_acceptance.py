"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest output.
"""

import csv
import itertools
import json
import time

import numpy as np
from conftest import feature_orthogonality_gap, penalty_values, stack_group

from pego import adapters, cli, vit
from pego.adapters import AdaptedLinear, LoraModule, group_delta, init_group
from pego.autograd import Tensor
from pego.diagnostics import weight_pc_report
from pego.gradcheck import grad_check, make_probe_model
from pego.numerics import make_rng, numerical_rank, svd
from pego.trainer import TrainConfig
from pego.vit import VitConfig, init_vit, inject_groups


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _random_module(rng, d, k, r, scale=0.3):
    return LoraModule(
        a=Tensor(rng.normal(0, scale, (r, k))), b=Tensor(rng.normal(0, scale, (d, r)))
    )


def _random_layer(rng, d, k, r, n, scale=0.3):
    return AdaptedLinear(
        base=Tensor(rng.normal(0, 1.0, (d, k))),
        bias=Tensor(np.zeros((1, d))),
        group=stack_group([_random_module(rng, d, k, r, scale) for _ in range(n)]),
    )


def _with_modules(layer, modules):
    """``layer`` with its group's modules replaced by ``modules``."""
    return AdaptedLinear(base=layer.base, bias=layer.bias, group=stack_group(modules))


def test_criterion_01_merge_equivalence():
    t0 = time.monotonic()
    cfg = VitConfig(image_size=16, patch_size=4, embed_dim=32, num_blocks=2, num_heads=4, num_classes=4)
    worst = 0.0
    cases = itertools.cycle([(1, 2), (2, 4), (4, 2), (2, 2), (4, 4), (1, 4)])
    for trial in range(20):
        n, r = next(cases)
        model = init_vit(cfg, make_rng(1000 + trial))
        inject_groups(model, rank=r, n=n, rng=make_rng(2000 + trial))
        rng = make_rng(3000 + trial)
        for name, arr in vit.named_arrays(model):
            if ".lora." in name:
                arr[...] = rng.normal(0, 0.2, arr.shape)
        merged = adapters.merge_all(model)
        images = make_rng(4000 + trial).random((20, 16, 16))
        diff = np.abs(
            vit.forward_logits_batch(model, images) - vit.forward_logits_batch(merged, images)
        ).max()
        worst = max(worst, float(diff))
    elapsed = time.monotonic() - t0
    _verdict(1, f"merge equivalence (max diff {worst:.2e}, {elapsed:.1f}s)", worst <= 1e-9 and elapsed < 60)


def test_criterion_02_gradient_oracle():
    t0 = time.monotonic()
    model, batch = make_probe_model(0)
    err0 = grad_check(model, batch, 0.0, 200, make_rng(0, 50))
    err1 = grad_check(model, batch, 1e-3, 200, make_rng(0, 51))
    elapsed = time.monotonic() - t0
    _verdict(
        2,
        f"gradient oracle (err@0={err0:.2e}, err@1e-3={err1:.2e}, {elapsed:.1f}s)",
        err0 < 1e-6 and err1 < 1e-5 and elapsed < 120,
    )


def test_criterion_03_init_zero_losses():
    ok = True
    for d, k, r, n in [(8, 8, 2, 1), (16, 8, 4, 4), (32, 32, 4, 6), (8, 16, 2, 3)]:
        group = init_group(d, k, r, n, make_rng(d * k + n))
        base = Tensor(make_rng(d + k).normal(size=(d, k)))
        layer = AdaptedLinear(base=base, bias=Tensor(np.zeros((1, d))), group=group)
        preserve, diversify = penalty_values(layer)
        ok = ok and preserve == 0.0 and diversify == 0.0
    model = init_vit(VitConfig(16, 4, 32, 2, 4, num_classes=4), make_rng(5))
    inject_groups(model, rank=4, n=4, rng=make_rng(6))
    ok = ok and sum(penalty_values(model)) == 0.0
    _verdict(3, "init-zero losses (exact)", ok)


def test_criterion_04_feature_orthogonality_identity():
    rng = make_rng(7)
    worst = 0.0
    for _ in range(100):
        layer = _random_layer(rng, 8, 8, 2, 3)
        worst = max(worst, feature_orthogonality_gap(layer, rng.normal(size=8)))
    _verdict(4, f"transpose identity (max gap {worst:.2e})", worst < 1e-9)


def test_criterion_05_loss_algebra():
    rng = make_rng(8)
    ok = True

    # nonnegativity
    for _ in range(20):
        preserve, diversify = penalty_values(_random_layer(rng, 6, 5, 2, 3))
        ok = ok and preserve >= 0.0 and diversify >= 0.0

    # permutation symmetry over all 3! orders at N=3
    layer = _random_layer(rng, 6, 6, 2, 3)
    reference = penalty_values(layer)[1]
    for perm in itertools.permutations(layer.group.modules):
        permuted = penalty_values(_with_modules(layer, perm))[1]
        ok = ok and abs(permuted - reference) <= 1e-12 * max(1.0, reference)

    # homogeneity: doubling one module's B doubles its preserve term and
    # its pairwise diversify terms, term by term
    w = rng.normal(size=(6, 6))
    group = _random_layer(rng, 6, 6, 2, 3).group
    deltas = [m.b.data @ m.a.data for m in group.modules]
    scaled = [2.0 * deltas[0]] + deltas[1:]
    for i in range(3):
        target = np.abs(w.T @ deltas[i]).sum() * (2.0 if i == 0 else 1.0)
        ok = ok and np.isclose(np.abs(w.T @ scaled[i]).sum(), target, rtol=1e-12)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        factor = 2.0 if 0 in (i, j) else 1.0
        target = factor * np.abs(deltas[i].T @ deltas[j]).sum()
        ok = ok and np.isclose(np.abs(scaled[i].T @ scaled[j]).sum(), target, rtol=1e-12)

    # rank bound over 50 random groups
    for _ in range(50):
        d = int(rng.integers(4, 16))
        k = int(rng.integers(4, 16))
        r = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        delta = group_delta(_random_layer(rng, d, k, min(r, min(d, k)), n).group)
        ok = ok and numerical_rank(svd(delta).s, 1e-10) <= min(d, k, n * min(r, min(d, k)))

    _verdict(5, "loss algebra (nonneg, permutation, homogeneity, rank bound)", ok)


def test_criterion_06_toy_lodo(pego_lodo, baseline_lodo):
    result, elapsed = pego_lodo
    gain = result.average - 0.25
    margin = result.average - (baseline_lodo.average - 0.02)
    ok = gain >= 0.25 and margin >= 0.0 and elapsed < 900
    _verdict(
        6,
        f"toy LODO (avg {result.average:.4f}, baseline {baseline_lodo.average:.4f}, {elapsed:.0f}s)",
        ok,
    )


def test_criterion_07_ablation_table_shape(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"domains": 4, "classes": 2, "per_class": 6, "image_size": 8}))
    dataset = tmp_path / "toy.ckpt"
    assert cli.main(["gen", "--config", str(spec), "--out", str(dataset), "--seed", "1"]) == 0
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "rank": 2,
                "group_n": 2,
                "iterations": 4,
                "eval_every": 2,
                "batch_per_domain": 4,
                "vit": {
                    "image_size": 8,
                    "patch_size": 4,
                    "embed_dim": 8,
                    "num_blocks": 1,
                    "num_heads": 2,
                    "mlp_ratio": 2.0,
                    "num_classes": 2,
                },
            }
        )
    )
    out = tmp_path / "ablate"
    code = cli.main(
        ["ablate", "--config", str(config), "--dataset", str(dataset), "--out", str(out), "--seeds", "0,1,2"]
    )
    with open(out / "ablate.csv") as fh:
        rows = list(csv.reader(fh))
    grid = [(r[1], r[2]) for r in rows[1:5]]
    ok = (
        code == 0
        and len(rows) == 6
        and rows[0] == ["method", "preserve", "diversify", "group_n", "mean_acc", "stderr"]
        and grid == [("1", "1"), ("1", "0"), ("0", "1"), ("0", "0")]
        and rows[5][0] == "lora"
        and rows[5][3] == "1"
        and all(0.0 <= float(r[4]) <= 1.0 and float(r[5]) >= 0.0 for r in rows[1:])
    )
    _verdict(7, "ablation grid shape (2x2 + reference, mean and stderr)", ok)


def _last_wv_rank(model) -> int:
    layer = model.blocks[-1].attn.wv
    delta = group_delta(layer.group)
    return weight_pc_report(layer.base.data, delta, k=8).numerical_rank


def _last_wv_mean_cos(model) -> float:
    layer = model.blocks[-1].attn.wv
    delta = group_delta(layer.group)
    return float(np.mean(weight_pc_report(layer.base.data, delta, k=8).pc_cosine))


def test_criterion_08_rank_growth_and_pc_alignment(rank_battery):
    pego_ranks = [_last_wv_rank(m) for m in rank_battery["pego"]]
    lora_ranks = [_last_wv_rank(m) for m in rank_battery["lora"]]
    stress_cos = float(np.mean([_last_wv_mean_cos(m) for m in rank_battery["stress"]]))
    plain_cos = float(np.mean([_last_wv_mean_cos(m) for m in rank_battery["plain"]]))
    ok = (
        sum(1 for r in pego_ranks if r > 2) >= 2
        and all(r <= 2 for r in lora_ranks)
        and stress_cos < plain_cos
    )
    _verdict(
        8,
        f"rank growth (group {pego_ranks} vs single {lora_ranks}; cos {stress_cos:.3f} < {plain_cos:.3f})",
        ok,
    )


def test_criterion_09_protocol_audits(pego_lodo, pretrained_base, rank_battery, tmp_path):
    result, _ = pego_lodo
    # isolation: every run completed without tripping the leak assertion,
    # and the audit tags never contain the held-out domain
    ok = len(result.records) == 12

    # frozen backbone: adapted models carry the base's frozen tensors bitwise
    base_arrays = vit.model_to_arrays(pretrained_base)
    for model in rank_battery["pego"]:
        arrays = vit.model_to_arrays(model)
        for name, arr in arrays.items():
            if not vit.is_trainable_name(name):
                ok = ok and np.array_equal(arr, base_arrays[name])

    # byte-for-byte rerun of the command-line harness
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"domains": 3, "classes": 2, "per_class": 6, "image_size": 8}))
    dataset = tmp_path / "toy.ckpt"
    assert cli.main(["gen", "--config", str(spec), "--out", str(dataset), "--seed", "2"]) == 0
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "rank": 2,
                "group_n": 2,
                "iterations": 3,
                "eval_every": 2,
                "batch_per_domain": 4,
                "vit": {
                    "image_size": 8,
                    "patch_size": 4,
                    "embed_dim": 8,
                    "num_blocks": 1,
                    "num_heads": 2,
                    "mlp_ratio": 2.0,
                    "num_classes": 2,
                },
            }
        )
    )
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert (
            cli.main(
                ["lodo", "--config", str(config), "--dataset", str(dataset), "--out", str(out), "--seeds", "0,1"]
            )
            == 0
        )
        blobs.append((out / "summary.csv").read_bytes())
    ok = ok and blobs[0] == blobs[1]
    _verdict(9, "protocol audits (isolation, frozen backbone, byte-for-byte rerun)", ok)


def test_criterion_10_defaults_fidelity():
    cfg = TrainConfig()
    ok = (
        cfg.alpha == 1e-3
        and cfg.rank == 4
        and cfg.lr == 5e-4
        and cfg.val_fraction == 0.2
        and cfg.n_search == (2, 4, 6)
    )
    _verdict(10, "defaults fidelity (alpha, rank, lr, val fraction, N search)", ok)


def test_training_domain_cross_entropy_beats_uniform(pego_lodo):
    # learning sanity: by the end of each run the classification term sits
    # below the uniform-prediction level ln(4)
    result, _ = pego_lodo
    final_ce = [rec.history[-1].loss_cls for rec in result.records]
    assert all(ce < np.log(4.0) for ce in final_ce)
