import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

import pego
from pego import autograd as ag
from pego import checkpoint, cli, errors, machine, trainer, vit
from pego.numerics import make_rng


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_file(workdir):
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({"domains": 4, "classes": 2, "per_class": 6, "image_size": 8}))
    out = workdir / "toy.ckpt"
    assert cli.main(["gen", "--config", str(spec), "--out", str(out), "--seed", "0"]) == 0
    return out


@pytest.fixture(scope="module")
def config_file(workdir):
    path = workdir / "train.json"
    path.write_text(
        json.dumps(
            {
                "alpha": 1e-3,
                "rank": 2,
                "group_n": 2,
                "lr": 5e-4,
                "iterations": 4,
                "batch_per_domain": 4,
                "seed": 0,
                "val_fraction": 0.2,
                "eval_every": 2,
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
    return path


@pytest.fixture(scope="module")
def trained(workdir, dataset_file, config_file):
    out = workdir / "trained"
    code = cli.main(
        ["train", "--config", str(config_file), "--dataset", str(dataset_file), "--out", str(out)]
    )
    assert code == 0
    return out


class TestGen:
    def test_prints_per_domain_class_counts(self, workdir, capsys):
        out = workdir / "default.ckpt"
        assert cli.main(["gen", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        for dom in ("d0", "d1", "d2", "d3"):
            assert f"{dom}: " in text
        assert "class 3: 100" in text

    def test_same_seed_gives_identical_file_hash(self, workdir, dataset_file):
        again = workdir / "toy2.ckpt"
        spec = workdir / "spec.json"
        assert cli.main(["gen", "--config", str(spec), "--out", str(again), "--seed", "0"]) == 0
        h1 = hashlib.sha256(dataset_file.read_bytes()).hexdigest()
        h2 = hashlib.sha256(again.read_bytes()).hexdigest()
        assert h1 == h2

    def test_missing_output_dir_exits_2(self, workdir):
        assert cli.main(["gen", "--out", str(workdir / "nope" / "x.ckpt")]) == 2

    def test_an_existing_directory_as_out_exits_2(self, workdir, monkeypatch, capsys):
        def no_generate(*args):
            raise AssertionError("generated before --out was checked")

        monkeypatch.setattr("pego.data.generate_dataset", no_generate)
        target = workdir / "gen_dir"
        target.mkdir()
        assert cli.main(["gen", "--out", str(target)]) == 2
        assert "is an existing directory" in capsys.readouterr().err
        assert list(workdir.glob("gen_dir*")) == [target]

    def test_bad_spec_key_exits_2(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"domains": 4, "classez": 2}))
        assert cli.main(["gen", "--config", str(bad), "--out", str(workdir / "y.ckpt")]) == 2

    @pytest.mark.parametrize("raw", [{"per_class": "10"}, {"domains": 4.0}], ids=["per_class_str", "domains_float"])
    def test_mistyped_spec_field_exits_2(self, workdir, raw, capsys):
        bad = workdir / "mistyped_spec.json"
        bad.write_text(json.dumps(raw))
        assert cli.main(["gen", "--config", str(bad), "--out", str(workdir / "y.ckpt")]) == 2
        assert "must be of type int" in capsys.readouterr().err

    def test_a_config_that_is_not_an_object_exits_2(self, workdir, capsys):
        bad = workdir / "five.json"
        bad.write_text("5")
        assert cli.main(["gen", "--config", str(bad), "--out", str(workdir / "y.ckpt")]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_gen_into_a_run_directory_keeps_the_runs_manifest(self, trained):
        out = trained / "ds2.ckpt"
        assert cli.main(["gen", "--out", str(out), "--seed", "1"]) == 0
        assert json.loads((trained / "manifest.json").read_text())["command"] == "train"
        gen_manifest = json.loads((trained / "ds2.ckpt.manifest.json").read_text())
        assert gen_manifest["command"] == "gen"
        assert gen_manifest["artifacts"] == [str(out)]


class TestTrain:
    def test_writes_checkpoints_metrics_and_manifest(self, trained):
        assert (trained / "adapted.ckpt").exists()
        assert (trained / "merged.ckpt").exists()
        with open(trained / "run.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "loss_cls", "loss_preserve", "loss_diversify", "loss_or", "val_acc"]
        assert len(rows) == 5  # header + 4 iterations
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["iterations"] == 4
        assert len(manifest["config_hash"]) == 64
        assert any(p.endswith("merged.ckpt") for p in manifest["artifacts"])
        assert set(manifest["phases"]) == {"load", "pretrain", "run"}
        assert all(seconds >= 0.0 for seconds in manifest["phases"].values())
        assert "phases" not in manifest["config"]

    def test_alpha_deviation_warns(self, workdir, dataset_file, config_file, capsys):
        out = workdir / "warned"
        code = cli.main(
            [
                "train",
                "--config",
                str(config_file),
                "--dataset",
                str(dataset_file),
                "--out",
                str(out),
                "--alpha",
                "0.01",
                "--rank",
                "1",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "warning" in err and "alpha" in err and "rank" in err

    def test_mistyped_config_field_exits_2(self, workdir, dataset_file, config_file, capsys):
        bad_cfg = json.loads(config_file.read_text())
        bad_cfg["rank"] = "2"
        bad_path = workdir / "bad_rank.json"
        bad_path.write_text(json.dumps(bad_cfg))
        code = cli.main(
            ["train", "--config", str(bad_path), "--dataset", str(dataset_file), "--out", str(workdir / "y")]
        )
        assert code == 2
        assert "rank must be of type int" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["5", "[1, 2]"], ids=["number", "list"])
    def test_a_config_that_is_not_an_object_exits_2(self, workdir, dataset_file, text, capsys):
        bad = workdir / "not_an_object.json"
        bad.write_text(text)
        code = cli.main(["train", "--config", str(bad), "--dataset", str(dataset_file), "--out", str(workdir / "y")])
        assert code == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_a_zero_hidden_width_exits_2_before_pretraining(
        self, workdir, dataset_file, config_file, monkeypatch, capsys
    ):
        def no_pretrain(*args):
            raise AssertionError("pretrained a model without a hidden layer")

        monkeypatch.setattr("pego.trainer.pretrain_base", no_pretrain)
        bad_cfg = json.loads(config_file.read_text())
        bad_cfg["vit"]["mlp_ratio"] = 0.01  # 0.08 hidden units at embed dim 8
        bad_path = workdir / "zero_hidden.json"
        bad_path.write_text(json.dumps(bad_cfg))
        out = workdir / "zero_hidden"
        code = cli.main(["train", "--config", str(bad_path), "--dataset", str(dataset_file), "--out", str(out)])
        assert code == 2
        assert "hidden width of 0" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_model_mismatch_exits_2(self, workdir, dataset_file, config_file):
        bad_cfg = json.loads(config_file.read_text())
        bad_cfg["vit"]["num_classes"] = 5
        bad_path = workdir / "bad_classes.json"
        bad_path.write_text(json.dumps(bad_cfg))
        code = cli.main(
            ["train", "--config", str(bad_path), "--dataset", str(dataset_file), "--out", str(workdir / "y")]
        )
        assert code == 2


    def test_a_saved_built_in_base_trains_as_plain_train_does(self, workdir, dataset_file, config_file, trained):
        cfg = trainer.TrainConfig.from_dict(json.loads(config_file.read_text()))
        base = workdir / "built_in_base.ckpt"
        checkpoint.save_model(base, trainer.pretrain_base(cfg.vit, cfg.seed))
        out = workdir / "trained_on_base"
        argv = ["train", "--config", str(config_file), "--dataset", str(dataset_file), "--out", str(out)]
        assert cli.main(argv + ["--base", str(base)]) == 0
        for name in ("adapted.ckpt", "merged.ckpt", "run.csv"):
            assert (out / name).read_bytes() == (trained / name).read_bytes(), name
        plain, on_base = (json.loads((d / "manifest.json").read_text()) for d in (trained, out))
        assert json.dumps(on_base["config"]) == json.dumps(plain["config"])
        assert on_base["config_hash"] == plain["config_hash"]

    def test_an_adapted_base_trains_as_its_merged_checkpoint_does(
        self, workdir, dataset_file, config_file, trained, capsys
    ):
        # The base's trained groups fold into its weights before fresh ones attach.
        runs = {}
        for name in ("adapted.ckpt", "merged.ckpt"):
            out = workdir / f"trained_on_{name}"
            argv = ["train", "--config", str(config_file), "--dataset", str(dataset_file), "--out", str(out)]
            capsys.readouterr()
            assert cli.main(argv + ["--base", str(trained / name)]) == 0
            runs[name] = out, capsys.readouterr().out
        (on_adapted, adapted_stdout), (on_merged, merged_stdout) = runs.values()
        assert adapted_stdout == merged_stdout
        for name in ("adapted.ckpt", "merged.ckpt", "run.csv"):
            assert (on_adapted / name).read_bytes() == (on_merged / name).read_bytes(), name

    def test_a_base_brings_its_own_model_config(self, workdir, dataset_file, monkeypatch, capsys):
        def no_pretrain(*args):
            raise AssertionError("pretrained although --base was given")

        monkeypatch.setattr("pego.trainer.pretrain_base", no_pretrain)
        narrow = vit.VitConfig(
            image_size=8, patch_size=4, embed_dim=8, num_blocks=1, num_heads=2, mlp_ratio=2.0, num_classes=2
        )
        base = workdir / "narrow_base.ckpt"
        checkpoint.save_model(base, vit.init_vit(narrow, make_rng(3)))
        out = workdir / "trained_on_narrow"
        argv = ["train", "--dataset", str(dataset_file), "--out", str(out), "--base", str(base), "--iters", "2"]
        assert cli.main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["vit"] == asdict(narrow)
        assert manifest["config_hash"] == cli._config_hash(manifest["config"])
        assert checkpoint.load_model(out / "merged.ckpt").cfg == narrow
        # rank 9 fits the built-in config's embed dim of 32, not the base's 8
        argv = ["train", "--dataset", str(dataset_file), "--out", str(workdir / "rank_9"), "--base", str(base)]
        assert cli.main(argv + ["--rank", "9"]) == 2
        assert "rank 9 exceeds the embed dim 8" in capsys.readouterr().err

    def test_a_base_is_not_checked_against_the_built_in_model_config(self, workdir):
        # The built-in patch size 4 does not divide these 10 px images, and the
        # default rank 4 exceeds this base's embed dim 2; neither matters once
        # --base and --rank replace them.
        spec = workdir / "spec_10px.json"
        spec.write_text(json.dumps({"domains": 3, "classes": 2, "per_class": 5, "image_size": 10}))
        dataset = workdir / "toy_10px.ckpt"
        assert cli.main(["gen", "--config", str(spec), "--out", str(dataset)]) == 0
        tiny = vit.VitConfig(
            image_size=10, patch_size=5, embed_dim=2, num_blocks=1, num_heads=1, mlp_ratio=2.0, num_classes=2
        )
        base = workdir / "base_10px.ckpt"
        checkpoint.save_model(base, vit.init_vit(tiny, make_rng(3)))
        out = workdir / "trained_on_10px"
        argv = ["train", "--dataset", str(dataset), "--out", str(out), "--base", str(base), "--iters", "2"]
        assert cli.main(argv + ["--rank", "1"]) == 0
        assert checkpoint.load_model(out / "merged.ckpt").cfg == tiny


class TestEval:
    def test_pre_and_post_merge_accuracies_agree(self, dataset_file, trained, capsys):
        def accuracy(ckpt):
            assert cli.main(["eval", "--ckpt", str(ckpt), "--dataset", str(dataset_file), "--domain", "d1"]) == 0
            line = capsys.readouterr().out.strip()
            return float(line.rsplit("accuracy=", 1)[1])

        assert accuracy(trained / "adapted.ckpt") == accuracy(trained / "merged.ckpt")

    def test_unknown_domain_exits_2(self, dataset_file, trained, capsys):
        code = cli.main(
            ["eval", "--ckpt", str(trained / "merged.ckpt"), "--dataset", str(dataset_file), "--domain", "zz"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown domain zz" in err and "'d0'" in err

    def test_corrupt_checkpoint_exits_3(self, workdir, dataset_file):
        garbage = workdir / "garbage.ckpt"
        garbage.write_bytes(b"not a checkpoint at all")
        assert cli.main(["eval", "--ckpt", str(garbage), "--dataset", str(dataset_file), "--domain", "d0"]) == 3

    def test_wrong_shaped_tensor_exits_3(self, workdir, dataset_file, trained, capsys):
        from pego.checkpoint import read_container, write_container

        header, tensors = read_container(trained / "merged.ckpt")
        assert tensors["head.w"].shape == (2, 8)
        tensors["head.w"] = np.zeros((2, 5))
        bad = workdir / "bad_shape.ckpt"
        write_container(bad, header, tensors)
        assert cli.main(["eval", "--ckpt", str(bad), "--dataset", str(dataset_file), "--domain", "d0"]) == 3
        err = capsys.readouterr().err
        assert "head.w" in err and "(2, 5)" in err and "(2, 8)" in err


    def test_invalid_header_config_exits_3(self, workdir, dataset_file, trained, capsys):
        from pego.checkpoint import read_container, write_container

        header, tensors = read_container(trained / "merged.ckpt")
        header["config"]["num_heads"] = 3
        bad = workdir / "bad_heads.ckpt"
        write_container(bad, header, tensors)
        assert cli.main(["eval", "--ckpt", str(bad), "--dataset", str(dataset_file), "--domain", "d0"]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "3 heads" in err

    def test_a_nan_in_the_header_config_exits_3(self, workdir, dataset_file, trained, capsys):
        from pego.checkpoint import read_container, write_container

        header, tensors = read_container(trained / "merged.ckpt")
        header["config"]["mlp_ratio"] = float("nan")  # json writes NaN and reads it back
        bad = workdir / "nan_mlp_ratio.ckpt"
        write_container(bad, header, tensors)
        assert cli.main(["eval", "--ckpt", str(bad), "--dataset", str(dataset_file), "--domain", "d0"]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "mlp_ratio must be finite, got nan" in err

    @pytest.mark.parametrize("case", ["short-images", "flat-images", "fractional-labels"])
    def test_a_malformed_dataset_file_exits_3(self, workdir, dataset_file, trained, capsys, case):
        from pego.checkpoint import read_container, write_container

        header, tensors = read_container(dataset_file)
        images, labels = tensors["domain.d1.images"], tensors["domain.d1.labels"]
        if case == "short-images":
            tensors["domain.d1.images"] = images[:5]
        elif case == "flat-images":
            tensors["domain.d1.images"] = images.reshape(len(images), -1)
        else:
            tensors["domain.d1.labels"] = labels + 0.5
        bad = workdir / f"bad_{case}.ckpt"
        write_container(bad, header, tensors)
        assert cli.main(["eval", "--ckpt", str(trained / "merged.ckpt"), "--dataset", str(bad), "--domain", "d0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: bad dataset: domain d1 ")


class TestLodo:
    def test_summary_has_one_row_per_domain_seed_pair(self, workdir, dataset_file, config_file):
        out = workdir / "lodo"
        code = cli.main(
            [
                "lodo",
                "--config",
                str(config_file),
                "--dataset",
                str(dataset_file),
                "--out",
                str(out),
                "--seeds",
                "0,1,2",
            ]
        )
        assert code == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["test_domain", "seed", "accuracy", "selected_iter"]
        assert len(rows) == 13  # 4 domains x 3 seeds
        assert (out / "run_d0_0.csv").exists()

    def test_rerun_reproduces_summary_byte_for_byte(self, workdir, dataset_file, config_file):
        outs = []
        for name in ("rep1", "rep2"):
            out = workdir / name
            code = cli.main(
                [
                    "lodo",
                    "--config",
                    str(config_file),
                    "--dataset",
                    str(dataset_file),
                    "--out",
                    str(out),
                    "--seeds",
                    "0,1",
                ]
            )
            assert code == 0
            outs.append(out)
        assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
        m1 = json.loads((outs[0] / "manifest.json").read_text())
        m2 = json.loads((outs[1] / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]

    def test_manifest_config_round_trips(self, workdir, dataset_file, config_file):
        first = workdir / "mrt1"
        assert (
            cli.main(
                ["lodo", "--config", str(config_file), "--dataset", str(dataset_file), "--out", str(first), "--seeds", "0"]
            )
            == 0
        )
        manifest = json.loads((first / "manifest.json").read_text())
        replayed_cfg = workdir / "replay.json"
        replayed_cfg.write_text(json.dumps(manifest["config"]))
        second = workdir / "mrt2"
        assert (
            cli.main(
                ["lodo", "--config", str(replayed_cfg), "--dataset", str(dataset_file), "--out", str(second), "--seeds", "0"]
            )
            == 0
        )
        assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()

    def test_parallel_jobs_match_sequential_results(self, workdir, dataset_file, config_file):
        seq = workdir / "seq"
        par = workdir / "par"
        for out, jobs in ((seq, "1"), (par, "2")):
            code = cli.main(
                [
                    "lodo",
                    "--config",
                    str(config_file),
                    "--dataset",
                    str(dataset_file),
                    "--out",
                    str(out),
                    "--seeds",
                    "0,1",
                    "--jobs",
                    jobs,
                ]
            )
            assert code == 0
        assert (seq / "summary.csv").read_bytes() == (par / "summary.csv").read_bytes()
        # Thread details differ by --jobs but stay out of the hashed config.
        m1, m2 = (json.loads((out / "manifest.json").read_text()) for out in (seq, par))
        budget = m1["threads"]["forward_budget"]
        assert m1["threads"]["jobs"] == 1 and m2["threads"]["jobs"] == 2
        assert "worker_budget" not in m1["threads"] and "worker_budget" not in m2["threads"]
        assert 1 <= budget <= m1["threads"]["affinity"]
        assert set(m1["threads"]["blas"]) == {"name", "version", "threads", "core"}
        # The live OpenBLAS thread count of the process that wrote it.
        assert m1["threads"]["blas"]["threads"] == m2["threads"]["blas"]["threads"] == machine.blas_threads()
        assert m1["threads"]["blas"]["core"] == m2["threads"]["blas"]["core"]
        assert (m1["threads"]["blas"]["core"] is None) == (machine.blas_threads() is None)
        assert "threads" not in m1["config"] and m1["config_hash"] == m2["config_hash"]


    def test_manifest_records_the_workers_the_pool_forked(self, workdir, dataset_file, config_file, monkeypatch):
        # Four runs under --jobs 4: the pool forks one worker per thread
        # of the budget, and a budget of one runs the grid serially.
        csvs = []
        for cap in ("2", "1"):
            monkeypatch.setenv("PEGO_THREADS", cap)
            out = workdir / f"workers{cap}"
            argv = ["lodo", "--config", str(config_file), "--dataset", str(dataset_file), "--out", str(out)]
            assert cli.main(argv + ["--seeds", "0", "--jobs", "4"]) == 0
            threads = json.loads((out / "manifest.json").read_text())["threads"]
            assert threads["jobs"] == 4
            assert threads["workers"] == min(int(cap), machine.cores())
            csvs.append({path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
        assert len(csvs[0]) == 5 and csvs[0] == csvs[1]

    def test_progress_lines_and_phases(self, workdir, dataset_file, config_file, capsys):
        out = workdir / "progress"
        argv = ["lodo", "--config", str(config_file), "--dataset", str(dataset_file), "--out", str(out)]
        assert cli.main(argv + ["--seeds", "0,1"]) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line.startswith("[lodo ")]
        assert len(lines) == 8  # one per run, in payload order
        assert lines[0].startswith("[lodo 1/8] d0 seed=0 acc=") and lines[0].endswith("s")
        assert lines[-1].startswith("[lodo 8/8] d3 seed=1 acc=")
        assert "[lodo" not in captured.out
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["phases"]) == {"load", "pretrain", "run"}
        assert all(seconds >= 0.0 for seconds in manifest["phases"].values())
        assert "phases" not in manifest["config"]
        assert manifest["config_hash"] == cli._config_hash(manifest["config"])

    def test_a_class_without_a_validation_sample_exits_2(self, workdir, config_file, capsys):
        spec = workdir / "spec3.json"
        spec.write_text(json.dumps({"domains": 4, "classes": 2, "per_class": 3, "image_size": 8}))
        small = workdir / "small.ckpt"
        assert cli.main(["gen", "--config", str(spec), "--out", str(small)]) == 0
        argv = ["lodo", "--config", str(config_file), "--dataset", str(small), "--out", str(workdir / "z")]
        assert cli.main(argv + ["--seeds", "0"]) == 2
        assert "class 0 in domain d1 has 3 sample(s)" in capsys.readouterr().err

    def test_a_bad_dataset_header_exits_3(self, workdir, dataset_file, config_file, capsys):
        from pego.checkpoint import read_container, write_container

        header, tensors = read_container(dataset_file)
        header["config"]["num_classes"] = "two"
        bad = workdir / "bad_header.ckpt"
        write_container(bad, header, tensors)
        argv = ["lodo", "--config", str(config_file), "--dataset", str(bad), "--out", str(workdir / "w")]
        assert cli.main(argv + ["--seeds", "0"]) == 3
        assert str(bad) in capsys.readouterr().err


class TestAblate:
    def test_emits_grid_plus_reference_row(self, workdir, dataset_file, config_file):
        out = workdir / "ablate"
        code = cli.main(
            [
                "ablate",
                "--config",
                str(config_file),
                "--dataset",
                str(dataset_file),
                "--out",
                str(out),
                "--seeds",
                "0",
            ]
        )
        assert code == 0
        with open(out / "ablate.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "preserve", "diversify", "group_n", "mean_acc", "stderr"]
        assert [r[0] for r in rows[1:]] == ["both", "preserve_only", "diversify_only", "none", "lora"]
        assert [(r[1], r[2]) for r in rows[1:5]] == [("1", "1"), ("1", "0"), ("0", "1"), ("0", "0")]
        assert rows[5][3] == "1"
        assert json.loads((out / "manifest.json").read_text())["threads"]["workers"] == 1  # --jobs 1: serial


class TestSweep:
    def test_writes_table_and_selects(self, workdir, dataset_file, config_file, capsys):
        out = workdir / "sweep"
        code = cli.main(
            [
                "sweep",
                "--config",
                str(config_file),
                "--dataset",
                str(dataset_file),
                "--out",
                str(out),
                "--seeds",
                "0",
                "--values",
                "2,4",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "selected group size" in captured.out
        progress = [line for line in captured.err.splitlines() if line.startswith("[sweep ")]
        assert len(progress) == 8  # 2 sizes x 4 domains x 1 seed
        assert progress[0].startswith("[sweep 1/8] n=2 d0 seed=0 val_acc=")
        assert progress[-1].startswith("[sweep 8/8] n=4 d3 seed=0 val_acc=")
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "mean_val_acc", "stderr", "selected"]
        assert len(rows) == 3
        assert sum(int(r[3]) for r in rows[1:]) == 1
        # the manifest's config records the sizes actually searched
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_search"] == [2, 4]
        assert manifest["threads"]["workers"] == 1  # --jobs 1: serial


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        assert cli.main(["gradcheck", "--samples", "60"]) == 0
        out = capsys.readouterr().out
        assert "alpha=0.0" in out and "alpha=0.001" in out and "FAIL" not in out

    def test_requested_probe_count_is_attempted(self, capsys):
        assert cli.main(["gradcheck", "--samples", "500"]) == 0
        out = capsys.readouterr().out
        assert out.count("samples=500") == 2

    @pytest.mark.parametrize("seed", range(21))
    def test_right_gradients_pass_on_every_probe_model(self, seed, capsys):
        # At one fixed step of 1e-5, rounding failed seed 1 at alpha=0 and a
        # step across an L1 kink failed seed 14 at alpha=1e-3.
        assert cli.main(["gradcheck", "--seed", str(seed)]) == 0, capsys.readouterr().out

    def test_injected_sign_bug_in_l1_backward_exits_1(self, monkeypatch, capsys):
        # Each penalty's backward scales sign(args) by g; handing it -g
        # gives the L1 norm the gradient of -sign.
        def broken(op):
            def penalty(*args):
                out = op(*args)
                if out.grad_fn is not None:
                    out.grad_fn = lambda g, real=out.grad_fn: real(-g)
                return out

            return penalty

        for name in ("preserve_l1", "diversify_l1"):
            monkeypatch.setattr(ag, name, broken(getattr(ag, name)))
        assert cli.main(["gradcheck", "--samples", "60"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestAnalyze:
    def test_reports_from_adapted_checkpoint(self, workdir, dataset_file, trained):
        out = workdir / "analysis"
        args = ["--ckpt", str(trained / "adapted.ckpt"), "--dataset", str(dataset_file), "--out", str(out)]
        assert cli.main(["analyze", *args]) == 0

        def rows(name):
            with open(out / name) as fh:
                return list(csv.reader(fh))

        meta = json.loads((out / "analyze_meta.json").read_text())
        assert meta["layer"] == "0.wv"
        assert meta["significance_rel_tol"] == 1e-3
        k = meta["top_k"]
        assert k == 8  # the default 10, capped by the 8-wide embedding
        # every CSV parses with its declared header and one row per entry
        evr, cos, proj = rows("pc_evr.csv"), rows("pc_cosine.csv"), rows("feature_proj.csv")
        assert evr[0] == ["component", "evr"] and len(evr) == 1 + k
        assert cos[0] == ["i", "j", "abs_cos"] and len(cos) == 1 + k * min(k, meta["numerical_rank"])
        assert proj[0] == ["model_tag", "label", "x", "y"] and len(proj) == 1 + 4 * 2 * 6
        assert {row[0] for row in proj[1:]} == {"adapted"}
        for row in evr[1:] + cos[1:]:
            float(row[-1])
        for row in proj[1:]:
            int(row[1]), float(row[2]), float(row[3])

    def test_pre_post_pair_mode(self, workdir, dataset_file, trained):
        out = workdir / "analysis_pair"
        code = cli.main(
            [
                "analyze",
                "--ckpt",
                str(trained / "merged.ckpt"),
                "--pre",
                str(trained / "adapted.ckpt"),
                "--dataset",
                str(dataset_file),
                "--out",
                str(out),
                "--layer",
                "0.wq",
            ]
        )
        assert code == 0
        assert (out / "pc_cosine.csv").exists()

    def test_untrained_checkpoint_exits_4(self, workdir, dataset_file, config_file):
        from pego.checkpoint import save_model
        from pego.numerics import make_rng
        from pego.trainer import TrainConfig
        from pego.vit import init_vit, inject_groups

        cfg = TrainConfig.from_dict(json.loads(config_file.read_text()))
        model = init_vit(cfg.vit, make_rng(0))
        inject_groups(model, rank=2, n=2, rng=make_rng(1))
        fresh = workdir / "fresh.ckpt"
        save_model(fresh, model)
        out = workdir / "analysis_fresh"
        code = cli.main(
            ["analyze", "--ckpt", str(fresh), "--dataset", str(dataset_file), "--out", str(out)]
        )
        assert code == 4
        assert not out.exists()

    def test_pre_of_another_model_config_exits_2(self, workdir, dataset_file, trained, capsys):
        from pego.checkpoint import load_model, save_model
        from pego.numerics import make_rng
        from pego.vit import init_vit

        cfg = load_model(trained / "merged.ckpt").cfg
        wide = workdir / "wide.ckpt"
        save_model(wide, init_vit(replace(cfg, embed_dim=16), make_rng(0)))
        argv = ["--ckpt", str(trained / "merged.ckpt"), "--pre", str(wide), "--dataset", str(dataset_file)]
        out = workdir / "analysis_wide"
        assert cli.main(["analyze", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "embed_dim=16" in err and "embed_dim=8" in err
        assert not out.exists()

    def test_a_zero_update_of_a_pair_exits_4(self, workdir, dataset_file, trained, capsys):
        merged = str(trained / "merged.ckpt")
        argv = ["analyze", "--ckpt", merged, "--pre", merged, "--dataset", str(dataset_file)]
        out = workdir / "analysis_zero"
        assert cli.main(argv + ["--out", str(out)]) == 4
        assert "identically zero" in capsys.readouterr().err
        assert not out.exists()

    def test_merged_without_pre_exits_2(self, workdir, dataset_file, trained):
        out = workdir / "analysis_merged"
        code = cli.main(
            ["analyze", "--ckpt", str(trained / "merged.ckpt"), "--dataset", str(dataset_file), "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_bad_layer_spec_exits_2(self, workdir, dataset_file, trained):
        out = workdir / "x"
        code = cli.main(
            [
                "analyze",
                "--ckpt",
                str(trained / "adapted.ckpt"),
                "--dataset",
                str(dataset_file),
                "--out",
                str(out),
                "--layer",
                "0.wo",
            ]
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("top_k", ["0", "-2"])
    def test_top_k_below_one_exits_2(self, workdir, dataset_file, trained, top_k, capsys):
        out = workdir / f"analysis_top_k{top_k}"
        argv = ["analyze", "--ckpt", str(trained / "adapted.ckpt"), "--dataset", str(dataset_file)]
        assert cli.main(argv + ["--out", str(out), "--top-k", top_k]) == 2
        assert f"k={top_k} outside" in capsys.readouterr().err
        assert not out.exists()


def test_train_has_no_jobs_flag(workdir, dataset_file, config_file):
    argv = ["train", "--config", str(config_file), "--dataset", str(dataset_file), "--out", str(workdir / "j")]
    assert cli.main(argv + ["--jobs", "2"]) == 2


@pytest.mark.parametrize(
    "command, flags, message",
    [("sweep", ["--values", "2,2"], "candidate group sizes"), ("lodo", ["--rank", "64"], "rank 64 exceeds")],
)
def test_bad_group_sizes_and_rank_exit_2_before_pretraining(
    workdir, dataset_file, config_file, monkeypatch, capsys, command, flags, message
):
    def no_pretrain(*args):
        raise AssertionError("pretrained before the config was validated")

    monkeypatch.setattr("pego.trainer.pretrain_base", no_pretrain)
    argv = [command, "--config", str(config_file), "--dataset", str(dataset_file), "--out", str(workdir / command)]
    assert cli.main(argv + flags) == 2
    assert message in capsys.readouterr().err


def test_importing_the_cli_loads_no_numpy():
    # pego.entry() pins the numeric thread pools, which only works before numpy loads.
    code = "import sys, pego; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def test_python_m_pego_runs_the_command_line_and_pego_cli_refuses(tmp_path):
    # ``python -m pego`` goes through pego.entry, and with neither
    # PEGO_THREADS nor a BLAS variable set its BLAS runs one thread;
    # ``python -m pego.cli`` has loaded numpy before entry could pin it.
    env = {k: v for k, v in os.environ.items() if k not in ("PEGO_THREADS", *BLAS_THREAD_VARS)}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))

    def run(module, out):
        argv = [sys.executable, "-m", module, "gen", "--out", out]
        return subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)

    ran = run("pego", "ds.ckpt")
    assert ran.returncode == 0, ran.stderr
    assert (tmp_path / "ds.ckpt").is_file()
    threads = json.loads((tmp_path / "ds.ckpt.manifest.json").read_text())["threads"]
    assert threads["blas"]["threads"] == (None if machine.blas_threads() is None else 1)
    assert threads["forward_budget"] == machine.cores()
    refused = run("pego.cli", "other.ckpt")
    assert refused.returncode == 2
    assert "python -m pego" in refused.stderr and refused.stdout == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ds.ckpt", "ds.ckpt.manifest.json"]


# Each error class's exit code, as the command line has always mapped it.
EXIT_CODES = {
    errors.ShapeError: 2,
    errors.ConfigError: 2,
    errors.SplitError: 2,
    errors.InputError: 2,
    errors.CheckpointError: 3,
    errors.DegenerateInputError: 4,
    errors.NumericError: 1,
    errors.InconclusiveCheckError: 1,
}


def test_every_error_class_has_an_exit_code():
    assert set(EXIT_CODES) == set(errors.PegoError.__subclasses__())


@pytest.mark.parametrize("error", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_an_error_exits_with_its_class_code(monkeypatch, capsys, error):
    def failing(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_gradcheck", failing)
    assert cli.main(["gradcheck"]) == EXIT_CODES[error]
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize(
    "case, message",
    [
        ("alpha-nan", "alpha must be finite, got nan"),
        ("lr-inf", "lr must be finite, got inf"),
        ("lr-minus-inf", "lr must be finite, got -inf"),
        ("config-alpha-nan", "alpha must be finite, got nan"),
    ],
)
def test_a_non_finite_number_exits_2_before_pretraining(
    workdir, dataset_file, config_file, monkeypatch, capsys, case, message
):
    def no_pretrain(*args):
        raise AssertionError("pretrained before the config was validated")

    monkeypatch.setattr("pego.trainer.pretrain_base", no_pretrain)
    nan_config = workdir / "nan_alpha.json"
    nan_config.write_text(config_file.read_text().replace('"alpha": 0.001', '"alpha": NaN'))
    flags = {
        "alpha-nan": ["--config", str(config_file), "--alpha", "nan"],
        "lr-inf": ["--config", str(config_file), "--lr", "inf"],
        "lr-minus-inf": ["--config", str(config_file), "--lr=-inf"],
        "config-alpha-nan": ["--config", str(nan_config)],
    }[case]
    argv = ["train", *flags, "--dataset", str(dataset_file), "--out", str(workdir / "non_finite")]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_unknown_command_exits_2():
    assert cli.main(["frobnicate"]) == 2


def test_malformed_thread_cap_exits_2(monkeypatch, capsys):
    # "²" passes str.isdigit but is no integer to int()
    for bad in ("0", "²"):
        monkeypatch.setenv("PEGO_THREADS", bad)
        assert cli.main(["gradcheck", "--samples", "1"]) == 2
        assert "PEGO_THREADS must be a positive integer" in capsys.readouterr().err


def test_entry_pins_every_blas_vendor_to_one_thread(monkeypatch):
    # Whatever PEGO_THREADS or the variables said before.
    monkeypatch.setenv("PEGO_THREADS", "2")
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "2")
    monkeypatch.setattr(sys, "argv", ["pego", "--help"])
    with pytest.raises(SystemExit) as exc:
        pego.entry()
    assert exc.value.code == 0
    assert {var: os.environ[var] for var in BLAS_THREAD_VARS} == dict.fromkeys(BLAS_THREAD_VARS, "1")


@pytest.mark.parametrize("command", ["train", "lodo", "ablate", "sweep", "analyze"])
def test_an_existing_file_as_out_exits_2(workdir, dataset_file, config_file, trained, command, capsys):
    target = workdir / f"{command}_out_file"
    target.write_text("keep me")
    if command == "analyze":
        argv = ["analyze", "--ckpt", str(trained / "adapted.ckpt")]
    else:
        argv = [command, "--config", str(config_file)]
    assert cli.main(argv + ["--dataset", str(dataset_file), "--out", str(target)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert target.read_text() == "keep me"


# Each command's artifacts in the order it writes them.
WRITE_ORDER = {
    "gen": ["d.ckpt", "d.ckpt.manifest.json"],
    "train": ["adapted.ckpt", "merged.ckpt", "run.csv", "manifest.json"],
    "analyze": ["pc_evr.csv", "pc_cosine.csv", "feature_proj.csv", "analyze_meta.json", "manifest.json"],
}


@pytest.mark.parametrize(
    "command, blocked",
    [
        ("train", "adapted.ckpt"),
        ("train", "run.csv"),
        ("train", "manifest.json"),
        ("analyze", "pc_evr.csv"),
        ("analyze", "analyze_meta.json"),
        ("gen", "d.ckpt.manifest.json"),
    ],
)
def test_a_failed_checkpoint_write_exits_3_and_leaves_no_temp_file(
    workdir, dataset_file, config_file, trained, capsys, command, blocked
):
    out = workdir / f"blocked_{command}_{blocked}"
    (out / blocked).mkdir(parents=True)
    run = ["--dataset", str(dataset_file), "--out", str(out)]
    argv = {
        "gen": ["gen", "--config", str(workdir / "spec.json"), "--out", str(out / "d.ckpt")],
        "train": ["train", "--config", str(config_file), *run],
        "analyze": ["analyze", "--ckpt", str(trained / "adapted.ckpt"), *run],
    }[command]
    assert cli.main(argv) == 3
    assert f"cannot write {out / blocked}" in capsys.readouterr().err
    order = WRITE_ORDER[command]
    assert sorted(p.name for p in out.iterdir()) == sorted(order[: order.index(blocked) + 1])
    assert (out / blocked).is_dir()


@pytest.mark.parametrize(
    "case", ["gen", "train", "gradcheck", "lodo-seeds", "config", "lodo-jobs-0", "ablate-jobs-2", "sweep-jobs-0"]
)
def test_a_negative_seed_exits_2_before_any_work(workdir, dataset_file, config_file, monkeypatch, capsys, case):
    def no_work(*args):
        raise AssertionError("worked on a negative seed")

    for name in ("pego.trainer.pretrain_base", "pego.data.generate_dataset", "pego.gradcheck.make_probe_model"):
        monkeypatch.setattr(name, no_work)
    negative = workdir / "negative_seed.json"
    negative.write_text(json.dumps({**json.loads(config_file.read_text()), "seed": -1}))
    run = ["--dataset", str(dataset_file), "--out", str(workdir / "negative")]
    argv = {
        "gen": ["gen", "--seed", "-1", "--out", str(workdir / "negative.ckpt")],
        "train": ["train", "--config", str(config_file), "--seed", "-1", *run],
        "gradcheck": ["gradcheck", "--seed", "-1"],
        "lodo-seeds": ["lodo", "--config", str(config_file), "--seeds", "0,-1", *run],
        "config": ["train", "--config", str(negative), *run],
        "lodo-jobs-0": ["lodo", "--config", str(config_file), "--jobs", "0", *run],
        "ablate-jobs-2": ["ablate", "--config", str(config_file), "--jobs", "-2", *run],
        "sweep-jobs-0": ["sweep", "--config", str(config_file), "--jobs", "0", *run],
    }[case]
    assert cli.main(argv) == 2
    assert ("jobs must be positive" if "jobs" in case else "nonnegative") in capsys.readouterr().err


@pytest.fixture(scope="module")
def misfits(workdir, config_file):
    """For each way a model can miss the 8px, 2-class dataset: a checkpoint
    of such a model and a config file naming it."""
    fits = trainer.TrainConfig.from_dict(json.loads(config_file.read_text())).vit
    files = {}
    for kind, cfg in {"image-size": replace(fits, image_size=16), "class-count": replace(fits, num_classes=3)}.items():
        ckpt, config = workdir / f"misfit_{kind}.ckpt", workdir / f"misfit_{kind}.json"
        checkpoint.save_model(ckpt, vit.init_vit(cfg, make_rng(0)))
        config.write_text(json.dumps({**json.loads(config_file.read_text()), "vit": asdict(cfg)}))
        files[kind] = ckpt, config
    return files


@pytest.mark.parametrize("kind", ["image-size", "class-count"])
@pytest.mark.parametrize("command", ["train-base", "lodo-config", "eval", "analyze"])
def test_a_model_that_misses_the_dataset_exits_2_before_any_work(
    workdir, dataset_file, config_file, misfits, monkeypatch, capsys, command, kind
):
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a model that misses the dataset")

    for name in ("pretrain_base", "train", "evaluate", "leave_one_domain_out"):
        monkeypatch.setattr(trainer, name, no_work)
    monkeypatch.setattr("pego.diagnostics.weight_pc_report", no_work)
    ckpt, config = misfits[kind]
    out = workdir / f"misfit_{command}_{kind}"
    run = ["--dataset", str(dataset_file), "--out", str(out)]
    argv, model_path = {
        "train-base": (["train", "--config", str(config_file), "--base", str(ckpt), *run], ckpt),
        "lodo-config": (["lodo", "--config", str(config), *run], config),
        "eval": (["eval", "--ckpt", str(ckpt), "--dataset", str(dataset_file), "--domain", "d0"], ckpt),
        "analyze": (["analyze", "--ckpt", str(ckpt), *run], ckpt),
    }[command]
    before = sorted(workdir.rglob("*"))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert str(model_path) in err and str(dataset_file) in err
    assert sorted(workdir.rglob("*")) == before


@pytest.mark.parametrize("command", ["lodo", "ablate", "sweep"])
def test_a_grid_of_two_domains_exits_2_before_any_work(
    workdir, dataset_file, config_file, monkeypatch, capsys, command
):
    def no_pretrain(*args):
        raise AssertionError("pretrained for a grid that cannot run")

    monkeypatch.setattr("pego.trainer.pretrain_base", no_pretrain)
    two = workdir / "two_domains.ckpt"
    checkpoint.save_dataset(two, checkpoint.load_dataset(dataset_file).without("d2").without("d3"))
    out = workdir / f"two_domains_{command}"
    argv = [command, "--config", str(config_file), "--dataset", str(two), "--out", str(out), "--seeds", "0"]
    assert cli.main(argv) == 2
    assert "needs at least 3 domains, got 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, repeated",
    [
        ("lodo", ["--seeds", "1,1"], "1 is repeated in '1,1'"),
        ("ablate", ["--seeds", "0,2,0"], "0 is repeated in '0,2,0'"),
        ("sweep", ["--seeds", "3,3"], "3 is repeated in '3,3'"),
        ("sweep", ["--values", "2,4,2"], "2 is repeated in '2,4,2'"),
    ],
    ids=["lodo-seeds", "ablate-seeds", "sweep-seeds", "sweep-values"],
)
def test_a_repeated_seed_or_group_size_exits_2_before_any_work(
    workdir, dataset_file, config_file, monkeypatch, capsys, command, flags, repeated
):
    def no_pretrain(*args):
        raise AssertionError("pretrained with a repeated entry")

    monkeypatch.setattr("pego.trainer.pretrain_base", no_pretrain)
    out = workdir / f"repeated_{command}"
    argv = [command, "--config", str(config_file), "--dataset", str(dataset_file), "--out", str(out), *flags]
    assert cli.main(argv) == 2
    assert repeated in capsys.readouterr().err
    assert not out.exists()
