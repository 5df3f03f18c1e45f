"""The benchmark's three workloads: set-up, one measured operation, and the
correctness checks on its outputs.

All three use the canonical config (embed 32, 2 blocks, 4 heads, 16 px
images, N=4, r=4, alpha=1e-3, batch 8 per domain over 3 source domains,
500 iterations, validation every 50) and derive every input from the
run seed. Each runs as a single-process closed loop: the next operation
starts when the previous one has finished.

* ``train-cell``: one ``trainer.run_single`` cell per operation, in
  process, rotating the held-out domain through d0..d3.
* ``lodo-jobs2``: one ``trainer.leave_one_domain_out`` grid (4 held-out
  domains x 1 seed) per operation, through the program's process pool
  with 2 workers.
* ``eval-read``: the ``pego eval`` + ``pego analyze`` read path over a
  checkpoint pair written during set-up: load both models and the
  dataset, ``trainer.evaluate`` both on all 1600 images, then
  ``diagnostics.weight_pc_report`` and ``feature_projection`` on
  ``last.wv``. No backward pass, no Adam step, no penalty.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from pego import adapters, checkpoint, data, diagnostics, trainer, vit

SETUP_REPEATS = 2
LODO_JOBS = 2
FIXTURE_ITERATIONS = 100
MERGE_TOL = 1e-9  # acceptance criterion 01
ACC_FLOOR = 0.5  # acceptance criterion 06: chance (0.25) plus 0.25
ANALYZE_TOP_K = 10  # the default of ``pego analyze --top-k``


class Probes:
    """Light hooks kept on in untraced runs too: time spent in
    ``trainer.evaluate`` and the images it scored, per ``run_single`` call
    (attached to the returned record so pool workers can report it), and
    the last ``trainer.train`` result, for the merge check."""

    def __init__(self):
        self.eval_images = 0
        self.eval_s = 0.0
        self.last_train = None

    def install(self) -> None:
        evaluate, train, run_single = trainer.evaluate, trainer.train, trainer.run_single
        probes = self

        def timed_evaluate(model, dataset, domains=None):
            t0 = time.perf_counter()
            acc = evaluate(model, dataset, domains)
            probes.eval_s += time.perf_counter() - t0
            probes.eval_images += sum(len(dataset.labels[d]) for d in domains or dataset.domains)
            return acc

        def kept_train(*args, **kwargs):
            probes.last_train = train(*args, **kwargs)
            return probes.last_train

        def reported_run_single(*args, **kwargs):
            images, seconds = probes.eval_images, probes.eval_s
            record = run_single(*args, **kwargs)
            record.bench_eval = (probes.eval_images - images, probes.eval_s - seconds)
            return record

        trainer.evaluate = timed_evaluate
        trainer.train = kept_train
        trainer.run_single = reported_run_single


@dataclass
class OpResult:
    """One measured operation and what its checks found."""

    wall_s: float
    steps: int = 0
    images: int = 0
    eval_s: float = 0.0
    cpu_s: float = 0.0
    accuracies: list[float] = field(default_factory=list)
    fingerprint: str = ""
    problems: list[str] = field(default_factory=list)


def cpu_seconds(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _history_problems(history, iterations: int) -> list[str]:
    if len(history) != iterations:
        return [f"history has {len(history)} rows, expected {iterations}"]
    losses = np.array([[r.loss_cls, r.loss_preserve, r.loss_diversify, r.loss_or] for r in history])
    return [] if np.all(np.isfinite(losses)) else ["non-finite loss in history"]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


def _history_array(history) -> np.ndarray:
    return np.array(
        [[r.loss_cls, r.loss_preserve, r.loss_diversify, r.loss_or, np.nan if r.val_acc is None else r.val_acc]
         for r in history]
    )


class Workload:
    name = ""
    jobs = 1
    # Seconds one operation took at the commit that added the benchmark
    # (2-core Xeon, OpenBLAS). A run does ceil(--seconds / op_seconds) operations,
    # so every run of a workload does the same work however fast the code.
    op_seconds = 1.0

    def __init__(self, seed: int, workdir: str, probes: Probes, span):
        self.seed = seed
        self.workdir = workdir
        self.probes = probes
        # ``span(name)`` marks the benchmark's own checks in a traced run.
        self.span = span

    def setup(self) -> None:
        self.ds = data.generate_dataset(trainer.canonical_dataset_spec(), self.seed)
        self.base = trainer.pretrain_base(trainer.canonical_vit_config(), self.seed)
        self.cfg = trainer.TrainConfig(batch_per_domain=8, seed=self.seed)

    def op(self, k: int) -> OpResult:
        raise NotImplementedError

    def train_rate(self, ops: list[OpResult]) -> float:
        steps = sum(o.steps for o in ops)
        wall = sum(o.wall_s for o in ops)
        return steps / wall if wall else 0.0

    def eval_rate(self, ops: list[OpResult]) -> float:
        seconds = sum(o.eval_s for o in ops)
        return sum(o.images for o in ops) / seconds if seconds else 0.0

    def heldout_acc(self, ops: list[OpResult]) -> float:
        accs = [a for o in ops for a in o.accuracies]
        return float(np.mean(accs)) if accs else 0.0

    def pool_figures(self, ops: list[OpResult]) -> tuple[float, float, float]:
        """CPU seconds, steps and wall seconds of the training the workers did."""
        return sum(o.cpu_s for o in ops), sum(o.steps for o in ops), sum(o.wall_s for o in ops)


class TrainCell(Workload):
    name = "train-cell"
    op_seconds = 12.5

    def op(self, k: int) -> OpResult:
        domain = self.ds.domains[k % len(self.ds.domains)]
        e_images, e_s = self.probes.eval_images, self.probes.eval_s
        c0 = cpu_seconds(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        record = trainer.run_single(self.ds, self.cfg, self.base, domain, self.seed)
        wall = time.perf_counter() - t0
        res = OpResult(
            wall_s=wall,
            steps=len(record.history),
            images=self.probes.eval_images - e_images,
            eval_s=self.probes.eval_s - e_s,
            cpu_s=cpu_seconds(resource.RUSAGE_SELF) - c0,
            accuracies=[record.accuracy],
            fingerprint=_digest(_history_array(record.history), [record.accuracy]),
        )
        res.problems += _history_problems(record.history, self.cfg.iterations)
        result = self.probes.last_train
        images = self.ds.images[domain]
        with self.span("bench.check"):
            diff = float(np.abs(vit.forward_logits_batch(result.model, images)
                                - vit.forward_logits_batch(result.adapted, images)).max())
        if not diff <= MERGE_TOL:
            res.problems.append(f"merged and adapted logits differ by {diff!r} on {domain}")
        return res


class LodoJobs2(Workload):
    name = "lodo-jobs2"
    jobs = LODO_JOBS
    op_seconds = 27.0

    def op(self, k: int) -> OpResult:
        c0 = cpu_seconds(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        result = trainer.leave_one_domain_out(self.ds, self.cfg, [self.seed], base=self.base, jobs=self.jobs)
        wall = time.perf_counter() - t0
        records = result.records
        res = OpResult(wall_s=wall, cpu_s=cpu_seconds(resource.RUSAGE_CHILDREN) - c0)
        if [r.test_domain for r in records] != list(self.ds.domains):
            res.problems.append(f"grid returned cells {[r.test_domain for r in records]}")
        for r in records:
            res.steps += len(r.history)
            res.problems += _history_problems(r.history, self.cfg.iterations)
            images, seconds = getattr(r, "bench_eval", (0, 0.0))
            res.images += images
            res.eval_s += seconds
        if res.eval_s == 0.0:
            res.problems.append("pool workers reported no evaluate timings")
        res.accuracies = [r.accuracy for r in records]
        res.fingerprint = _digest(*[_history_array(r.history) for r in records], res.accuracies)
        # Criterion 06 bounds the mean over all held-out domains, which only
        # this workload's operation covers; a single cell may fall below it.
        mean = float(np.mean(res.accuracies)) if records else 0.0
        if not mean >= ACC_FLOOR:
            res.problems.append(f"mean held-out accuracy {mean!r} is below {ACC_FLOOR}")
        return res


class EvalRead(Workload):
    """Set-up writes what ``pego gen`` and ``pego train`` would: the
    dataset and an adapted/merged checkpoint pair, trained for
    ``FIXTURE_ITERATIONS`` steps with one domain held out. That training
    is the only one in this workload, so its rate is the workload's
    ``train_steps_per_s``, measured per set-up."""

    name = "eval-read"
    op_seconds = 2.6

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fixture_rates: list[float] = []
        self.fixture_cpu: list[tuple[float, int, float]] = []

    def setup(self) -> None:
        super().setup()
        self.held_out = self.ds.domains[self.seed % len(self.ds.domains)]
        cfg = replace(self.cfg, iterations=FIXTURE_ITERATIONS)
        c0 = cpu_seconds(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        result = trainer.train(self.base, self.ds.without(self.held_out), cfg)
        self.fixture_acc = trainer.evaluate(result.model, self.ds, [self.held_out])
        wall = time.perf_counter() - t0
        self.fixture_rates.append(cfg.iterations / wall)
        self.fixture_cpu.append((cpu_seconds(resource.RUSAGE_SELF) - c0, cfg.iterations, wall))
        self.paths = {key: os.path.join(self.workdir, f"{key}.ckpt") for key in ("data", "adapted", "merged")}
        checkpoint.save_dataset(self.paths["data"], self.ds)
        checkpoint.save_model(self.paths["adapted"], result.adapted)
        checkpoint.save_model(self.paths["merged"], result.model)
        self.saved = {"adapted": vit.model_to_arrays(result.adapted), "merged": vit.model_to_arrays(result.model)}

    def op(self, k: int) -> OpResult:
        t0 = time.perf_counter()
        merged = checkpoint.load_model(self.paths["merged"])
        adapted = checkpoint.load_model(self.paths["adapted"])
        ds = checkpoint.load_dataset(self.paths["data"])
        acc_merged = trainer.evaluate(merged, ds)
        acc_adapted = trainer.evaluate(adapted, ds)
        layer = adapted.blocks[-1].attn.wv  # last.wv, the default layer of ``pego analyze``
        w_pre = layer.base.data
        k = min(ANALYZE_TOP_K, min(w_pre.shape))
        report = diagnostics.weight_pc_report(w_pre, adapters.group_delta(layer.group), k)
        images = np.concatenate([ds.images[d] for d in ds.domains])
        labels = np.concatenate([ds.labels[d] for d in ds.domains])
        projection = diagnostics.feature_projection([("adapted", adapted)], images, labels)
        wall = time.perf_counter() - t0
        n_images = 2 * len(labels) + len(images)
        res = OpResult(
            wall_s=wall,
            images=n_images,
            eval_s=wall,  # the whole read pass: loads and analysis count against the rate
            accuracies=[self.fixture_acc],
            fingerprint=_digest([acc_merged, acc_adapted], report.evr_top_k, report.pc_cosine, projection.coords),
        )
        for key, model in (("merged", merged), ("adapted", adapted)):
            loaded = vit.model_to_arrays(model)
            saved = self.saved[key]
            if loaded.keys() != saved.keys() or any(loaded[n].tobytes() != saved[n].tobytes() for n in saved):
                res.problems.append(f"{key} checkpoint did not survive a bitwise round trip")
        for dom in self.ds.domains:
            if (ds.images[dom].tobytes() != self.ds.images[dom].tobytes()
                    or not np.array_equal(ds.labels[dom], self.ds.labels[dom])):
                res.problems.append(f"dataset domain {dom} did not survive a bitwise round trip")
        if acc_merged != acc_adapted:
            res.problems.append(f"merged accuracy {acc_merged!r} differs from adapted {acc_adapted!r}")
        if not 1 <= report.numerical_rank <= layer.group.n * layer.group.modules[0].rank:
            res.problems.append(f"update rank {report.numerical_rank} outside [1, N*r]")
        if projection.coords.shape != (len(images), 2) or not np.all(np.isfinite(projection.coords)):
            res.problems.append("feature projection is malformed")
        return res

    def train_rate(self, ops):
        return float(np.median(self.fixture_rates))

    def pool_figures(self, ops):
        return tuple(sum(col) for col in zip(*self.fixture_cpu))


WORKLOADS = {w.name: w for w in (TrainCell, LodoJobs2, EvalRead)}


def make_workdir(root: str) -> str:
    path = os.path.join(root, "perfbench", "out", f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
