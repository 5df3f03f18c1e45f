"""Run one workload of the pego benchmark and print its metrics.

    python3 perfbench/run.py --workload train-cell --seed 1 --seconds 12 --trace 0

Run from any directory; the program is imported from ``src/`` next to
this directory, never from an installed copy. The run sets up
``SETUP_REPEATS`` times from a cold pretrain cache (``setup_s`` is the
median), then runs the workload's operation ceil(``--seconds`` / the
operation's time at the commit that added the benchmark) times, so the
work is fixed and a run at that commit measures about ``--seconds``. It
checks every operation's outputs.

With ``--trace 0`` the run prints the end-to-end metrics. With
``--trace 1`` it installs the span recorder before set-up, runs the
first operation once untraced and once traced (their results must match
bitwise), keeps tracing for the rest, writes the spans to
``perfbench/out/`` and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name each metric with its unit, the failure share with its base, and
the environment. The exit code is 0 when every check passed, 1 when one
failed, and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-cell", "lodo-jobs2", "eval-read")


def _use_checkout_sources() -> None:
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__mp_main__":
    # Pool workers started by spawn or forkserver import this file under
    # this name; give them the hooks a forked worker inherits.
    _use_checkout_sources()
    from perfbench.workloads import Probes

    Probes().install()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import multiprocessing

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PEGO_THREADS")},
        "start_method": multiprocessing.get_start_method(),
        "commit": _git_commit(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of the benchmark process or any pool worker."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src" / "pego"
    if not (src / "__init__.py").is_file():
        print(f"error: program sources not found at {src}", file=sys.stderr)
        return 2
    _use_checkout_sources()
    import pego

    if Path(pego.__file__).resolve().parent != src.resolve():
        print(f"error: pego imported from {pego.__file__}, not from {src}", file=sys.stderr)
        return 2
    from pego import trainer

    from perfbench import spans, workloads

    probes = workloads.Probes()
    probes.install()
    rec = spans.Recorder() if args.trace else None
    phase = rec.span if rec else (lambda name, n1=0: nullcontext())
    workdir = workloads.make_workdir(str(ROOT))
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, probes, phase)
    problems: list[str] = []
    attempted = failed = 0

    def run_op(k):
        nonlocal attempted, failed
        attempted += 1
        try:
            with phase("bench.op", k):
                res = wl.op(k)
        except Exception:
            traceback.print_exc()
            failed += 1
            return None
        if res.problems:
            failed += 1
            problems.extend(res.problems)
        return res

    try:
        if rec:
            rec.install()
        setup_s = []
        for _ in range(workloads.SETUP_REPEATS):
            trainer._PRETRAIN_CACHE.clear()
            with phase("bench.setup"):
                t0 = time.perf_counter()
                wl.setup()
                setup_s.append(time.perf_counter() - t0)
        reference = None
        if rec:
            rec.uninstall()
            reference = run_op(0)
            rec.install()
        ops = []
        for k in range(max(1, math.ceil(args.seconds / wl.op_seconds))):
            res = run_op(k)
            if res is not None:
                ops.append(res)
    finally:
        if rec:
            rec.uninstall()
        workloads.remove_workdir(workdir)

    if args.trace:
        metrics, count_problems = spans.per_layer_metrics(spans.SpanTable(rec.names, rec.arrays()))
        problems.extend(count_problems)
        cpu, steps, wall = wl.pool_figures(ops)
        metrics["trainer.pool_cpu_s_per_step"] = (cpu / steps if steps else 0.0, "s")
        metrics["trainer.pool_busy_share"] = (cpu / (wl.jobs * wall) if wall else 0.0, "share")
        metrics["trainer.heldout_acc"] = (wl.heldout_acc(ops), "share")
        if reference is not None and ops:
            if reference.fingerprint != ops[0].fingerprint:
                problems.append("traced and untraced runs of the first operation differ")
            metrics["trace.overhead_share"] = (ops[0].wall_s / reference.wall_s - 1.0, "share")
        else:
            problems.append("no traced/untraced pair of the first operation completed")
            metrics["trace.overhead_share"] = (0.0, "share")
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        rec.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "train_steps_per_s": (wl.train_rate(ops), "1/s"),
            "eval_images_per_s": (wl.eval_rate(ops), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ops_ok_share": ((attempted - failed) / attempted, "share"),
        }

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"ops_failed_share {failed}/{attempted} = {failed / attempted!r} "
          f"(base: {attempted} {args.workload} operations)")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
