"""Command-line front end.

Subcommands tie generation, training, evaluation, the leave-one-domain-out
harness, the ablation grid, the group-size sweep, gradient auditing, and
the weight/feature diagnostics into reproducible runs. Every run writes a
manifest recording the effective config, its hash, the seeds, and the
artifact paths; re-running a manifest's config reproduces the summary CSV
byte for byte in single-job mode.

Exit codes: 0 success, 1 check failure, 2 config error, 3 I/O or format
error, 4 degenerate input; each class in ``errors`` names its code.
``machine`` decides how a run uses the CPUs: ``PEGO_THREADS`` caps how
many processes pego keeps busy, the children a whole-dataset no-grad
forward forks beside the reading process and the workers of a grid's
process pool, which never fork for their own forwards. Every process
computes on one thread, and numpy's BLAS runs one thread: ``machine``
pins OpenBLAS on import, and ``pego.entry``, the console script, pins
every BLAS vendor before this module loads numpy.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
import time
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, adapters, checkpoint, data, diagnostics, gradcheck, machine, trainer
from .errors import ConfigError, PegoError
from .numerics import make_rng

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2

GRADCHECK_THRESHOLDS = {0.0: 1e-6, 1e-3: 1e-5}


def _int_at_least(low: int, name: str):
    """An argparse type for ``name``, an int of at least ``low`` (0 or 1):
    numpy's generators take nonnegative seeds only, and a pool needs at
    least one worker."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be {('nonnegative', 'positive')[low]}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message names the type
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pego", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic multi-domain dataset file")
    p.add_argument("--config", help="JSON with dataset spec fields (domains, classes, per_class, image_size)")
    p.add_argument("--out", required=True, help="dataset file to write")
    p.add_argument("--seed", type=_int_at_least(0, "seed"), default=0)
    p.set_defaults(func=cmd_gen)

    def train_like(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", help="JSON mirroring the training config fields")
        q.add_argument("--dataset", required=True)
        q.add_argument("--out", required=True)
        q.add_argument("--seed", type=int)
        q.add_argument("--alpha", type=float)
        q.add_argument("--rank", type=int)
        q.add_argument("--group-n", type=int, dest="group_n")
        q.add_argument("--lr", type=float)
        q.add_argument("--iters", type=int)
        return q

    def harness(name, help_text, run):
        q = train_like(name, help_text)
        q.add_argument("--seeds", default="0,1,2", help="comma-separated run seeds")
        q.add_argument("--jobs", type=_int_at_least(1, "jobs"), default=1, help="the most workers a grid may fork")
        q.set_defaults(func=partial(_run_harness, run=run))
        return q

    p = train_like("train", "train on every domain of a dataset, write checkpoints and metrics")
    p.add_argument("--base", help="frozen base checkpoint; its model config is the run's (default: built-in stand-in)")
    p.set_defaults(func=cmd_train)

    harness("lodo", "leave-one-domain-out evaluation across seeds", cmd_lodo)
    harness("ablate", "on/off grid over the two penalties plus a single-module reference", cmd_ablate)
    p = harness("sweep", "select the group size by training-domain validation accuracy", cmd_sweep)
    p.add_argument("--values", help="candidate group sizes (default: the config's n_search, 2,4,6)")

    p = sub.add_parser("eval", help="accuracy of a checkpoint on one domain of a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--domain", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="audit analytic gradients against central differences")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=_int_at_least(0, "seed"), default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("analyze", help="weight principal-component and feature-projection reports")
    p.add_argument("--ckpt", required=True, help="checkpoint with adapters, or the post-merge of a pair")
    p.add_argument("--pre", help="pre-merge or base checkpoint when --ckpt has no adapters")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layer", default="last.wv", help="BLOCK.PROJ, e.g. 0.wq or last.wv")
    p.add_argument("--top-k", type=int, default=10, dest="top_k")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        machine.thread_budget()  # a malformed PEGO_THREADS fails here, before any work
        return args.func(args)
    except PegoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def _read_json(path) -> dict:
    """The JSON object in the config file ``path``; anything else raises
    ``ConfigError``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {type(raw).__name__}")
    return raw


def _ensure_outdir(raw) -> Path:
    path = Path(raw)
    if path.is_dir():
        return path
    if path.exists():
        raise ConfigError(f"output directory {path} exists and is not a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"output directory {path} cannot be created: {path.parent} does not exist")
    path.mkdir()
    return path


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()


def _write_json(path: Path, obj) -> Path:
    """Write ``obj`` to ``path`` as indented, key-sorted JSON; return ``path``."""
    with checkpoint.atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_manifest(args, path: Path, config: dict, seeds, artifacts, t0: float, workers=None, **extra) -> None:
    options = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")}
    manifest = {
        "command": args.command,
        "options": options,
        "config": config,
        "config_hash": _config_hash(config),
        "seeds": list(seeds),
        "artifacts": [str(a) for a in artifacts],
        "wall_clock_seconds": time.monotonic() - t0,
        "threads": machine.details(options.get("jobs", 1), workers),
        "version": __version__,
        **extra,
    }
    _write_json(path, manifest)


def _load_train_config(args, dataset, base=None):
    """The run's config: the config file's, or a default built from the
    dataset, with the command line's numbers over it and, when ``base`` is
    given, that checkpoint's model config as its ``vit``. Each config
    checks itself when it is built, so this adds only the check that the
    model fits the dataset."""
    loaded = trainer.TrainConfig.from_dict(_read_json(args.config)) if args.config else None
    names = ("seed", "alpha", "rank", "group_n", "lr")
    overrides = {n: getattr(args, n) for n in names if getattr(args, n) is not None}
    if args.iters is not None:
        overrides["iterations"] = args.iters
    if getattr(args, "values", None) is not None:
        overrides["n_search"] = tuple(_parse_ints(args.values, "candidate group size"))
    if base is not None:
        overrides["vit"] = base.cfg
    elif loaded is None:
        vit_cfg = trainer.canonical_vit_config(num_classes=dataset.num_classes)
        overrides["vit"] = replace(vit_cfg, image_size=_image_size(dataset))
    # One build from the final values: every build is checked, so a default the flags replace is never built alone.
    cfg = replace(loaded, **overrides) if loaded is not None else trainer.TrainConfig(**overrides)
    model_path = args.base if base is not None else args.config or "the built-in config"
    _check_fit(cfg.vit, model_path, dataset, args.dataset)
    for name in ("alpha", "rank"):
        value, default = getattr(cfg, name), trainer.TrainConfig.__dataclass_fields__[name].default
        if value != default:
            print(f"warning: {name}={value!r} differs from the recommended default {default!r}", file=sys.stderr)
    return cfg


def _image_size(dataset) -> int:
    return next(iter(dataset.images.values())).shape[1]


def _check_fit(model_cfg, model_path, dataset, dataset_path) -> None:
    """Raise ``ConfigError``, naming both files, unless a model of
    ``model_cfg`` (from ``model_path``) takes the images of ``dataset``
    (from ``dataset_path``) and predicts its classes."""
    size, classes = _image_size(dataset), dataset.num_classes
    if (model_cfg.image_size, model_cfg.num_classes) != (size, classes):
        raise ConfigError(
            f"the model of {model_path} takes {model_cfg.image_size}px images of {model_cfg.num_classes} classes, "
            f"but the dataset {dataset_path} has {size}px images of {classes} classes"
        )


def _parse_ints(raw: str, what: str) -> list[int]:
    """A nonempty comma-separated list of distinct nonnegative ints, such as ``--seeds``."""
    try:
        values = [int(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {raw!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"at least one {what} is required")
    if min(values) < 0:
        raise ConfigError(f"bad {what} list {raw!r}: values must be nonnegative")
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise ConfigError(f"{what}s must be distinct, but {repeated} is repeated in {raw!r}")
    return values


def _write_csv(path, header, rows) -> Path:
    # The csv module writes a float as its repr, which reads back exactly,
    # and None as an empty cell.
    with checkpoint.atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _history_csv(path, history) -> Path:
    return _write_csv(
        path,
        ["iter", "loss_cls", "loss_preserve", "loss_diversify", "loss_or", "val_acc"],
        ([r.iteration, r.loss_cls, r.loss_preserve, r.loss_diversify, r.loss_or, r.val_acc] for r in history),
    )


def cmd_gen(args) -> int:
    t0 = time.monotonic()
    raw = _read_json(args.config) if args.config else {}
    unknown = set(raw) - set(data.DatasetSpec.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown dataset spec keys: {sorted(unknown)}")
    spec = data.DatasetSpec(**raw)
    out = Path(args.out)
    if not out.parent.is_dir():
        raise ConfigError(f"output directory {out.parent} does not exist")
    if out.is_dir():
        raise ConfigError(f"dataset file {out} is an existing directory")
    dataset = data.generate_dataset(spec, args.seed)
    checkpoint.save_dataset(out, dataset)
    for dom in dataset.domains:
        labels = dataset.labels[dom]
        counts = ", ".join(f"class {c}: {int((labels == c).sum())}" for c in range(dataset.num_classes))
        print(f"{dom}: {counts}")
    print(f"wrote {dataset.total_samples()} samples to {out}")
    # Named after the dataset, so it never replaces a run directory's manifest.
    manifest = out.with_name(out.name + ".manifest.json")
    _write_manifest(args, manifest, {"dataset": spec.__dict__, "seed": args.seed}, [args.seed], [out], t0)
    return EXIT_OK


def cmd_train(args) -> int:
    t0 = time.monotonic()
    dataset = checkpoint.load_dataset(args.dataset)
    # A base's own groups fold into its weights; training attaches fresh ones.
    base = adapters.merge_all(checkpoint.load_model(args.base)) if args.base else None
    cfg = _load_train_config(args, dataset, base)
    out = _ensure_outdir(args.out)
    t1 = time.monotonic()
    if base is None:
        base = trainer.pretrain_base(cfg.vit, cfg.seed)
    t2 = time.monotonic()
    result = trainer.train(base, dataset, cfg)
    artifacts = [out / name for name in ("adapted.ckpt", "merged.ckpt", "run.csv")]
    adapted_path, merged_path, run_path = artifacts
    checkpoint.save_model(adapted_path, result.adapted)
    checkpoint.save_model(merged_path, result.model)
    _history_csv(run_path, result.history)
    print(f"selected iteration {result.selected_iter} with validation accuracy {result.best_val_acc!r}")
    phases = {"load": t1 - t0, "pretrain": t2 - t1, "run": time.monotonic() - t2}
    _write_manifest(args, out / "manifest.json", asdict(cfg), [cfg.seed], artifacts, t0, phases=phases)
    return EXIT_OK


def cmd_eval(args) -> int:
    model = checkpoint.load_model(args.ckpt)
    dataset = checkpoint.load_dataset(args.dataset)
    _check_fit(model.cfg, args.ckpt, dataset, args.dataset)
    acc = trainer.evaluate(model, dataset, domains=[args.domain])
    print(f"domain={args.domain} samples={len(dataset.labels[args.domain])} accuracy={acc!r}")
    return EXIT_OK


def _run_harness(args, run) -> int:
    """Load the dataset, config, seeds and output directory, build the base,
    call ``run(args, dataset, cfg, seeds, base, out)`` for the artifacts it
    writes and the number of variants its grid ran, with progress lines on
    stderr, then write the manifest."""
    t0 = time.monotonic()
    dataset = checkpoint.load_dataset(args.dataset)
    cfg = _load_train_config(args, dataset)
    seeds = _parse_ints(args.seeds, "seed")
    trainer.check_grid(dataset, seeds)
    out = _ensure_outdir(args.out)
    t1 = time.monotonic()
    base = trainer.pretrain_base(cfg.vit, cfg.seed)
    t2 = time.monotonic()
    handler, level = logging.StreamHandler(sys.stderr), trainer.log.level
    trainer.log.addHandler(handler)
    trainer.log.setLevel(logging.INFO)
    try:
        artifacts, variants = run(args, dataset, cfg, seeds, base, out)
    finally:
        trainer.log.removeHandler(handler)
        trainer.log.setLevel(level)
    phases = {"load": t1 - t0, "pretrain": t2 - t1, "run": time.monotonic() - t2}
    workers = machine.pool_workers(args.jobs, variants * len(dataset.domains) * len(seeds))
    _write_manifest(args, out / "manifest.json", asdict(cfg), seeds, artifacts, t0, workers, phases=phases)
    return EXIT_OK


def cmd_lodo(args, dataset, cfg, seeds, base, out) -> tuple[list[Path], int]:
    result = trainer.leave_one_domain_out(dataset, cfg, seeds, base, jobs=args.jobs)
    rows = ([rec.test_domain, rec.seed, rec.accuracy, rec.selected_iter] for rec in result.records)
    artifacts = [_write_csv(out / "summary.csv", ["test_domain", "seed", "accuracy", "selected_iter"], rows)]
    artifacts += [_history_csv(out / f"run_{rec.test_domain}_{rec.seed}.csv", rec.history) for rec in result.records]
    means = result.per_domain_mean()
    errs = result.per_domain_stderr()
    for dom in dataset.domains:
        print(f"{dom}: {means[dom]:.4f} +/- {errs[dom]:.4f}")
    print(f"average: {result.average:.4f}")
    return artifacts, 1


def cmd_ablate(args, dataset, cfg, seeds, base, out) -> tuple[list[Path], int]:
    rows = trainer.ablate(dataset, cfg, seeds, base, jobs=args.jobs)
    table_path = out / "ablate.csv"
    _write_csv(
        table_path,
        ["method", "preserve", "diversify", "group_n", "mean_acc", "stderr"],
        ([r.label, int(r.preserve_on), int(r.diversify_on), r.group_n, r.mean_acc, r.stderr] for r in rows),
    )
    for row in rows:
        print(f"{row.label}: {row.mean_acc:.4f} +/- {row.stderr:.4f}")
    return [table_path], len(rows)


def cmd_sweep(args, dataset, cfg, seeds, base, out) -> tuple[list[Path], int]:
    result = trainer.sweep_n(dataset, cfg, seeds, base, jobs=args.jobs)
    table_path = out / "sweep.csv"
    _write_csv(
        table_path,
        ["n", "mean_val_acc", "stderr", "selected"],
        ([r.n, r.mean_val_acc, r.stderr, int(r.n == result.best_n)] for r in result.rows),
    )
    print(f"selected group size {result.best_n}")
    return [table_path], len(result.rows)


def cmd_gradcheck(args) -> int:
    model, batch = gradcheck.make_probe_model(args.seed)
    ok = True
    for alpha, threshold in GRADCHECK_THRESHOLDS.items():
        err = gradcheck.grad_check(model, batch, alpha, args.samples, make_rng(args.seed, 5))
        passed = err < threshold
        ok = ok and passed
        print(
            f"alpha={alpha!r} samples={args.samples} max_rel_error={err!r} "
            f"threshold={threshold!r} {'ok' if passed else 'FAIL'}"
        )
    return EXIT_OK if ok else EXIT_CHECK


def _resolve_layer(model, spec: str):
    parts = spec.split(".")
    projections = adapters.ADAPTED_PROJECTIONS
    if len(parts) != 2 or parts[1] not in projections:
        raise ConfigError(f"bad layer spec {spec!r}; expected BLOCK.PROJ, PROJ in ({', '.join(projections)})")
    block_raw, proj = parts
    if block_raw == "last":
        index = len(model.blocks) - 1
    else:
        try:
            index = int(block_raw)
        except ValueError as exc:
            raise ConfigError(f"bad block index {block_raw!r}") from exc
        if not 0 <= index < len(model.blocks):
            raise ConfigError(f"block index {index} outside [0, {len(model.blocks) - 1}]")
    return index, proj


def _write_analysis_csvs(out, report, projection) -> list:
    """Write a weight PC report and a feature projection as ``pego analyze``'s
    three CSVs in ``out``; return their paths."""
    evr_path, cos_path, proj_path = (out / name for name in ("pc_evr.csv", "pc_cosine.csv", "feature_proj.csv"))
    _write_csv(evr_path, ["component", "evr"], enumerate(report.evr_top_k))
    _write_csv(cos_path, ["i", "j", "abs_cos"], ((i, j, float(c)) for (i, j), c in np.ndenumerate(report.pc_cosine)))
    points = zip(projection.model_tags, projection.labels, projection.coords)
    rows = ((tag, int(label), float(x), float(y)) for tag, label, (x, y) in points)
    _write_csv(proj_path, ["model_tag", "label", "x", "y"], rows)
    return [evr_path, cos_path, proj_path]


def cmd_analyze(args) -> int:
    t0 = time.monotonic()
    dataset = checkpoint.load_dataset(args.dataset)
    model = checkpoint.load_model(args.ckpt)
    _check_fit(model.cfg, args.ckpt, dataset, args.dataset)
    index, proj = _resolve_layer(model, args.layer)
    layer = getattr(model.blocks[index].attn, proj)
    models = [(Path(args.ckpt).stem, model)]
    if args.pre:
        pre_model = checkpoint.load_model(args.pre)
        if pre_model.cfg != model.cfg:
            raise ConfigError(f"--pre model {pre_model.cfg} differs from --ckpt model {model.cfg}")
        models.insert(0, (Path(args.pre).stem, pre_model))
        pre_layer = getattr(pre_model.blocks[index].attn, proj)
        w_pre = pre_layer.base.data
        delta = layer.base.data - pre_layer.base.data
        if layer.group is not None:
            delta = delta + adapters.group_delta(layer.group)
    elif layer.group is not None:
        w_pre = layer.base.data
        delta = adapters.group_delta(layer.group)
    else:
        raise ConfigError("checkpoint has no adapters at the requested layer; provide --pre for a merged pair")
    k = min(args.top_k, min(w_pre.shape))
    t1 = time.monotonic()
    report = diagnostics.weight_pc_report(w_pre, delta, k)
    t2 = time.monotonic()
    images = [dataset.images[d] for d in dataset.domains]
    labels = np.concatenate([dataset.labels[d] for d in dataset.domains])
    projection = diagnostics.feature_projection(models, images, labels)
    t3 = time.monotonic()
    out = _ensure_outdir(args.out)
    csv_paths = _write_analysis_csvs(out, report, projection)
    tol = diagnostics.SIGNIFICANT_PC_REL_TOL
    meta = {
        "layer": f"{index}.{proj}",
        "top_k": k,
        "numerical_rank": report.numerical_rank,
        "significance_rel_tol": tol,
    }
    artifacts = [*csv_paths, _write_json(out / "analyze_meta.json", meta)]
    print(f"layer {index}.{proj}: numerical rank {report.numerical_rank} at rel tol {tol!r}")
    phases = {"load": t1 - t0, "weight_report": t2 - t1, "feature_projection": t3 - t2, "write": time.monotonic() - t3}
    _write_manifest(args, out / "manifest.json", {"layer": args.layer, "top_k": k}, [], artifacts, t0, phases=phases)
    return EXIT_OK


if __name__ == "__main__":  # numpy is loaded, so its BLAS vendor can no longer be pinned
    build_parser().error("run the command line as `python -m pego` or `pego`, not `python -m pego.cli`")
