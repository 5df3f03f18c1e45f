"""Outside-in span recorder and the per-layer metrics computed from it.

The recorder patches public functions of the pego modules from outside:
each patched call records one span (name, start, end, parent span, cell
id, and two integer counters). Every tape op is wrapped as well, and so
is the ``grad_fn`` closure it returns, so backward work gets a span per
op too. Nothing inside ``src/`` changes and no value passes through the
wrappers altered, so a traced run computes bitwise what an untraced one
does.

Spans stay in memory in flat arrays and are written once, at the end.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import itertools
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Tape ops by the kind they are reported under; ``shape`` gathers the
# ops that only move or rescale data.
OP_KINDS = {
    "matmul": "matmul",
    "add": "add",
    "gelu": "gelu",
    "layernorm": "layernorm",
    "softmax_last": "softmax_last",
    "cross_entropy_mean": "cross_entropy_mean",
    "abs_sum": "abs_sum",
    "transpose": "shape",
    "reshape": "shape",
    "broadcast_to": "shape",
    "concat": "shape",
    "narrow": "shape",
    "scale": "shape",
}
KINDS = sorted(set(OP_KINDS.values()))


COLUMNS = ("sid", "code", "t0", "t1", "parent", "n1", "n2")


class Recorder:
    """Holds the spans of one process and the patches that produce them.

    A span is one row of ``COLUMNS`` appended to a flat int64 array when
    it closes: its id (ids count up in opening order), name code, start
    and end in perf-counter nanoseconds, parent id (-1 at the top), and
    two counters whose meaning depends on the span's kind.
    """

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._rows = array("q")
        self._ids = itertools.count()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    @contextmanager
    def span(self, name: str, n1: int = 0):
        """A span around a block of the benchmark's own code."""
        code = self.code_of(name)
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._rows.extend((sid, code, t0, t1, parent, n1, 0))

    def wrap(self, name: str, fn, images_arg: int | None = None):
        """``fn`` recording a span per call. With ``images_arg``, n1 holds
        the batch size of that positional argument and n2 is 1 when the
        call recorded no tape (a no-grad forward)."""
        code = self.code_of(name)
        clock, ids, stack, put = time.perf_counter_ns, self._ids, self._stack, self._rows.extend

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            n1 = n2 = 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if images_arg is not None:
                    n1 = len(args[images_arg])
                    n2 = int(getattr(out, "grad_fn", None) is None)
                return out
            finally:
                t1 = clock()
                stack.pop()
                put((sid, code, t0, t1, parent, n1, n2))

        return traced

    def wrap_op(self, name: str, fn):
        """A tape op: n1 is 1 when the call recorded a tape node, and the
        node's ``grad_fn`` is replaced by a traced copy."""
        fwd = self.code_of(f"fwd.{name}")
        bwd = self.code_of(f"bwd.{name}")
        clock, ids, stack, put = time.perf_counter_ns, self._ids, self._stack, self._rows.extend
        wrap_grad = self._wrap_grad

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                put((sid, fwd, t0, clock(), parent, 0, 0))
                raise
            t1 = clock()
            stack.pop()
            node = out.grad_fn is not None
            if node:
                out.grad_fn = wrap_grad(out.grad_fn, out.parents, bwd)
            put((sid, fwd, t0, t1, parent, node, 0))
            return out

        return traced

    def _wrap_grad(self, grad_fn, parents, code):
        # n1 counts the parent gradients the closure computed, n2 those
        # backprop keeps (the parent requires a gradient).
        clock, ids, stack, put = time.perf_counter_ns, self._ids, self._stack, self._rows.extend

        def traced_grad(g):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                grads = grad_fn(g)
            except BaseException:
                stack.pop()
                put((sid, code, t0, clock(), parent, 0, 0))
                raise
            t1 = clock()
            stack.pop()
            computed = kept = 0
            for p, pg in zip(parents, grads):
                if pg is not None:
                    computed += 1
                    kept += p.requires_grad
            put((sid, code, t0, t1, parent, computed, kept))
            return grads

        return traced_grad

    def patch(self, module, attr: str, name: str, images_arg: int | None = None) -> None:
        """Replace ``module.attr`` by a traced wrapper; absent attributes are skipped."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        self._undo.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, fn, images_arg))

    def install(self) -> None:
        from pego import adapters, checkpoint, data, diagnostics, gradcheck, numerics, trainer, vit
        from pego import autograd as ag

        self.patch(data, "generate_dataset", "data.generate_dataset")
        self.patch(trainer, "generate_dataset", "data.generate_dataset")
        self.patch(trainer, "make_batch", "data.make_batch")
        for attr in ("pretrain_base", "train", "run_single", "leave_one_domain_out", "evaluate", "adam_step",
                     "_component_losses"):
            self.patch(trainer, attr, f"trainer.{attr}")
        self.patch(gradcheck, "backward", "gradcheck.backward")
        self.patch(gradcheck, "batch_loss_tensor", "vit.batch_loss_tensor")
        self.patch(vit, "batch_loss_tensor", "vit.batch_loss_tensor")
        self.patch(vit, "batch_features_tensor", "vit.batch_features_tensor", images_arg=1)
        self.patch(adapters, "loss_or_tensor", "adapters.loss_or_tensor")
        self.patch(adapters, "merge_all", "adapters.merge_all")
        self.patch(ag, "backprop", "autograd.backprop")
        for op in OP_KINDS:
            fn = getattr(ag, op, None)
            if fn is not None:
                self._undo.append((ag, op, fn))
                setattr(ag, op, self.wrap_op(op, fn))
        for attr in ("save_model", "load_model", "save_dataset", "load_dataset"):
            self.patch(checkpoint, attr, f"checkpoint.{attr}")
        self.patch(diagnostics, "weight_pc_report", "diagnostics.weight_pc_report")
        self.patch(diagnostics, "feature_projection", "diagnostics.feature_projection")
        self.patch(diagnostics, "svd", "numerics.svd")
        self.patch(numerics, "svd", "numerics.svd")

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, ordered so that row i is span id i,
        plus each span's cell: the operation index of the enclosing
        ``bench.op`` span, or -1 during set-up."""
        rows = np.frombuffer(self._rows, dtype=np.int64).reshape(-1, len(COLUMNS))
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        cols = {key: rows[:, i] for i, key in enumerate(COLUMNS) if key != "sid"}
        cols["cell"] = np.full(rows.shape[0], -1, dtype=np.int64)
        if "bench.op" in self.names:
            op = _nearest(cols["code"] == self.names.index("bench.op"), cols["parent"])
            cols["cell"][op >= 0] = cols["n1"][op[op >= 0]]
        return cols

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Read-side view of recorded spans with ancestry queries."""

    def __init__(self, names: list[str], cols: dict[str, np.ndarray]):
        self.names = names
        self.code = cols["code"]
        self.parent = cols["parent"]
        self.n1 = cols["n1"]
        self.n2 = cols["n2"]
        self.t0 = cols["t0"]
        self.dur = (cols["t1"] - cols["t0"]).astype(np.float64) / 1e9
        n = self.code.size
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child[:n]

    def is_(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.code.size, dtype=bool)
        return self.code == self.names.index(name)

    def nearest(self, name: str) -> np.ndarray:
        """Per span, the id of the closest span named ``name`` among itself
        and its ancestors, or -1."""
        return _nearest(self.is_(name), self.parent)

    def under(self, name: str) -> np.ndarray:
        return self.nearest(name) >= 0


def _nearest(mark: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per span, the id of the closest marked span among itself and its
    ancestors, or -1; ``parent`` holds each span's parent id."""
    found = np.where(mark, np.arange(mark.size), -1)
    anc = parent.copy()
    todo = (found < 0) & (anc >= 0)
    while todo.any():
        hit = todo.copy()
        hit[todo] = mark[anc[todo]]
        found[hit] = anc[hit]
        anc[todo] = parent[anc[todo]]
        todo = (found < 0) & (anc >= 0)
    return found


def per_layer_metrics(table: SpanTable) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """The per-layer metrics of one traced run, and a list of problems
    found in the counts (empty when every training step recorded the
    same tape).

    Per-step figures cover the adapter-training steps of the run (each
    ``gradcheck.backward`` call under ``trainer.train``), wherever they
    ran: in the measured cells, or in the fixture a workload trains
    during set-up. Spans from pool workers are not collected.
    """
    t = table
    in_train = t.under("trainer.train")
    step_of = np.where(in_train, t.nearest("gradcheck.backward"), -1)
    in_step = step_of >= 0
    steps = int(np.sum(t.is_("gradcheck.backward") & in_train))
    setups = int(np.sum(t.is_("bench.setup")))
    out: dict[str, tuple[float, str]] = {}
    problems: list[str] = []

    def per_step(total: float) -> float:
        return total / steps if steps else 0.0

    def mean_ms(name: str, mask=None) -> float:
        sel = t.is_(name) if mask is None else t.is_(name) & mask
        return float(t.dur[sel].mean() * 1e3) if sel.any() else 0.0

    def step_sum(name: str, field=None) -> float:
        sel = t.is_(name) & in_step
        return float((t.dur if field is None else field)[sel].sum())

    out["data.make_batch_ms"] = (mean_ms("data.make_batch", in_train), "ms")
    gen_total = float(t.dur[t.is_("data.generate_dataset")].sum())
    out["data.generate_s"] = (gen_total / setups if setups else 0.0, "s")

    blt = step_sum("vit.batch_loss_tensor")
    pen = step_sum("adapters.loss_or_tensor")
    out["vit.forward_ms"] = (per_step(blt - pen) * 1e3, "ms")
    feats = t.is_("vit.batch_features_tensor") & (t.n2 == 1) & ~t.under("bench.check")
    images = int(t.n1[feats].sum())
    out["vit.forward_nograd_us_per_image"] = (float(t.dur[feats].sum()) / images * 1e6 if images else 0.0, "us")

    out["adapters.penalty_ms"] = (per_step(pen) * 1e3, "ms")
    comp = float(t.dur[t.is_("trainer._component_losses") & in_train].sum())
    out["adapters.component_losses_ms"] = (per_step(comp) * 1e3, "ms")
    out["adapters.merge_ms"] = (mean_ms("adapters.merge_all"), "ms")

    out["autograd.backprop_ms"] = (per_step(step_sum("autograd.backprop", t.self_time)) * 1e3, "ms")

    fwd_ops = np.zeros(t.code.size, dtype=bool)
    bwd_ops = np.zeros(t.code.size, dtype=bool)
    for op in OP_KINDS:
        fwd_ops |= t.is_(f"fwd.{op}")
        bwd_ops |= t.is_(f"bwd.{op}")
    fwd_ops &= in_step
    bwd_ops &= in_step
    step_ids = np.flatnonzero(t.is_("gradcheck.backward") & in_train)
    calls = _per_step_counts(step_of, fwd_ops, step_ids)
    nodes = _per_step_counts(step_of, fwd_ops & (t.n1 == 1), step_ids)
    matmuls = _per_step_counts(step_of, t.is_("fwd.matmul") & in_step, step_ids)
    computed = _per_step_counts(step_of, bwd_ops, step_ids, t.n1)
    kept = _per_step_counts(step_of, bwd_ops, step_ids, t.n2)
    for label, counts in (("op_calls", calls), ("tape_nodes", nodes), ("matmul_calls", matmuls),
                          ("parent_grads_computed", computed), ("parent_grads_kept", kept)):
        if counts.size and np.unique(counts).size != 1:
            problems.append(f"autograd.{label} differs between steps: {sorted(set(counts.tolist()))}")
        out[f"autograd.{label}"] = (float(counts[0]) if counts.size else 0.0, "count")
    out["autograd.useful_grad_ratio"] = (float(kept.sum() / computed.sum()) if computed.sum() else 0.0, "ratio")

    for kind in KINDS:
        ops = [op for op, k in OP_KINDS.items() if k == kind]
        fwd = sum(step_sum(f"fwd.{op}", t.self_time) for op in ops)
        bwd = sum(step_sum(f"bwd.{op}", t.self_time) for op in ops)
        out[f"autograd.fwd_ms.{kind}"] = (per_step(fwd) * 1e3, "ms")
        out[f"autograd.bwd_ms.{kind}"] = (per_step(bwd) * 1e3, "ms")

    back_self = float(t.self_time[t.is_("gradcheck.backward") & in_train].sum())
    out["gradcheck.backward_self_ms"] = (per_step(back_self) * 1e3, "ms")

    out["trainer.adam_ms"] = (mean_ms("trainer.adam_step", in_train), "ms")
    validate = t.is_("trainer.evaluate") & in_train
    out["trainer.validate_ms"] = (float(t.dur[validate].mean() * 1e3) if validate.any() else 0.0, "ms")
    train_total = float(t.dur[t.is_("trainer.train")].sum())
    out["trainer.validate_share"] = (float(t.dur[validate].sum()) / train_total if train_total else 0.0, "share")
    step_ms = _step_durations_ms(t, in_train)
    out["trainer.step_ms_p50"] = (float(np.percentile(step_ms, 50)) if step_ms.size else 0.0, "ms")
    out["trainer.step_ms_p95"] = (float(np.percentile(step_ms, 95)) if step_ms.size else 0.0, "ms")
    out["trainer.pretrain_s"] = (mean_ms("trainer.pretrain_base") / 1e3, "s")

    out["checkpoint.load_model_ms"] = (mean_ms("checkpoint.load_model"), "ms")
    out["checkpoint.load_dataset_ms"] = (mean_ms("checkpoint.load_dataset"), "ms")
    out["checkpoint.save_model_ms"] = (mean_ms("checkpoint.save_model"), "ms")
    out["diagnostics.feature_projection_ms"] = (mean_ms("diagnostics.feature_projection"), "ms")
    out["diagnostics.weight_pc_report_ms"] = (mean_ms("diagnostics.weight_pc_report"), "ms")
    out["numerics.svd_ms"] = (mean_ms("numerics.svd"), "ms")
    out["trace.spans"] = (float(t.code.size), "count")
    return out, problems


def _per_step_counts(step_of, mask, step_ids, weights=None) -> np.ndarray:
    if step_ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    sel = mask & (step_of >= 0)
    w = None if weights is None else weights[sel]
    counts = np.bincount(step_of[sel], weights=w, minlength=int(step_ids.max()) + 1)
    return counts[step_ids].astype(np.int64)


def _step_durations_ms(t: SpanTable, in_train: np.ndarray) -> np.ndarray:
    """Time from one ``make_batch`` to the next within each training run:
    batch, forward, backward, Adam, penalty recompute and any validation.
    The last step of each run has no successor and is left out."""
    batches = np.flatnonzero(t.is_("data.make_batch") & in_train)
    if batches.size < 2:
        return np.zeros(0)
    owner = t.nearest("trainer.train")[batches]
    starts = t.t0[batches]
    same = owner[1:] == owner[:-1]
    return (starts[1:] - starts[:-1])[same].astype(np.float64) / 1e6
