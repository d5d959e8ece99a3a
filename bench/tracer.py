"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` rebinds each traced function under every name a package
module holds it by (``mlpst.tensor.matmul`` and ``mlpst.mixer.matmul`` are
one function bound twice), so calls between modules are caught too.
``Tracer.remove`` puts the originals back. A span records its name, its
parent, its start and end, the matmul multiplies it performed itself and a
few counts taken at the same boundary. Every wrapper except ``matmul``'s
opens its own ``tensor.count_multiplies`` counter, so a span's count
excludes its children's and repeats exactly. Spans stay in memory until
``write`` saves them as JSON lines; ``per_layer`` turns them into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager, nullcontext

import numpy as np

import reference
from mlpst.tensor import count_multiplies

MODULES = (
    "mlpst.tensor", "mlpst.griddata", "mlpst.mixer", "mlpst.training",
    "mlpst.evaluation", "mlpst.checkpoint", "mlpst.ingestion", "mlpst.cli",
)
TRACED = {
    "mlpst.tensor": ("matmul", "layernorm_fwd", "layernorm_bwd", "gelu", "gelu_grad"),
    "mlpst.griddata": ("patchify", "apply_norm", "slice_dependencies"),
    "mlpst.mixer": (
        "spatial_mixer_fwd", "spatial_mixer_bwd", "temporal_mixer_fwd", "temporal_mixer_bwd",
        "fuse", "output_head", "batch_forward", "batch_backward", "model_forward",
    ),
    "mlpst.training": ("train", "gather_windows", "loss", "adam_step", "predict_batches"),
    "mlpst.evaluation": ("evaluate_model",),
    "mlpst.checkpoint": ("save_checkpoint", "load_checkpoint"),
    "mlpst.ingestion": ("aggregate", "write_dataset", "read_dataset"),
    "mlpst.cli": ("cmd_predict",),
}
BRANCHES = ("trend", "period", "closeness")

NAME, PARENT, START, END, MULTS, EXTRA = range(6)

# per-layer metric -> unit; "batch" is one call of mixer.batch_forward (or of
# batch_backward for a *_bwd metric), "call" one call of the named function
LAYER_UNITS = {
    "mixer.spatial_fwd_ms": "ms/batch",
    "mixer.spatial_bwd_ms": "ms/batch",
    "mixer.spatial_fwd_mults": "count/batch",
    "mixer.spatial_bwd_mults": "count/batch",
    "griddata.patchify_ms": "ms/batch",
    "mixer.frames_embedded": "frames/batch",
    "mixer.frames_distinct_ratio": "ratio",
    **{f"mixer.{b}_{d}_ms": "ms/batch" for b in BRANCHES for d in ("fwd", "bwd")},
    "mixer.temporal_fwd_mults": "count/batch",
    "mixer.temporal_bwd_mults": "count/batch",
    "tensor.matmul_ms": "ms/batch",
    "tensor.matmul_mults": "count/batch",
    "tensor.layernorm_fwd_ms": "ms/batch",
    "tensor.layernorm_bwd_ms": "ms/batch",
    "tensor.gelu_ms": "ms/batch",
    "tensor.gelu_grad_ms": "ms/batch",
    "mixer.fusion_head_fwd_ms": "ms/batch",
    "mixer.fusion_head_bwd_ms": "ms/batch",
    "mixer.head_mults": "count/batch",
    "mixer.cache_bytes": "bytes",
    "training.step_ms": "ms/step",
    "training.gather_ms": "ms/batch",
    "training.loss_ms": "ms/step",
    "training.adam_ms": "ms/step",
    "training.validation_ms": "ms/epoch",
    "checkpoint.save_ms": "ms/call",
    "checkpoint.bytes": "bytes/call",
    "checkpoint.load_ms": "ms/call",
    "ingestion.read_ms": "ms/call",
    "griddata.apply_norm_ms": "ms/call",
    "mixer.model_forward_ms": "ms/call",
    "cli.predict_self_ms": "ms/call",
    "evaluation.forward_ms_per_window": "ms/window",
    "evaluation.report_ms": "ms/call",
    "ingestion.parse_us_per_row": "us/row",
    "ingestion.aggregate_us_per_row": "us/row",
    "ingestion.write_ms": "ms/call",
}


def _bind(fn, wrapper) -> list[tuple[object, str, object]]:
    """Point every package-module name bound to ``fn`` at ``wrapper``."""
    saved = []
    for modname in MODULES:
        module = importlib.import_module(modname)
        for attr, value in list(vars(module).items()):
            if value is fn:
                saved.append((module, attr, value))
                setattr(module, attr, wrapper)
    return saved


def _unbind(saved) -> None:
    for module, attr, value in reversed(saved):
        setattr(module, attr, value)


@contextmanager
def rebind(fn, make_wrapper):
    """Within the ``with`` block, calls to ``fn`` go through ``make_wrapper(fn)``."""
    saved = _bind(fn, make_wrapper(fn))
    try:
        yield
    finally:
        _unbind(saved)


def held_bytes(obj) -> int:
    """Bytes of the distinct buffers an object graph of tuples and arrays holds."""
    seen: dict[int, int] = {}

    def walk(node):
        if isinstance(node, np.ndarray):
            base = node
            while isinstance(base.base, np.ndarray):
                base = base.base
            seen[id(base)] = base.nbytes
        elif isinstance(node, (tuple, list)):
            for item in node:
                walk(item)

    walk(obj)
    return sum(seen.values())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.params = None  # the ModelParams of the forward/backward in flight
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, extra: dict | None = None, counted: bool = True):
        """Record a span around the ``with`` body; yields the span record."""
        rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, 0, extra]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            with count_multiplies() if counted else nullcontext() as counter:
                rec[START] = time.perf_counter()
                try:
                    yield rec
                finally:
                    rec[END] = time.perf_counter()
            if counted:
                rec[MULTS] = counter.count
        finally:
            self.stack.pop()

    def _branch(self, stack_params) -> str:
        p = self.params
        for name in BRANCHES:
            if getattr(p, f"temporal_{name}", None) is stack_params:
                return name
        return "other"

    def _before(self, name: str, args) -> dict | None:
        if name == "mixer.batch_forward":
            self.params = args[1]
        elif name == "mixer.batch_backward":
            self.params = args[2]
        elif name == "mixer.spatial_mixer_fwd":
            return {"frames": int(np.prod(args[0].shape[:-3]))}
        elif name == "mixer.temporal_mixer_fwd":
            return {"branch": self._branch(args[1])}
        elif name == "mixer.temporal_mixer_bwd":
            return {"branch": self._branch(args[2])}
        elif name == "training.gather_windows":
            return {"distinct": len(reference.window_frames(args[1], args[2]))}
        elif name == "griddata.slice_dependencies":
            return {"distinct": len(reference.window_frames([len(args[0])], args[1]))}
        elif name == "training.predict_batches":
            return {"windows": len(args[2])}
        return None

    def _after(self, name: str, args, out, extra: dict | None) -> dict | None:
        if name == "mixer.batch_forward":
            return {"cache_bytes": held_bytes(out[1])}
        if name == "checkpoint.save_checkpoint":
            return {"bytes": os.path.getsize(args[0])}
        return extra

    def _wrap(self, name: str, fn):
        counted = name != "tensor.matmul"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, self._before(name, args), counted) as rec:
                out = fn(*args, **kwargs)
            rec[EXTRA] = self._after(name, args, out, rec[EXTRA])
            return out

        return wrapper

    def install(self) -> None:
        for modname, names in TRACED.items():
            home = importlib.import_module(modname)
            short = modname.split(".")[-1]
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is not None:
                    self._saved += _bind(fn, self._wrap(f"{short}.{fname}", fn))

    def remove(self) -> None:
        _unbind(self._saved)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def write(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end, mults, extra) in enumerate(self.spans):
                row = {"id": i, "name": name, "parent": parent, "start_s": start - t0,
                       "end_s": end - t0, "mults": mults}
                if extra:
                    row.update(extra)
                fh.write(json.dumps(row) + "\n")

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics, normalised as the README's table states."""
        spans = self.spans
        child = [0.0] * len(spans)
        by_name: dict[str, list[int]] = {}
        for i, rec in enumerate(spans):
            by_name.setdefault(rec[NAME], []).append(i)
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]

        def pick(name, parent=None, branch=None):
            for i in by_name.get(name, ()):
                rec = spans[i]
                if parent is not None and (rec[PARENT] < 0 or spans[rec[PARENT]][NAME] != parent):
                    continue
                if branch is not None and rec[EXTRA]["branch"] != branch:
                    continue
                yield i

        def count(name, **kw):
            return sum(1 for _ in pick(name, **kw))

        def incl(name, **kw):
            return sum(spans[i][END] - spans[i][START] for i in pick(name, **kw))

        def self_s(name, **kw):
            return sum(spans[i][END] - spans[i][START] - child[i] for i in pick(name, **kw))

        def mults(name, **kw):
            return sum(spans[i][MULTS] for i in pick(name, **kw))

        def extra(name, key):
            return sum(spans[i][EXTRA][key] for i in pick(name))

        def per(total, n):
            return total / n if n else 0.0

        nf = count("mixer.batch_forward")
        nb = count("mixer.batch_backward")
        frames = extra("mixer.spatial_mixer_fwd", "frames")
        distinct = extra("training.gather_windows", "distinct") + extra("griddata.slice_dependencies", "distinct")
        steps = count("training.adam_step")
        step_names = ("training.gather_windows", "mixer.batch_forward", "training.loss",
                      "mixer.batch_backward", "training.adam_step")
        rows = extra("ingestion.read_trips", "rows")
        saves = list(pick("checkpoint.save_checkpoint"))
        m = {
            "mixer.spatial_fwd_ms": per(self_s("mixer.spatial_mixer_fwd"), nf) * 1e3,
            "mixer.spatial_bwd_ms": per(self_s("mixer.spatial_mixer_bwd"), nb) * 1e3,
            "mixer.spatial_fwd_mults": per(mults("mixer.spatial_mixer_fwd"), nf),
            "mixer.spatial_bwd_mults": per(mults("mixer.spatial_mixer_bwd"), nb),
            "griddata.patchify_ms": per(self_s("griddata.patchify"), nf) * 1e3,
            "mixer.frames_embedded": per(frames, count("mixer.spatial_mixer_fwd")),
            "mixer.frames_distinct_ratio": per(distinct, frames),
        }
        for b in BRANCHES:
            m[f"mixer.{b}_fwd_ms"] = per(self_s("mixer.temporal_mixer_fwd", branch=b), nf) * 1e3
            m[f"mixer.{b}_bwd_ms"] = per(self_s("mixer.temporal_mixer_bwd", branch=b), nb) * 1e3
        m.update({
            "mixer.temporal_fwd_mults": per(mults("mixer.temporal_mixer_fwd"), nf),
            "mixer.temporal_bwd_mults": per(mults("mixer.temporal_mixer_bwd"), nb),
            "tensor.matmul_ms": per(self_s("tensor.matmul"), nf) * 1e3,
            "tensor.matmul_mults": per(sum(rec[MULTS] for rec in spans), nf),
            "tensor.layernorm_fwd_ms": per(self_s("tensor.layernorm_fwd"), nf) * 1e3,
            "tensor.layernorm_bwd_ms": per(self_s("tensor.layernorm_bwd"), nb) * 1e3,
            "tensor.gelu_ms": per(self_s("tensor.gelu"), nf) * 1e3,
            "tensor.gelu_grad_ms": per(self_s("tensor.gelu_grad"), nb) * 1e3,
            "mixer.fusion_head_fwd_ms": per(self_s("mixer.fuse") + self_s("mixer.output_head"), nf) * 1e3,
            "mixer.fusion_head_bwd_ms": per(self_s("mixer.batch_backward"), nb) * 1e3,
            "mixer.head_mults": per(mults("mixer.output_head"), nf) + per(mults("mixer.batch_backward"), nb),
            "mixer.cache_bytes": max((spans[i][EXTRA]["cache_bytes"] for i in pick("mixer.batch_forward")), default=0),
            "training.step_ms": per(sum(incl(n, parent="training.train") for n in step_names), steps) * 1e3,
            "training.gather_ms": per(self_s("training.gather_windows"), count("training.gather_windows")) * 1e3,
            "training.loss_ms": per(self_s("training.loss"), count("training.loss")) * 1e3,
            "training.adam_ms": per(self_s("training.adam_step"), steps) * 1e3,
            "training.validation_ms": per(
                incl("training.predict_batches", parent="training.train"),
                count("training.predict_batches", parent="training.train"),
            ) * 1e3,
            "checkpoint.save_ms": per(incl("checkpoint.save_checkpoint"), len(saves)) * 1e3,
            "checkpoint.bytes": per(sum(spans[i][EXTRA]["bytes"] for i in saves), len(saves)),
            "checkpoint.load_ms": per(incl("checkpoint.load_checkpoint"), count("checkpoint.load_checkpoint")) * 1e3,
            "ingestion.read_ms": per(incl("ingestion.read_dataset"), count("ingestion.read_dataset")) * 1e3,
            "griddata.apply_norm_ms": per(
                self_s("griddata.apply_norm", parent="cli.cmd_predict"),
                count("griddata.apply_norm", parent="cli.cmd_predict"),
            ) * 1e3,
            "mixer.model_forward_ms": per(incl("mixer.model_forward"), count("mixer.model_forward")) * 1e3,
            "cli.predict_self_ms": per(self_s("cli.cmd_predict"), count("cli.cmd_predict")) * 1e3,
            "evaluation.forward_ms_per_window": per(
                incl("training.predict_batches", parent="evaluation.evaluate_model"),
                sum(spans[i][EXTRA]["windows"] for i in pick("training.predict_batches", parent="evaluation.evaluate_model")),
            ) * 1e3,
            "evaluation.report_ms": per(self_s("evaluation.evaluate_model"), count("evaluation.evaluate_model")) * 1e3,
            "ingestion.parse_us_per_row": per(incl("ingestion.read_trips"), rows) * 1e6,
            "ingestion.aggregate_us_per_row": per(incl("ingestion.aggregate"), rows) * 1e6,
            "ingestion.write_ms": per(incl("ingestion.write_dataset"), count("ingestion.write_dataset")) * 1e3,
        })
        return m
