"""Spans around the calls from one layer of `disents` into the next.

A `Tracer` replaces module attributes (for example `pipeline.adam_step`,
the name through which a train step reaches the optimizer) with wrappers
that record a span per call: name, start, end, the enclosing span on the
same thread, and the benchmark phase it ran in. Spans stay in memory and
are written out once, at the end of a run. Nothing inside the package is
changed; restoring the tracer puts every attribute back.

A span's self time is its duration minus the durations of its direct
children. Work the package does in evaluation worker threads starts new
roots on those threads, so the self time of `pipeline.evaluate` counts
only the calling thread.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from statistics import median
from time import perf_counter

from disents import checkpoint, cli, datakit, gating, lwa, numcore, pipeline


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "thread")

    def __init__(self, name: str, parent: int, phase: str, thread: int):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.thread = thread
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around patched attributes; `phase` labels what follows."""

    def __init__(self):
        self.spans: list[Span] = []
        self.results: dict[str, list] = {}
        self.tape_lengths: list[int] = []
        self.phase = "setup"
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, keep: bool = False) -> None:
        """Time every call of `owner.attr` as span `name`; keep results if asked."""
        original = getattr(owner, attr)
        spans = self.spans
        kept = self.results.setdefault(name, []) if keep else None

        @wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else -1, self.phase, threading.get_ident())
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if kept is not None:
                kept.append(out)
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def count_tape(self) -> None:
        """Record the DiffRecord length of every `recording()` block a train step opens."""
        original = pipeline.recording
        lengths = self.tape_lengths

        @contextmanager
        def counted(record=None):
            with original(record) as rec:
                yield rec
            lengths.append(len(rec))

        pipeline.recording = counted
        self._patched.append((pipeline, "recording", original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def named(self, name: str, phase: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (phase is None or s.phase == phase)]

    def self_times(self, scale: dict[str, float] | None = None) -> list[float]:
        """Self time of every span, indexed like `spans`, each divided by its
        phase's entry in `scale` when one is given."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        if scale:
            own = [t / scale.get(s.phase, 1.0) for t, s in zip(own, self.spans)]
        return own

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "phase": s.phase,
                                     "thread": s.thread}) + "\n")


def step_timer() -> Tracer:
    """The one boundary an untraced run needs: each train step's time and report."""
    tracer = Tracer()
    tracer.wrap(pipeline, "train_step", "pipeline.train_step", keep=True)
    return tracer


def full_tracer(speed) -> Tracer:
    """Spans at every layer boundary the per-layer metrics read.

    The speed probe gets a span too, so that its time, spent between train
    steps, is not counted as `fit`'s own."""
    tracer = step_timer()
    tracer.count_tape()
    tracer.wrap(speed, "probe", "bench.speed_probe")
    for owner, attr, name in [
        (pipeline, "fit", "pipeline.fit"),
        (pipeline, "evaluate", "pipeline.evaluate"),
        (pipeline, "forward", "pipeline.forward"),
        (pipeline, "route", "gating.route"),
        (gating, "embed_forecasters", "gating.embed_forecasters"),
        (gating, "attention_mix", "gating.attention_mix"),
        (pipeline, "forecast_batch", "backbones.forecast_batch"),
        (pipeline, "mse_loss", "objectives.mse_loss"),
        (pipeline, "similarity_constraint", "objectives.similarity_constraint"),
        (pipeline, "select_top_k", "lwa.select_top_k"),
        (pipeline, "approximate", "lwa.approximate"),
        (numcore, "pinv", "numcore.pinv"),  # reached from lwa.approximate as nc.pinv
        (pipeline, "signature_error", "lwa.signature_error"),
        (lwa.EmaRegistry, "update", "lwa.registry_update"),
        (pipeline, "backward", "numcore.backward"),
        (pipeline, "adam_step", "numcore.adam_step"),
        (datakit, "synth_generate", "datakit.synth_generate"),
        (datakit, "load_csv", "datakit.load_csv"),
        (datakit, "split_standardize", "datakit.split_standardize"),
        (datakit, "make_windows", "datakit.make_windows"),
        (checkpoint, "save_model", "checkpoint.save_model"),
        (checkpoint, "load_model", "checkpoint.load_model"),
        (cli, "main", "cli.main"),
        (cli, "load_csv", "datakit.load_csv"),
        (cli, "split_standardize", "datakit.split_standardize"),
        (cli, "make_windows", "datakit.make_windows"),
        (cli, "load_model", "checkpoint.load_model"),
        (cli, "evaluate", "pipeline.evaluate"),
    ]:
        tracer.wrap(owner, attr, name)
    return tracer


# Per-layer timings of the work inside a train step: metric -> span name.
IN_STEP = {
    "numcore.adam_step_ms": "numcore.adam_step",
    "numcore.backward_ms": "numcore.backward",
    "numcore.pinv_ms": "numcore.pinv",
    "gating.route_ms": "gating.route",
    "gating.attention_mix_ms": "gating.attention_mix",
    "gating.embed_forecasters_ms": "gating.embed_forecasters",
    "backbones.forecast_batch_ms": "backbones.forecast_batch",
    "lwa.select_top_k_ms": "lwa.select_top_k",
    "lwa.approximate_ms": "lwa.approximate",
    "lwa.signature_error_ms": "lwa.signature_error",
    "lwa.registry_update_ms": "lwa.registry_update",
    "objectives.mse_loss_ms": "objectives.mse_loss",
    "objectives.similarity_constraint_ms": "objectives.similarity_constraint",
    "pipeline.forward_self_ms": "pipeline.forward",
    "pipeline.step_self_ms": "pipeline.train_step",
}

# Whole-call durations of the set-up and serving layers: metric -> (span, phase, unit).
PER_CALL = {
    "datakit.synth_generate_s": ("datakit.synth_generate", "setup", 1.0),
    "datakit.load_csv_s": ("datakit.load_csv", "setup", 1.0),
    "datakit.split_standardize_s": ("datakit.split_standardize", "setup", 1.0),
    "datakit.make_windows_s": ("datakit.make_windows", "setup", 1.0),
    "checkpoint.save_ms": ("checkpoint.save_model", None, 1e3),
    "checkpoint.load_ms": ("checkpoint.load_model", None, 1e3),
    "pipeline.evaluate_s": ("pipeline.evaluate", "serve", 1.0),
    "cli.eval_s": ("cli.main", None, 1.0),
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def step_subtrees(tracer: Tracer) -> list[list[int]]:
    """For each train step span, the indices of the spans it encloses, itself first."""
    kids = tracer.children()
    trees = []
    for i, s in enumerate(tracer.spans):
        if s.name != "pipeline.train_step":
            continue
        tree, todo = [], [i]
        while todo:
            j = todo.pop()
            tree.append(j)
            todo.extend(kids[j])
        trees.append(tree)
    return trees


def layer_metrics(tracer: Tracer, gauges: dict[str, float], speed) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Work inside train steps is reported as self time per step. Where a run
    has no train steps (serve-large), the same layers are reported as self
    time per call of the layer during the serving loop. Every time is
    divided by the speed factor of the phase it ran in (see speed.py),
    except the traced step, which is scaled like the untraced one."""
    scale = speed.factors()
    own = tracer.self_times(scale)

    def took(s: Span) -> float:
        return s.duration / scale.get(s.phase, 1.0)

    trees = step_subtrees(tracer)
    out: dict[str, float] = {}
    if trees:
        n = len(trees)
        by_name: dict[str, float] = {}
        calls: dict[str, int] = {}
        for tree in trees:
            for j in tree:
                name = tracer.spans[j].name
                by_name[name] = by_name.get(name, 0.0) + own[j]
                calls[name] = calls.get(name, 0) + 1
        for metric, name in IN_STEP.items():
            out[metric] = by_name.get(name, 0.0) / n * 1e3
        out["gating.embed_forecasters_calls"] = (
            calls.get("gating.embed_forecasters", 0) / max(1, calls.get("pipeline.forward", 0)))
        out["pipeline.traced_step_ms"] = median(
            speed.scaled(tracer.spans[tree[0]].start, tracer.spans[tree[0]].end)
            for tree in trees) * 1e3
    else:
        for metric, name in IN_STEP.items():
            idx = [i for i, s in enumerate(tracer.spans) if s.name == name and s.phase == "serve"]
            out[metric] = _mean(own[i] for i in idx) * 1e3
        forwards = len(tracer.named("pipeline.forward", "serve"))
        out["gating.embed_forecasters_calls"] = (
            len(tracer.named("gating.embed_forecasters", "serve")) / max(1, forwards))
        out["pipeline.traced_step_ms"] = 0.0
    out["numcore.tape_entries"] = _mean(tracer.tape_lengths)
    fits = [i for i, s in enumerate(tracer.spans) if s.name == "pipeline.fit"]
    kids = tracer.children()
    out["pipeline.validate_s"] = _mean(
        sum(took(tracer.spans[k]) for k in kids[i]
            if tracer.spans[k].name == "pipeline.evaluate") for i in fits)
    out["pipeline.epoch_overhead_s"] = _mean(own[i] for i in fits)
    for metric, (name, phase, unit) in PER_CALL.items():
        out[metric] = _mean(took(s) for s in tracer.named(name, phase)) * unit
    out.update(gauges)
    return out


def step_coverage(tracer: Tracer, speed) -> tuple[float, set[str]]:
    """The mean traced step time in ms on the speed scale, as the in-step
    metrics are, and the names of spans under a step that no metric counts."""
    trees = step_subtrees(tracer)
    scale = speed.factors()
    step_ms = _mean(tracer.spans[tree[0]].duration / scale.get(tracer.spans[tree[0]].phase, 1.0)
                    for tree in trees) * 1e3
    names = {tracer.spans[j].name for tree in trees for j in tree}
    return step_ms, names - set(IN_STEP.values())
