"""Span probes wrapped around the public calls of each ``repro`` layer.

The benchmark measures the library from outside: while a :class:`Tracer`
is installed, the layer entry points listed in :data:`TARGETS` are replaced
by thin wrappers that record one span per call (name, start, end, parent)
into an in-memory list, and the originals are put back on exit. Nothing in
``repro`` is edited and the ``repro.telemetry`` hub is not used, so a change
to the library's own instrumentation cannot shift these numbers.

Spans nest on one stack (the load runs on one thread), so a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from repro.core import em_kernel
from repro.guidance.hybrid import HybridStrategy
from repro.guidance.information_gain import InformationGainStrategy
from repro.guidance.max_entropy import MaxEntropyStrategy
from repro.guidance.worker_driven import WorkerDrivenStrategy
from repro.process.validation_process import ValidationProcess
from repro.simulation import stream
from repro.state.filestore import FileSessionStore
from repro.streaming.session import ValidationSession
from repro.workers.spammer_detection import SpammerDetector


def _em_attrs(result) -> tuple:
    return (int(result.n_iterations), bool(result.converged))


def _select_attrs(selection) -> tuple:
    return (int(selection.candidate_indices.size), selection.strategy)


#: (owner, attribute, span name, result annotator) for every wrapped call.
TARGETS = (
    (em_kernel, "run_em", "em.run", _em_attrs),
    (HybridStrategy, "select", "guidance.select", _select_attrs),
    (InformationGainStrategy, "select", "guidance.select", _select_attrs),
    (WorkerDrivenStrategy, "select", "guidance.select", _select_attrs),
    (MaxEntropyStrategy, "select", "guidance.select", _select_attrs),
    (ValidationSession, "from_answer_set", "session.load", None),
    (ValidationSession, "conclude", "session.conclude", None),
    (ValidationSession, "add_answer", "session.ingest", None),
    (ValidationSession, "add_validation", "session.ingest", None),
    (ValidationSession, "grow", "session.ingest", None),
    (SpammerDetector, "detect", "workers.detect", None),
    (FileSessionStore, "__init__", "store.open", None),
    (FileSessionStore, "append", "store.append", None),
    (FileSessionStore, "checkpoint", "store.checkpoint", None),
    (ValidationProcess, "__init__", "process.init", None),
    (ValidationProcess, "step", "process.step", None),
    (stream, "replay", "streaming.replay", None),
)

#: Span name -> layer whose self time it counts toward. ``em.run`` is split
#: into ``em.lookahead`` (inside a guidance select) and ``em.refresh``.
LAYER_OF = {
    "guidance.select": "guidance",
    "session.load": "session",
    "session.conclude": "session",
    "session.ingest": "session",
    "workers.detect": "detect",
    "store.open": "store",
    "store.append": "store",
    "store.checkpoint": "store",
    "process.init": "process",
    "process.step": "process",
    "streaming.replay": "replay",
}

#: Layers whose self times partition a traced run's wall time.
LAYERS = ("guidance", "em.lookahead", "em.refresh", "session", "detect",
          "store", "process", "replay", "bench")


class Tracer:
    """In-memory span recorder; use as ``with Tracer() as tracer:``.

    Each span is ``[name, start, end, parent index, annotation]``; spans
    are appended when they open, so a parent always precedes its children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, fn, name: str, annotate):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if annotate is not None:
                record[4] = annotate(result)
            return result
        return wrapper

    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        return _BlockSpan(self, name)

    # -- installation --------------------------------------------------
    def __enter__(self) -> "Tracer":
        for owner, attr, name, annotate in TARGETS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name,
                                                 annotate))
            else:
                wrapped = self._wrap(raw, name, annotate)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


class _BlockSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.record = [self.name, 0.0, 0.0,
                       tracer._stack[-1] if tracer._stack else -1, None]
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()


def summarise(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one traced run.

    Returns raw totals (seconds and counts); :func:`layer_metrics` turns
    them into the benchmark's per-layer metrics.
    """
    n = len(spans)
    child = [0.0] * n
    in_select = [False] * n
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_select[index] = (in_select[parent]
                                or spans[parent][0] == "guidance.select")
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        duration = end - start
        own = duration - child[index]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "em.run":
            layer = "em.lookahead" if in_select[index] else "em.refresh"
            iterations, converged = attrs
            totals[f"{layer}.solves"] += 1
            totals[f"{layer}.iterations"] += iterations
            totals[f"{layer}.capped"] += not converged
            totals[f"{layer}.busy"] += duration
        elif name.startswith("bench."):
            layer = "bench"
            if parent < 0:
                totals["wall"] += duration
        else:
            layer = LAYER_OF[name]
        totals[f"{layer}.self"] += own
        if name == "guidance.select" and parent_name != name:
            totals["guidance.selects"] += 1
            totals["guidance.select"] += duration
            totals["guidance.candidates"] += attrs[0]
            totals["guidance.worker"] += attrs[1] == "worker"
        elif name == "session.conclude":
            totals["session.concludes"] += 1
            totals["session.conclude"] += duration
        elif name == "session.ingest" and parent_name != name:
            totals["session.ingest"] += duration
        elif name == "workers.detect":
            totals["detect.calls"] += 1
            totals["detect.busy"] += duration
        elif name == "store.append":
            totals["store.appends"] += 1
            totals["store.append"] += duration
        elif name == "store.checkpoint":
            totals["store.checkpoints"] += 1
            totals["store.checkpoint"] += duration
    return dict(totals)


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(totals: dict[str, float], streamed_answers: int,
                  ) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (value, unit) from :func:`summarise` totals.

    Times are reported as shares of the traced wall time: a layer a
    workload never calls then reads 0 as a ratio rather than as a constant
    time, and ``trace.wall_s`` gives the scale.
    """
    t = defaultdict(float, totals)
    wall = t["wall"]
    out: dict[str, tuple[float, str]] = {
        "guidance.selects": (t["guidance.selects"], "count"),
        "guidance.select_share": (_share(t["guidance.select"], wall),
                                  "ratio"),
        "guidance.candidates_scored": (t["guidance.candidates"], "count"),
        "guidance.worker_share": (_share(t["guidance.worker"],
                                         t["guidance.selects"]), "ratio"),
    }
    for layer in ("em.lookahead", "em.refresh"):
        out[f"{layer}.solves"] = (t[f"{layer}.solves"], "count")
        out[f"{layer}.iterations"] = (t[f"{layer}.iterations"], "count")
        out[f"{layer}.capped_share"] = (
            _share(t[f"{layer}.capped"], t[f"{layer}.solves"]), "ratio")
        out[f"{layer}.busy_share"] = (_share(t[f"{layer}.busy"], wall),
                                      "ratio")
    out.update({
        "session.concludes": (t["session.concludes"], "count"),
        "session.conclude_share": (_share(t["session.conclude"], wall),
                                   "ratio"),
        "session.ingest_share": (_share(t["session.ingest"], wall), "ratio"),
        "session.answers_per_s": (_share(streamed_answers,
                                         t["session.ingest"]), "1/s"),
        "detect.calls": (t["detect.calls"], "count"),
        "detect.busy_share": (_share(t["detect.busy"], wall), "ratio"),
        "store.appends": (t["store.appends"], "count"),
        "store.append_share": (_share(t["store.append"], wall), "ratio"),
        "store.checkpoints": (t["store.checkpoints"], "count"),
        "store.checkpoint_share": (_share(t["store.checkpoint"], wall),
                                   "ratio"),
    })
    # An EM solve has no probed children, so its self time is its busy
    # time, reported above.
    for layer in LAYERS:
        if not layer.startswith("em."):
            out[f"{layer}.self_share"] = (_share(t[f"{layer}.self"], wall),
                                          "ratio")
    out["trace.coverage"] = (1.0 - out["bench.self_share"][0], "ratio")
    out["trace.wall_s"] = (wall, "s")
    return out
