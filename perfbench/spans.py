"""In-memory spans around the benchmark's calls into each layer.

The benchmark opens one span per public call it makes (``run_program``,
``compile_source``, ``CompileOutput.run``, ``run_benchmark``), inside a
span per job (one unit of work) inside a span per pass.  Phase seconds
read from the call's ``TraceContext.phase_times`` ride on the span as
its ``phases`` field; they are the layers below the call.  Spans stay in
memory until the run ends, then go out as Chrome ``trace_event`` JSON.

Untraced passes use :data:`NULL_RECORDER`, which records nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator, Optional

#: the module each span name stands for; ``pass`` and ``job`` are the
#: benchmark's own loop, whose self time is the unattributed remainder
SPAN_LAYER = {
    "pass": "unattributed",
    "job": "unattributed",
    "run_program": "ir.interp",
    "compile_source": "pipeline",
    "CompileOutput.run": "machine",
    "run_benchmark": "workloads.runner",
}

#: the module behind each ``TraceContext`` phase
PHASE_LAYER = {
    "frontend": "minic",
    "profile": "speculation.profile",
    "scalarrepl": "pre",
    "pre": "pre",
    "pressure": "analysis",
    "cleanup": "opt",
    "verify": "ir.verify",
    "codegen": "target",
    "speclint": "speclint",
    "simulate": "machine",
}

LAYERS = (
    "ir.interp", "speculation.profile", "minic", "pre", "analysis", "opt",
    "ir.verify", "target", "speclint", "pipeline", "machine",
    "workloads.runner", "unattributed",
)


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    name: str
    job: Optional[str]
    start: float
    end: float = 0.0
    fields: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans; ``start``/``end`` are seconds since the
    recorder was created."""

    enabled = True
    #: recorders that probe the host (``perfbench.host.HostSpeed``)
    #: report their probing time and the segment now running
    probe_s = 0.0
    segment = 0

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, job: Optional[str] = None) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        rec = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            name=name,
            job=job if job is not None else (parent.job if parent else None),
            start=time.perf_counter() - self._origin,
        )
        self._stack.append(rec)
        try:
            yield rec.fields
        finally:
            rec.end = time.perf_counter() - self._origin
            self._stack.pop()
            self.spans.append(rec)


class _NullRecorder:
    enabled = False
    probe_s = 0.0
    segment = 0

    def span(self, name: str, job: Optional[str] = None):
        return nullcontext({})


NULL_RECORDER = _NullRecorder()


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer.

    A span's self time is its duration minus its child spans and minus
    the phases it carries; each phase's seconds go to that phase's layer.
    Over the spans of one pass the layers add up to the pass's wall
    time, with the benchmark's own loop as ``unattributed``.
    """
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            child_s[s.parent_id] += s.duration
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        phases = s.fields.get("phases", {})
        out[SPAN_LAYER[s.name]] += (
            s.duration - child_s[s.span_id] - sum(phases.values())
        )
        for phase, secs in phases.items():
            out[PHASE_LAYER[phase]] += secs
    return out


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome ``trace_event`` JSON (loadable in Perfetto): one complete
    event per span, with its layer, job, parent and fields as args."""
    events = []
    for s in sorted(spans, key=lambda s: s.start):
        events.append({
            "name": s.name if s.job is None else f"{s.name} {s.job}",
            "cat": SPAN_LAYER[s.name],
            "ph": "X",
            "ts": round(s.start * 1e6, 3),
            "dur": round(s.duration * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {"id": s.span_id, "parent": s.parent_id, "job": s.job,
                     **s.fields},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: list[Span], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans), fh)
