"""Host-side telemetry: spans, the hot-loop profiler, exporters.

Covers the contracts DESIGN.md §13 pins down:

* span nesting/reentrancy/parent linkage and `phase_times` exclusion;
* tracemalloc `mem_kb` peak deltas under `track_memory`;
* HostProfiler bucket accounting (chained timestamps, sub/defer);
* simulated counters byte-identical with the profiler on or off;
* profiler coverage of the measured simulate wall time;
* Chrome trace_event and collapsed-stack exporter structure.
"""

from __future__ import annotations

import gc
import json
import time
import weakref

import pytest

from repro.errors import InterpLimitExceeded
from repro.ir.interp import Interpreter
from repro.minic import compile_to_ir
from repro.obs import (
    NULL_TRACE,
    HostProfiler,
    TraceContext,
    chrome_trace,
    collapsed_stacks,
)
from repro.obs.sinks import MemorySink
from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source
from repro.workloads.programs import BENCHMARKS

ALIASING = """
int main(int n) {
    int a = 1;
    int b = 2;
    int *p = &a;
    int s = 0;
    int i = 0;
    while (i < n) {
        *p = i;
        s = s + a + b;
        i = i + 1;
    }
    return s;
}
"""


def spec_options() -> CompilerOptions:
    return CompilerOptions(
        opt_level=OptLevel.O3, spec_mode=SpecMode.HEURISTIC, fallback=False
    )


# -- spans ---------------------------------------------------------------


def test_span_nesting_and_parent_ids():
    obs = TraceContext()
    with obs.span("outer"):
        with obs.span("inner"):
            pass
        with obs.span("inner"):
            pass
    assert [s.name for s in obs.spans] == ["inner", "inner", "outer"]
    outer = obs.spans[-1]
    assert outer.parent_id is None
    for inner in obs.spans[:2]:
        assert inner.parent_id == outer.span_id
    ids = [s.span_id for s in obs.spans]
    assert len(set(ids)) == 3
    # children's wall time is attributed to the parent
    assert outer.child_wall_ms == pytest.approx(
        sum(s.wall_ms for s in obs.spans[:2])
    )
    assert outer.self_ms <= outer.wall_ms


def test_reentrant_phase_counts_once_in_phase_times():
    obs = TraceContext()
    with obs.phase("work"):
        with obs.phase("work"):
            pass
    # two span records, but the bucket holds only the outer instance
    work_spans = [s for s in obs.spans if s.name == "work"]
    assert len(work_spans) == 2
    outer = max(work_spans, key=lambda s: s.wall_ms)
    assert obs.phase_times["work"] == pytest.approx(
        outer.wall_ms / 1e3, rel=0.01
    )


def test_span_events_emitted_with_linkage():
    sink = MemorySink()
    obs = TraceContext(sink)
    with obs.span("outer"):
        with obs.span("inner"):
            pass
    names = [e["event"] for e in sink.events]
    assert names == ["span.begin", "span.begin", "span.end", "span.end"]
    begin_outer, begin_inner, end_inner, end_outer = sink.events
    assert begin_outer["span"] == "outer"
    assert begin_inner["parent_id"] == begin_outer["span_id"]
    assert end_inner["wall_ms"] >= 0
    assert end_outer["span_id"] == begin_outer["span_id"]


def test_span_error_path_still_brackets():
    sink = MemorySink()
    obs = TraceContext(sink)
    with pytest.raises(ValueError):
        with obs.span("doomed"):
            raise ValueError("boom")
    end = sink.events[-1]
    assert end["event"] == "span.end"
    assert end["error"] == "ValueError: boom"
    assert len(obs.spans) == 1  # still recorded


def test_null_trace_records_no_spans():
    before = len(NULL_TRACE.spans)
    with NULL_TRACE.span("anything"):
        pass
    assert len(NULL_TRACE.spans) == before == 0


def test_track_memory_stamps_mem_kb():
    obs = TraceContext(track_memory=True)
    try:
        with obs.phase("alloc"):
            blob = [bytearray(64 * 1024) for _ in range(8)]  # ~512 KiB
            del blob
        with obs.phase("quiet"):
            pass
    finally:
        obs.close()
    by_name = {s.name: s for s in obs.spans}
    assert by_name["alloc"].mem_kb is not None
    assert by_name["alloc"].mem_kb >= 256  # peak includes the blob
    assert by_name["quiet"].mem_kb is not None
    assert by_name["quiet"].mem_kb < 64
    assert obs.phase_mem_kb["alloc"] == by_name["alloc"].mem_kb


def test_nested_child_peak_visible_in_parent():
    obs = TraceContext(track_memory=True)
    try:
        with obs.phase("parent"):
            with obs.phase("child"):
                blob = bytearray(1024 * 1024)
                del blob
    finally:
        obs.close()
    by_name = {s.name: s for s in obs.spans}
    assert by_name["child"].mem_kb >= 512
    # the child's spike happened inside the parent too
    assert by_name["parent"].mem_kb >= by_name["child"].mem_kb * 0.9


# -- host profiler -------------------------------------------------------


def test_host_profiler_bucket_accounting():
    hp = HostProfiler()
    hp.add("a", 1000, count=2)
    hp.add("a", 500)
    hp.add_sub("b", 200)
    assert hp.ns["a"] == 1500
    assert hp.counts["a"] == 3
    assert hp.take_sub() == 200
    assert hp.take_sub() == 0
    hp.defer(50)
    assert hp.take_sub() == 50
    assert hp.total_ns == 1700
    d = hp.as_dict()
    assert list(d["buckets"]) == ["a", "b"]  # sorted by time desc
    assert d["buckets"]["a"]["count"] == 3


def test_host_profiler_op_key_interned():
    hp = HostProfiler()

    class Ld:
        pass

    k1 = hp.op_key(Ld)
    k2 = hp.op_key(Ld)
    assert k1 is k2
    assert k1 == "sim.op.Ld"
    assert hp.op_key(Ld, "interp.op.") == "sim.op.Ld"  # first prefix wins


def test_host_profiler_merge_and_breakdown():
    a, b = HostProfiler(), HostProfiler()
    a.add("x", 1_000_000)
    b.add("x", 2_000_000)
    b.add("y", 500_000)
    a.merge(b)
    assert a.ns["x"] == 3_000_000
    text = a.format_breakdown(measured_wall_ms=7.0)
    assert "50.0%" in text  # 3.5ms attributed of 7ms
    assert "x" in text and "y" in text


def test_simulator_profile_covers_simulate_wall():
    obs = TraceContext()
    out = compile_source(ALIASING, spec_options(), obs=obs)
    hp = HostProfiler()
    out.run([300], host_profiler=hp)
    simulate_ms = obs.phase_times["simulate"] * 1e3
    # The acceptance bar is 95% on a warmed CI run; keep slack here so
    # a noisy shared runner doesn't flake the unit test.
    assert hp.total_ms >= 0.60 * simulate_ms
    assert hp.total_ms <= 1.05 * simulate_ms  # no double counting
    assert any(k.startswith("sim.op.") for k in hp.ns)
    assert "sim.issue" in hp.ns


def test_counters_identical_with_and_without_profiler():
    out1 = compile_source(ALIASING, spec_options())
    res1 = out1.run([200], host_profiler=HostProfiler())
    out2 = compile_source(ALIASING, spec_options())
    res2 = out2.run([200])
    assert res1.counters.as_dict() == res2.counters.as_dict()
    assert res1.exit_value == res2.exit_value


def test_interpreter_profile_buckets():
    hp = HostProfiler()
    out = compile_source(ALIASING, spec_options())
    res = out.interpret([50], host_profiler=hp)
    assert res.exit_value == out.run([50]).exit_value
    assert "interp.frame" in hp.ns
    assert any(k.startswith("interp.op.") for k in hp.ns)
    assert "interp.op.CondBranch" in hp.ns


def _mcf_train(**interp_kwargs):
    w = BENCHMARKS["mcf"]
    interp = Interpreter(compile_to_ir(w.source), **interp_kwargs)
    t0 = time.perf_counter_ns()
    result = interp.run(list(w.train_args))
    return result, time.perf_counter_ns() - t0


def test_interpreter_profile_covers_run_wall():
    hp = HostProfiler()
    _, wall_ns = _mcf_train(host_profiler=hp)
    covered = sum(
        ns for key, ns in hp.ns.items()
        if key.startswith("interp.op.") or key == "interp.frame"
    )
    assert covered == hp.total_ns  # the interpreter has no other buckets
    assert 0.95 * wall_ns <= covered <= wall_ns


def test_interpreter_results_identical_with_and_without_profiler():
    plain, _ = _mcf_train()
    profiled, _ = _mcf_train(host_profiler=HostProfiler())
    assert profiled.output == plain.output
    assert profiled.exit_value == plain.exit_value
    assert vars(profiled.stats) == vars(plain.stats)


@pytest.mark.parametrize("max_steps", [50_000_000, 1000])
def test_finished_interpreter_freed_by_refcount(max_steps):
    """Decoded code closes over the interpreter; ``run`` must drop it so
    a finished interpreter needs no cycle collection to be freed."""
    w = BENCHMARKS["mcf"]
    module = compile_to_ir(w.source)
    gc.disable()
    try:
        interp = Interpreter(module, host_profiler=HostProfiler(), max_steps=max_steps)
        try:
            interp.run(list(w.train_args))
        except InterpLimitExceeded:
            pass
        ref = weakref.ref(interp)
        del interp
        assert ref() is None
    finally:
        gc.enable()


# -- exporters -----------------------------------------------------------


def _traced_run():
    obs = TraceContext()
    out = compile_source(ALIASING, spec_options(), obs=obs)
    hp = HostProfiler()
    out.run([100], host_profiler=hp)
    return obs, hp


def test_chrome_trace_structure():
    obs, hp = _traced_run()
    doc = chrome_trace(obs, hp)
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    spans = [e for e in events if e.get("cat") == "span"]
    hosts = [e for e in events if e.get("cat") == "host"]
    metas = [e for e in events if e["ph"] == "M"]
    assert spans and hosts and metas
    for e in spans + hosts:
        assert e["ph"] == "X"
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert e["pid"] == 1
    assert {e["tid"] for e in spans} == {1}
    assert {e["tid"] for e in hosts} == {2}
    by_name = {e["name"]: e for e in spans}
    assert "simulate" in by_name and "frontend" in by_name
    # span args carry the linkage
    assert "span_id" in by_name["simulate"]["args"]
    # host slices are anchored at the simulate span's start
    assert hosts[0]["ts"] == pytest.approx(
        by_name["simulate"]["ts"], abs=1.0
    )
    json.dumps(doc)  # serialisable


def test_chrome_trace_without_host_profiler():
    obs, _hp = _traced_run()
    doc = chrome_trace(obs)
    assert all(e.get("cat") != "host" for e in doc["traceEvents"])


def test_collapsed_stacks_format_and_totals():
    obs, hp = _traced_run()
    lines = collapsed_stacks(obs, hp)
    assert lines
    for line in lines:
        stack, value = line.rsplit(" ", 1)
        assert int(value) > 0
        assert stack
    # nested PRE spans produce multi-frame stacks
    assert any(line.startswith("pre;pre.fn") for line in lines)
    # host buckets hang under the simulate anchor
    assert any(line.startswith("simulate;sim.") for line in lines)
    # values tile the span tree: total ≈ sum of root span walls
    total_us = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
    roots_us = sum(
        s.wall_ms * 1e3 for s in obs.spans if s.parent_id is None
    )
    assert total_us == pytest.approx(roots_us, rel=0.05)


def test_disabled_overhead_is_one_check_per_instruction():
    """The zero-overhead contract: no profiler, no span recording on
    NULL_TRACE — an unprofiled run must not allocate telemetry state."""
    out = compile_source(ALIASING, spec_options())
    sim_result = out.run([100])
    assert sim_result.exit_value is not None
    assert out.obs.spans  # the compilation's own context records spans
    assert not NULL_TRACE.spans
