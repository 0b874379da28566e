"""Tests for the benchmark's own code (run with
``python -m pytest perfbench/tests``)."""

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import report, workloads
from perfbench.spans import NULL_RECORDER, Span, SpanRecorder, layer_self_times
from perfbench.stats import (
    TooFewSamples,
    check_metric_name,
    percentile,
    samples_needed,
)
from repro.errors import SpecLintError
from repro.machine.alat import ALATConfig
from repro.machine.cpu import MachineConfig
from repro.workloads.programs import BENCHMARKS
from repro.workloads.runner import run_benchmark

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def small_unit():
    return workloads.make_units("generated-compile", 0)[0]


# -- seeded inputs ---------------------------------------------------------


@pytest.mark.parametrize("workload", ["paper-matrix", "generated-compile"])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = workloads.make_units(workload, 7)
    assert a == workloads.make_units(workload, 7)
    assert a != workloads.make_units(workload, 8)


def test_paper_matrix_seed_zero_keeps_committed_inputs():
    units = workloads.make_units("paper-matrix", 0)
    assert [u.ref_args for u in units] == [w.ref_args for w in BENCHMARKS.values()]


def test_paper_matrix_draws_within_ten_percent():
    for seed in range(1, 20):
        for unit in workloads.make_units("paper-matrix", seed):
            (committed,) = BENCHMARKS[unit.job].ref_args
            assert abs(unit.ref_args[0] - committed) <= 0.1 * committed + 0.5


def test_alat_sweep_ignores_the_seed():
    assert (workloads.make_units("alat-sweep", 1)
            == workloads.make_units("alat-sweep", 2))


def test_unit_machine_is_fresh_per_call():
    unit = workloads.make_units("alat-sweep", 0)[0]
    assert unit.machine() is not unit.machine()
    assert unit.machine() == unit.machine()


# -- percentile rule -------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert samples_needed(50) == 20
    assert samples_needed(90) == 100
    assert samples_needed(99) == 1000
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    samples = list(range(1, 101))
    p90 = percentile(samples, 90)
    assert p90 == pytest.approx(90.9)
    assert sum(s > p90 for s in samples) == 10
    assert percentile(list(range(1, 21)), 50) == 10.5
    # where the top tenth is a cluster, p90 leans on its lowest member
    clustered = [1.0] * 90 + [5.0] * 10
    assert percentile(clustered, 90) == pytest.approx(4.6)


# -- metric names and BENCHMARK.json ---------------------------------------


def test_metric_name_grammar():
    for good in ("wall_s", "compile_ms.p90", "self.ir.interp.s", "9-a_b.c"):
        assert check_metric_name(good) == good
    for bad in ("", "wall s", "a/b", ".leading", "x" * 65, "ms%"):
        with pytest.raises(ValueError):
            check_metric_name(bad)


def test_benchmark_json_follows_the_contract():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["better"] in ("higher", "lower")


# -- failure taxonomy ------------------------------------------------------


def test_planted_failing_compile_counts_in_fail_ratio(monkeypatch):
    real = workloads.compile_source

    def planted(source, options, **kw):
        if options.spec_mode.name == "PROFILE":
            raise RuntimeError("planted compiler crash")
        return real(source, options, **kw)

    monkeypatch.setattr(workloads, "compile_source", planted)
    result = workloads.run_pass([small_unit()], NULL_RECORDER)
    attempted, failed, kinds = report.fail_summary([result])
    assert (attempted, failed) == (3, 1)
    assert kinds["error"] == 1
    assert set(result.records) == {(small_unit().job, "baseline"),
                                   (small_unit().job, "static")}


def test_lint_reject_is_a_failure_not_hidden(monkeypatch):
    def reject(source, options, **kw):
        raise SpecLintError("planted SPEC002")

    monkeypatch.setattr(workloads, "compile_source", reject)
    result = workloads.run_pass([small_unit()], NULL_RECORDER)
    assert report.fail_summary([result])[1:] == (
        3, {"mismatch": 0, "lint_reject": 3, "timeout": 0, "error": 0})


def test_output_differing_from_oracle_is_a_mismatch(monkeypatch):
    real = workloads.run_program

    def wrong_oracle(source, args, **kw):
        ref = real(source, args, **kw)
        ref.output = ref.output + ["extra"]
        return ref

    monkeypatch.setattr(workloads, "run_program", wrong_oracle)
    result = workloads.run_pass([small_unit()], NULL_RECORDER)
    assert report.fail_summary([result])[2]["mismatch"] == 3


# -- determinism guard and sweep self-check --------------------------------


def test_determinism_guard_flags_a_changed_counter():
    a = workloads.run_pass([small_unit()], NULL_RECORDER)
    b = workloads.run_pass([small_unit()], NULL_RECORDER)
    assert report.determinism_problems([a, b]) == []
    key = next(iter(b.records))
    b.records[key] = dict(b.records[key], cpu_cycles=-1)
    assert report.determinism_problems([a, b])


def test_sweep_flags_rising_evictions():
    records = {("ammp@2", "speculative"): {"alat.capacity_evictions": 5},
               ("ammp@4", "speculative"): {"alat.capacity_evictions": 9}}
    assert workloads.sweep_violations(records)
    records[("ammp@4", "speculative")]["alat.capacity_evictions"] = 5
    assert workloads.sweep_violations(records) == []


def test_sweep_counters_match_a_direct_runner_call():
    unit = next(u for u in workloads.make_units("alat-sweep", 0)
                if u.job == "gzip@4")
    via_runner = workloads.run_pass([unit], NULL_RECORDER)
    direct = run_benchmark(
        "gzip",
        machine_config=MachineConfig(alat=ALATConfig(entries=4, associativity=2)),
        use_cache=False,
    )
    for mode in (direct.baseline, direct.speculative):
        rec = via_runner.records[("gzip@4", mode.label)]
        assert rec["cpu_cycles"] == mode.counters.cpu_cycles
        for key, value in dataclasses.asdict(mode.machine.alat_stats).items():
            assert rec[f"alat.{key}"] == value
    # the profiled pass runs the same configuration without the runner
    from repro.obs.telemetry import HostProfiler

    profiled = workloads.run_pass([unit], NULL_RECORDER,
                                  host_profiler=HostProfiler())
    assert report.determinism_problems([via_runner, profiled]) == []


# -- spans -----------------------------------------------------------------


def test_self_times_subtract_children_and_phases():
    spans = [
        Span(1, None, "pass", None, 0.0, 10.0),
        Span(2, 1, "job", "a", 1.0, 9.0),
        Span(3, 2, "compile_source", "a", 1.0, 4.0,
             {"phases": {"frontend": 1.0, "pre": 0.5}}),
        Span(4, 2, "CompileOutput.run", "a", 4.0, 8.0),
        Span(5, 1, "run_benchmark", "b", 9.0, 10.0,
             {"phases": {"frontend": 0.25, "simulate": 0.5}}),
    ]
    self_s = layer_self_times(spans)
    assert self_s["minic"] == 1.25 and self_s["pre"] == 0.5
    assert self_s["pipeline"] == pytest.approx(1.5)
    assert self_s["machine"] == pytest.approx(4.5)
    assert self_s["workloads.runner"] == pytest.approx(0.25)
    assert self_s["unattributed"] == pytest.approx(2.0)
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_traced_pass_layers_account_for_wall():
    from repro.obs.telemetry import HostProfiler

    recorder = SpanRecorder()
    result = workloads.run_pass([small_unit()], recorder)
    self_s = layer_self_times(recorder.spans)
    assert all(v >= 0 for v in self_s.values())
    assert {s.job for s in recorder.spans if s.name != "pass"} == {small_unit().job}
    metrics = report.per_layer(result, recorder.spans, result.wall_s,
                               HostProfiler(), 0.05)
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    layer_sum = metrics["ref.s"] + metrics["simulate.s"] + sum(
        metrics[f"{p}.s"] for p in report.COMPILE_PHASES) + sum(
        metrics[k] for k in ("pipeline.self_s", "runner.self_s", "unattributed.s"))
    assert layer_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-3)


# -- host speed ------------------------------------------------------------


def test_host_speed_scales_segments_by_their_bounding_probes():
    from perfbench.host import PROBE_REF_S, HostSpeed

    speed = HostSpeed()
    speed.span("a")
    speed.span("b")
    assert len(speed.samples) == 1 and speed.segment == 0
    result = workloads.run_pass(
        workloads.make_units("generated-compile", 0)[:5], speed)
    assert len(speed.samples) >= 2
    assert all(seg < len(speed.samples) for _, seg in result.compile_ms)
    scaled = speed.close()
    assert len(speed.segments) == len(speed.samples) - 1
    assert speed.scale_of(0) == pytest.approx(
        2 * PROBE_REF_S / (speed.samples[0] + speed.samples[1]))
    factors = [PROBE_REF_S / p for p in speed.samples]
    assert (0.9 * min(factors) * result.wall_s
            <= scaled <= 1.1 * max(factors) * result.wall_s)
