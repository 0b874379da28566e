"""Benchmark workloads: differential correctness across the full mode
matrix (scaled-down inputs) and experiment-harness sanity."""

import pytest

from repro.workloads.programs import BENCHMARKS, FP_BENCHMARKS, get_workload
from repro.workloads.runner import BASELINE, SPECULATIVE, run_benchmark

from tests.conftest import assert_all_modes_agree


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_workload_all_modes_agree_small(name):
    """Every kernel, every compilation mode, interpreter + simulator —
    on a scaled-down input with the real train input as profile."""
    w = get_workload(name)
    small_args = [max(3, w.ref_args[0] // 20)]
    assert_all_modes_agree(w.source, small_args, train_args=list(w.train_args))


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_workload_misspeculation_safe(name):
    """Train on a tiny input so the profile is maximally wrong, then run
    a larger one: outputs must still match the oracle."""
    w = get_workload(name)
    args = [max(5, w.ref_args[0] // 10)]
    assert_all_modes_agree(w.source, args, train_args=[3])


def test_registry_complete():
    assert len(BENCHMARKS) == 10
    assert set(FP_BENCHMARKS) <= set(BENCHMARKS)
    assert list(BENCHMARKS)[:3] == ["gzip", "vpr", "mcf"]


def test_get_workload_unknown():
    with pytest.raises(KeyError):
        get_workload("specfp-psi")


def test_runner_validates_output():
    """The harness itself must differentially validate every run."""
    result = run_benchmark("vpr")
    assert result.baseline.machine.output == result.speculative.machine.output
    assert result.workload.name == "vpr"


def test_measure_runs_oracle_once_and_each_instance_once(monkeypatch):
    """The runner function every sweep measures through: one reference
    run per target, one compilation per instance, and a diverging
    instance named in the mismatch error."""
    import repro.workloads.runner as runner
    from repro.workloads.programs import Workload

    workload = Workload(
        name="count-up",
        source="int main(int n) { int i = 0; int s = 0; "
        "while (i < n) { s = s + i; i = i + 1; } print(s); return 0; }",
        train_args=(4,),
        ref_args=(9,),
        is_float=False,
        description="not in BENCHMARKS",
    )
    assert workload.name not in BENCHMARKS
    calls = {"oracle": 0, "compile": []}
    real_run_program, real_compile = runner.run_program, runner.compile_source

    def counting_oracle(*args, **kwargs):
        calls["oracle"] += 1
        return real_run_program(*args, **kwargs)

    def counting_compile(source, options, **kwargs):
        calls["compile"].append(options)
        return real_compile(source, options, **kwargs)

    monkeypatch.setattr(runner, "run_program", counting_oracle)
    monkeypatch.setattr(runner, "compile_source", counting_compile)
    base, spec = BASELINE(), SPECULATIVE()
    modes = runner.measure(workload, {"base": base, "spec": spec})
    assert calls["oracle"] == 1
    assert calls["compile"] == [base, spec]
    assert list(modes) == ["base", "spec"]
    assert modes["spec"].options is spec
    assert modes["base"].machine.output == ["36"]

    def diverging_compile(source, options, **kwargs):
        output = real_compile(source, options, **kwargs)
        if options is spec:
            real_run = output.run

            def run(*args, **kw):
                result = real_run(*args, **kw)
                result.output = ["-1"]
                return result

            output.run = run
        return output

    monkeypatch.setattr(runner, "compile_source", diverging_compile)
    with pytest.raises(AssertionError, match="count-up/spec: output mismatch"):
        runner.measure(workload, {"base": base, "spec": spec})


def test_measure_rejects_options_that_fall_back():
    from repro.workloads.runner import measure

    options = SPECULATIVE()
    options.fallback = True
    with pytest.raises(ValueError, match="vpr/spec: .*fall back"):
        measure(get_workload("vpr"), {"spec": options})


def test_runner_cache():
    from repro.workloads.runner import _cache

    a = run_benchmark("vpr")
    b = run_benchmark("vpr")
    assert a is b  # memoized


def test_runner_cache_sees_mutated_machine_config():
    """The memo is keyed on the config's values, not its identity: the
    same object with a different ALAT must not get the first result."""
    from repro.machine.cpu import MachineConfig

    config = MachineConfig()
    config.alat.entries = 4
    small = run_benchmark("gzip", machine_config=config)
    config.alat.entries = 64
    large = run_benchmark("gzip", machine_config=config)
    assert large is not small
    assert small.speculative.machine.alat_stats.capacity_evictions > 0
    assert large.speculative.machine.alat_stats.capacity_evictions == 0


def test_runner_cache_keys_on_every_option_field():
    """``describe()`` omits ``rounds``; options differing only there
    must not share a memo entry."""
    one, two = SPECULATIVE(), SPECULATIVE()
    two.rounds = 2
    assert one.describe() == two.describe()
    a = run_benchmark("vpr", spec_options=one)
    b = run_benchmark("vpr", spec_options=two)
    assert a is not b
    assert b.speculative.options.rounds == 2
    assert run_benchmark("vpr", spec_options=SPECULATIVE()) is a


# -- the content memo behind measure: oracle and training profile -------

LOOP = ("int main(int n) { int i = 0; int s = 0; "
        "while (i < n) { s = s + i; i = i + 1; } print(s); return 0; }")


def _loop_workload(source=LOOP, train=(4,), ref=(9,)):
    from repro.workloads.programs import Workload

    return Workload(name="memo-loop", source=source, train_args=train,
                    ref_args=ref, is_float=False, description="memo test")


@pytest.fixture
def runner():
    """The runner module with an empty memo, emptied again afterwards."""
    import repro.workloads.runner as runner

    runner.clear_cache()
    yield runner
    runner.clear_cache()


@pytest.fixture
def interp_runs(monkeypatch):
    """Counts every interpreter run (oracle and training alike)."""
    from repro.ir.interp import Interpreter

    runs = []
    real_run = Interpreter.run

    def run(self, args=None):
        runs.append(list(args or []))
        return real_run(self, args)

    monkeypatch.setattr(Interpreter, "run", run)
    return runs


def _lookups(obs):
    return [(e["kind"], e["hit"]) for e in obs.sink.of_type("runner.memo")]


def test_memo_hit_returns_what_a_fresh_run_returns(runner):
    from repro.minic import compile_to_ir
    from repro.obs import MemorySink, TraceContext
    from repro.pipeline import compile_source, run_program
    from repro.speculation.profile import collect_alias_profile
    from tests.test_pipeline import _compiled_digests

    w = get_workload("ammp")
    obs = TraceContext(MemorySink())
    first = runner.reference_run(w, obs=obs)
    assert runner.reference_run(w, obs=obs) is first
    fresh = run_program(w.source, list(w.ref_args),
                        max_steps=runner.DEFAULT_INTERP_FUEL)
    assert (first.output, first.exit_value, vars(first.stats)) == (
        fresh.output, fresh.exit_value, vars(fresh.stats))

    trained = runner.compile_workload(w, SPECULATIVE(), obs=obs)
    reused = runner.compile_workload(w, SPECULATIVE(), obs=TraceContext())
    assert "profile" not in reused.obs.phase_times
    assert _lookups(obs) == [("oracle", False), ("oracle", True),
                             ("profile", False)]
    fresh_profile, _ = collect_alias_profile(
        compile_to_ir(w.source), list(w.train_args))
    module = compile_to_ir(w.source)
    assert vars(reused.profile.bind(module)) == vars(fresh_profile.bind(module))
    direct = compile_source(w.source, SPECULATIVE(), name=w.name,
                            train_args=list(w.train_args))
    assert _compiled_digests(reused) == _compiled_digests(trained) == (
        _compiled_digests(direct))


def test_memo_misses_on_a_different_source_args_or_fuel(runner, interp_runs):
    from repro.obs import MemorySink, TraceContext

    w = _loop_workload()
    obs = TraceContext(MemorySink())
    variants = [
        (w, runner.DEFAULT_INTERP_FUEL),
        (_loop_workload(source=LOOP.replace("s + i", "s + i + 1")),
         runner.DEFAULT_INTERP_FUEL),
        (_loop_workload(ref=(10,), train=(5,)), runner.DEFAULT_INTERP_FUEL),
        (w, runner.DEFAULT_INTERP_FUEL - 1),
    ]
    for workload, fuel in variants:
        runner.reference_run(workload, fuel, obs)
        runner.compile_workload(workload, SPECULATIVE(), fuel, obs)
    assert _lookups(obs) == [("oracle", False), ("profile", False)] * 4
    assert len(interp_runs) == 8
    for workload, fuel in variants:
        runner.reference_run(workload, fuel, obs)
        runner.compile_workload(workload, SPECULATIVE(), fuel, obs)
    assert _lookups(obs)[8:] == [("oracle", True), ("profile", True)] * 4
    assert len(interp_runs) == 8
    # a configuration that trains nothing looks nothing up
    runner.compile_workload(w, BASELINE(), obs=obs)
    assert len(_lookups(obs)) == 16


def test_memo_never_keeps_a_run_that_raised(runner, interp_runs):
    from repro.errors import InterpTimeout

    w = _loop_workload(ref=(1000,), train=(1000,))
    for _ in range(2):
        with pytest.raises(InterpTimeout):
            runner.reference_run(w, fuel=50)
        with pytest.raises(InterpTimeout):
            runner.compile_workload(w, SPECULATIVE(), fuel=50)
    assert len(interp_runs) == 4
    assert not runner._memo


def test_memo_bound_evicts_the_least_recently_used(runner, interp_runs):
    workloads = [_loop_workload(ref=(n,)) for n in range(runner.MEMO_SIZE + 3)]
    for w in workloads:
        runner.reference_run(w)
    assert len(runner._memo) == runner.MEMO_SIZE
    assert len(interp_runs) == runner.MEMO_SIZE + 3
    runner.reference_run(workloads[-1])  # newest: kept
    assert len(interp_runs) == runner.MEMO_SIZE + 3
    runner.reference_run(workloads[0])  # oldest: evicted, runs again
    assert len(interp_runs) == runner.MEMO_SIZE + 4
    assert len(runner._memo) == runner.MEMO_SIZE


def test_clear_cache_empties_the_memo(runner, interp_runs):
    w = _loop_workload()
    runner.measure(w, {"spec": SPECULATIVE()})
    assert runner._memo
    runner.clear_cache()
    assert not runner._memo
    runner.measure(w, {"spec": SPECULATIVE()})
    assert len(interp_runs) == 4


def test_measure_runs_each_distinct_input_once(runner, interp_runs, tmp_path):
    """Six ALAT sizes x {baseline, speculative}: one oracle and one
    training run, with every lookup in the instances' traces."""
    import json

    from repro.machine.alat import ALATConfig
    from repro.machine.cpu import MachineConfig

    w = get_workload("gzip")
    instances = {}
    for entries in (2, 4, 8, 16, 32, 64):
        for label, make in (("base", BASELINE), ("spec", SPECULATIVE)):
            options = make()
            options.machine = MachineConfig(alat=ALATConfig(entries, 2))
            instances[f"{label}{entries}"] = options
    modes = runner.measure(w, instances, trace_dir=str(tmp_path))
    assert len(modes) == 12
    assert len(interp_runs) == 2
    lookups = []
    for label in instances:
        with open(tmp_path / f"gzip.{label}.jsonl") as fh:
            events = [json.loads(line) for line in fh]
        lookups += [(e["kind"], e["hit"]) for e in events
                    if e["event"] == "runner.memo"]
    assert lookups.count(("oracle", False)) == 1
    assert lookups.count(("profile", False)) == 1
    assert lookups.count(("oracle", True)) == 0  # looked up once per measure
    assert lookups.count(("profile", True)) == 5


def test_public_entry_points_interpret_on_every_call(runner, interp_runs):
    """``run_program`` and ``compile_source(train_args=...)`` are not
    memoised: callers that time them see the same work on every call."""
    from repro.pipeline import compile_source, run_program

    w = _loop_workload()
    for _ in range(2):
        run_program(w.source, list(w.ref_args))
        compile_source(w.source, SPECULATIVE(), train_args=list(w.train_args))
    assert len(interp_runs) == 4
    assert not runner._memo


def test_baseline_and_speculative_options_differ():
    base, spec = BASELINE(), SPECULATIVE()
    assert base.spec_mode != spec.spec_mode
    assert base.opt_level == spec.opt_level


def test_reduction_properties():
    r = run_benchmark("vortex")
    assert r.cycle_reduction_pct == pytest.approx(
        100.0
        * (r.baseline.counters.cpu_cycles - r.speculative.counters.cpu_cycles)
        / r.baseline.counters.cpu_cycles
    )
    kinds = r.reduced_loads_by_kind
    assert kinds["direct"] + kinds["indirect"] == (
        r.baseline.counters.retired_loads
        - r.speculative.counters.retired_loads
    )


def test_report_tables_render():
    from repro.workloads.report import (
        figure8_table,
        figure9_table,
        figure10_table,
        figure11_table,
        summary_table,
    )

    results = {"vpr": run_benchmark("vpr"), "vortex": run_benchmark("vortex")}
    for renderer in (figure8_table, figure9_table, figure10_table, figure11_table):
        table = renderer(results)
        assert "vpr" in table and "vortex" in table
    assert "Figure 8" in summary_table(results)


# -- CLI exit-code contract ---------------------------------------------


def test_cli_exits_nonzero_on_any_workload_failure(monkeypatch, capsys):
    import repro.workloads.__main__ as cli
    from repro.workloads.runner import WorkloadFailure

    def failing_sweep(failures=None, **kwargs):
        failures.append(
            WorkloadFailure("gzip", "RuntimeError", "boom", kind="error")
        )
        return {}

    monkeypatch.setattr(cli, "run_all_benchmarks", failing_sweep)
    assert cli.main([]) == 1
    err = capsys.readouterr().err
    assert "FAILED gzip" in err
    assert "1 benchmark(s) failed" in err


def test_cli_exits_zero_on_clean_sweep(monkeypatch):
    import repro.workloads.__main__ as cli

    monkeypatch.setattr(
        cli, "run_all_benchmarks", lambda failures=None, **kwargs: {}
    )
    assert cli.main([]) == 0


def test_cli_fuel_exhaustion_surfaces_as_timeout_failure(capsys):
    import repro.workloads.__main__ as cli

    # A 200-step budget kills every benchmark almost immediately, so
    # the sweep stays fast while exercising the real fuel plumbing.
    assert cli.main(["--fuel", "200"]) == 1
    err = capsys.readouterr().err
    assert "[timeout]" in err
