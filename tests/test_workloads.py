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
