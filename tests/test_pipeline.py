"""Pipeline driver and public API."""

import pytest

import repro
from repro import (
    CompilerOptions,
    OptLevel,
    SpecMode,
    compile_and_run,
    compile_source,
    run_program,
)
from repro.alias.manager import AliasAnalysisKind


SIMPLE = """
int g;
int main(int n) {
    g = n;
    print(g + 1);
    return g;
}
"""


def test_public_api_surface():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_compile_and_run_convenience():
    res = compile_and_run(SIMPLE, [4])
    assert res.output == ["5"]
    assert res.exit_value == 4


def test_run_program_oracle():
    res = run_program(SIMPLE, [4])
    assert res.output == ["5"]


def test_opt_levels_monotone_cycles():
    src = """
    int g;
    int main(int n) {
        g = 2;
        int s = 0;
        for (int i = 0; i < n; i += 1) { s += g * i; }
        return s % 100;
    }
    """
    cycles = {}
    for lvl in (OptLevel.O0, OptLevel.O1, OptLevel.O2):
        out = compile_source(src, CompilerOptions(opt_level=lvl))
        cycles[lvl] = out.run([50]).counters.cpu_cycles
    assert cycles[OptLevel.O0] >= cycles[OptLevel.O1] >= cycles[OptLevel.O2]


def test_profile_mode_requires_no_explicit_profile():
    out = compile_source(
        SIMPLE,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        train_args=[1],
    )
    assert out.profile is not None


QUICKSTART = """
int a;
int b;
int *p;
int main(int n) {
    if (n > 100) { p = &a; } else { p = &b; }
    a = 7;
    int s = 0;
    int i = 0;
    while (i < n) {
        s = s + a;
        *p = s;
        s = s + a;
        i = i + 1;
    }
    print(s);
    print(a);
    return 0;
}
"""


def _compiled_digests(out) -> tuple[str, str]:
    from repro.target.asmprinter import format_program
    from tests.test_compile_output import _digest, canonical_ir

    return _digest(format_program(out.program)), _digest(canonical_ir(out.module))


def test_profile_reuse():
    """A profile collected on one lowering of a source compiles exactly
    like the compilation's own training run: compile_source binds it to
    the module it lowers, position for position.  (The small program is
    the one that tells: its profile turns the store's check into the
    software scheme, an unbound profile would leave it on the ALAT.)"""
    from repro.minic import compile_to_ir
    from repro.speculation.profile import collect_alias_profile
    from repro.workloads import get_workload
    from repro.workloads.runner import SPECULATIVE

    programs = [(QUICKSTART, [150])] + [
        (w.source, list(w.train_args))
        for w in map(get_workload, ("gzip", "ammp"))
    ]
    for source, train in programs:
        profile, _ = collect_alias_profile(compile_to_ir(source), train)
        assert profile.store_targets  # the check below is not vacuous
        reused = compile_source(source, SPECULATIVE(), profile=profile)
        trained = compile_source(source, SPECULATIVE(), train_args=train)
        assert _compiled_digests(reused) == _compiled_digests(trained)
        assert "profile" not in reused.obs.phase_times


def test_profile_of_another_program_raises():
    from repro.minic import compile_to_ir
    from repro.speculation.profile import ProfileMismatch, collect_alias_profile

    profile, _ = collect_alias_profile(compile_to_ir(QUICKSTART), [150])
    with pytest.raises(ProfileMismatch):
        compile_source(
            SIMPLE,
            CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
            profile=profile,
        )


def test_merge_rekeys_a_profile_of_another_lowering():
    from repro.minic import compile_to_ir
    from repro.speculation.profile import collect_alias_profile

    module = compile_to_ir(QUICKSTART)
    merged, _ = collect_alias_profile(module, [150])
    other, _ = collect_alias_profile(compile_to_ir(QUICKSTART), [10])
    merged.merge(other)
    expected, _ = collect_alias_profile(module, [150])
    expected.merge(collect_alias_profile(module, [10])[0])
    assert vars(merged) == vars(expected)
    assert len(merged.store_targets[next(iter(merged.store_targets))]) == 2


def test_steensgaard_configuration():
    out = compile_source(
        SIMPLE,
        CompilerOptions(
            opt_level=OptLevel.O2, alias_analysis=AliasAnalysisKind.STEENSGAARD
        ),
    )
    assert out.alias_manager is not None
    assert out.alias_manager.kind is AliasAnalysisKind.STEENSGAARD
    assert out.run([3]).output == ["4"]


def test_describe():
    opts = CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE)
    text = opts.describe()
    assert "-O3" in text and "profile" in text


def test_machine_config_threading():
    from repro import MachineConfig

    config = MachineConfig(issue_width=1)
    narrow = compile_source(SIMPLE, CompilerOptions(machine=config))
    wide = compile_source(SIMPLE, CompilerOptions())
    n = narrow.run([3])
    w = wide.run([3])
    assert n.output == w.output
    assert n.counters.cpu_cycles > w.counters.cpu_cycles


def test_compile_output_stats_aggregation():
    src = """
    int a; int b; int *p;
    int main(int n) {
        if (n > 10) { p = &a; } else { p = &b; }
        a = 1;
        int s = 0;
        for (int i = 0; i < n; i += 1) { s += a; *p = s; s += a; }
        return s % 100;
    }
    """
    out = compile_source(
        src,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        train_args=[5],
    )
    assert out.total_reloads > 0
    kinds = out.reloads_by_kind()
    assert set(kinds) == {"direct", "indirect"}


def test_interpret_runs_optimised_ir():
    out = compile_source(SIMPLE, CompilerOptions(opt_level=OptLevel.O3))
    assert out.interpret([4]).output == ["5"]


# -- the frontend's parse memo ----------------------------------------------


def _objects(module):
    """Every variable and statement a module owns."""
    variables = list(module.globals)
    stmts = []
    for fn in module.iter_functions():
        variables += fn.all_variables()
        stmts += list(fn.iter_stmts())
    return variables, stmts


def test_parse_memo_shares_no_ir_between_compilations(monkeypatch):
    from repro.ir.printer import format_module
    from repro.minic import compile_to_ir
    from repro.pipeline import driver

    oracle_modules = []
    real_run_module = driver.run_module

    def capture(module, *args, **kwargs):
        oracle_modules.append(module)
        return real_run_module(module, *args, **kwargs)

    monkeypatch.setattr(driver, "run_module", capture)
    first = compile_to_ir(SIMPLE)
    second = compile_to_ir(SIMPLE)
    assert run_program(SIMPLE, [4]).output == ["5"]
    modules = [first, second, *oracle_modules]
    assert len(modules) == 3

    seen_vars: set[int] = set()
    seen_stmts: set[int] = set()
    seen_sids: set[int] = set()
    for module in modules:
        variables, stmts = _objects(module)
        assert variables and stmts
        var_ids = {id(v) for v in variables}
        stmt_ids = {id(s) for s in stmts}
        sids = {s.sid for s in stmts}
        assert not var_ids & seen_vars
        assert not stmt_ids & seen_stmts
        assert not sids & seen_sids
        seen_vars |= var_ids
        seen_stmts |= stmt_ids
        seen_sids |= sids
    dumps = {format_module(m) for m in modules}
    assert len(dumps) == 1


def test_parse_error_raises_every_call_and_is_not_memoised():
    from repro.errors import LexError, ParseError
    from repro.minic import compile_to_ir
    from repro.minic.lower import _parse_memo

    for bad, error in (("int main( { return 0; }", ParseError),
                       ("int main() { return 0 $ 1; }", LexError)):
        before = _parse_memo.cache_info()
        for _ in range(2):
            with pytest.raises(error):
                compile_to_ir(bad)
        after = _parse_memo.cache_info()
        assert after.hits == before.hits
        assert after.misses == before.misses + 2
        assert after.currsize == before.currsize


def test_semantic_error_raises_from_the_memoised_parse():
    from repro.errors import SemanticError
    from repro.minic import compile_to_ir
    from repro.minic.lower import _parse_memo

    bad = SIMPLE.replace("print(g + 1)", "print(h + 1)")
    before = _parse_memo.cache_info()
    for _ in range(3):
        with pytest.raises(SemanticError, match="undefined variable 'h'"):
            compile_to_ir(bad)
    after = _parse_memo.cache_info()
    assert after.hits == before.hits + 2  # parsed once, analysed three times
    # the fixed program is another source and compiles as usual
    fixed = bad.replace("int g;", "int g;\nint h;")
    assert run_program(fixed, [4]).output == ["1"]
    assert compile_and_run(fixed, [4]).output == ["1"]
    with pytest.raises(SemanticError):
        compile_to_ir(bad)


def test_parse_memo_does_not_fix_the_module_name():
    from repro.minic import compile_to_ir
    from repro.minic.lower import _parse_memo

    compile_to_ir(SIMPLE, "first")
    hits = _parse_memo.cache_info().hits
    assert compile_to_ir(SIMPLE, "second").name == "second"
    assert compile_to_ir(SIMPLE, "first").name == "first"
    assert _parse_memo.cache_info().hits == hits + 2
