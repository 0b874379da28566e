"""Pinning golden for the IR interpreter.

Every observable number of a fixed set of interpreter runs must stay
byte-identical to ``tests/golden/interp_stats.json``: output digest,
exit value, every :class:`InterpStats` field and a digest of the alias
profile the run feeds (paper section 3.1).  The runs cover the ten
kernels on their train and ref inputs (plain and traced), compiled
modules under ``CompileOutput.interpret`` (three kernels' speculative
modules, ammp's baseline, and small programs that reach ``chk.a``
recovery, a deferred ``ld.sa`` fault and a taken
``ConditionalReload``), twenty generated aliasing-heavy programs, and
fuel exhaustion at assorted step limits, where the exception text and
the partial output and stats at the raise are pinned too.

Regenerate (only for a deliberate change to interpreted behaviour):

    PYTHONPATH=src python tests/test_interp_stats.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import pytest

from repro.chaos.generator import generate_program
from repro.errors import InterpError
from repro.ir.interp import Interpreter
from repro.ir.stmt import Assign
from repro.minic import compile_to_ir
from repro.obs.telemetry import HostProfiler
from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source
from repro.speculation.profile import _ProfilingTracer
from repro.workloads.programs import BENCHMARKS
from repro.workloads.runner import BASELINE, SPECULATIVE

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "interp_stats.json")

#: kernels whose speculative module runs under ``CompileOutput.interpret``
#: (``ld.sa`` / ``ld.c``); ammp's baseline module carries
#: ``ConditionalReload``s
SPECULATIVE_KERNELS = ("gzip", "ammp", "art")
#: a pointer chain whose second promotion round emits ``chk.a`` with
#: recovery code; from i = 21 the ``*w`` store really redirects ``p``
CASCADE_SRC = """
int a; int b; int c;
int *p; int *other;
int **q; int **w;
int main(int n) {
    q = &p; p = &a; other = &c;
    a = 3; b = 9;
    int s = 0;
    int i = 0;
    while (i < n) {
        if (i > 20 && i % 7 == 0) { w = &p; } else { w = &other; }
        s = s + *(*q);
        *w = &b;
        s = s + *(*q);
        i = i + 1;
    }
    print(s);
    print(*p);
    return 0;
}
"""
#: ``*p`` is hoisted out of the loop as an ``ld.sa``, which faults (and
#: defers) at n = 0, where ``p`` is null and the loop never loads it
DEFERRAL_SRC = """
int g; int h;
int *p; int *q;
int main(int n) {
    if (n > 0) { p = &g; }
    if (n > 5) { q = &g; } else { q = &h; }
    g = 2;
    int s = 0;
    int i = 0;
    while (i < n) {
        s = s + *p;
        *q = i;
        s = s + *p;
        i = i + 1;
    }
    print(s);
    return 0;
}
"""
#: the baseline guards ``g`` with a ``ConditionalReload`` after ``*q``;
#: it reloads when n > 5, where ``q`` points at ``g``
RELOAD_SRC = """
int g; int h;
int *q;
int main(int n) {
    if (n > 5) { q = &g; } else { q = &h; }
    g = 2;
    int s = 0;
    int i = 0;
    while (i < n) {
        s = s + g;
        *q = i;
        s = s + g;
        i = i + 1;
    }
    print(s);
    return 0;
}
"""
#: (source, options, train args, run args) per compiled module
COMPILED = {
    **{
        f"speculative/{name}": (
            BENCHMARKS[name].source, SPECULATIVE, BENCHMARKS[name].train_args,
            [BENCHMARKS[name].ref_args],
        )
        for name in SPECULATIVE_KERNELS
    },
    "baseline/ammp": (
        BENCHMARKS["ammp"].source, BASELINE, BENCHMARKS["ammp"].train_args,
        [BENCHMARKS["ammp"].ref_args],
    ),
    "cascade/chk.a": (
        CASCADE_SRC,
        lambda: CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE, rounds=2),
        (10,), [(60,)],
    ),
    "deferral/ld.sa": (DEFERRAL_SRC, SPECULATIVE, (3,), [(0,), (10,)]),
    "reload/baseline": (RELOAD_SRC, BASELINE, (3,), [(3,), (10,)]),
}
FUEL_KERNELS = ("mcf", "gzip", "art")
FUEL_LIMITS = (1, 7, 100, 1001, 5003, 12345)
GENERATED = 20
GENERATED_FUEL = 200_000


def _digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _stats(stats) -> dict:
    return {
        name: getattr(stats, name)
        for name in ("steps", "direct_loads", "indirect_loads", "stores", "calls")
    }


def _record(interp: Interpreter, args) -> dict:
    try:
        result = interp.run(list(args))
    except InterpError as exc:
        rec = {"error": f"{type(exc).__name__}: {exc}", "output": interp.output}
    else:
        rec = {
            "output_sha": _digest("\n".join(result.output)),
            "exit_value": result.exit_value,
        }
    rec["stats"] = _stats(interp.stats)
    return rec


def _interpret(out, args) -> dict:
    result = out.interpret(list(args))
    return {
        "output_sha": _digest("\n".join(result.output)),
        "exit_value": result.exit_value,
        "stats": _stats(result.stats),
    }


def _ordinals(module) -> dict:
    """Statement, expression and variable ids renumbered in module
    order, so the profile digest does not depend on how many IR nodes
    were built before this module."""
    ids: dict = {}

    def number(kind, key):
        ids.setdefault((kind, key), len(ids))

    def stmts(seq):
        for stmt in seq:
            number("s", stmt.sid)
            for expr in stmt.walk_exprs():
                number("e", expr.eid)
            if isinstance(stmt, Assign) and stmt.recovery:
                stmts(stmt.recovery)

    for g in module.globals:
        number("v", g.id)
    for fn in module.iter_functions():
        for var in fn.all_variables():
            number("v", var.id)
        for block in fn.blocks:
            stmts(block.stmts)
    return ids


def _profile_digest(profile, module) -> str:
    ids = _ordinals(module)
    owner_kind = {"var": "v", "heap": "s"}

    def owners(keys):
        return sorted(ids[(owner_kind[kind], key)] for kind, key in keys)

    def targets(mapping, kind):
        return sorted((ids[(kind, k)], owners(v)) for k, v in mapping.items())

    def counts(mapping, kind):
        return sorted((ids[(kind, k)], n) for k, n in mapping.items())

    return _digest({
        "store_targets": targets(profile.store_targets, "s"),
        "load_targets": targets(profile.load_targets, "e"),
        "store_counts": counts(profile.store_counts, "s"),
        "load_counts": counts(profile.load_counts, "e"),
    })


def _traced(module, args, max_steps=50_000_000) -> dict:
    tracer = _ProfilingTracer()
    rec = _record(Interpreter(module, tracer=tracer, max_steps=max_steps), args)
    rec["profile_sha"] = _profile_digest(tracer.profile, module)
    return rec


def _fuel_runs(**interp_kwargs) -> dict:
    """Each kernel's train run under each step limit; a limit the run
    stays within pins the completed run instead."""
    runs = {}
    for name in FUEL_KERNELS:
        w = BENCHMARKS[name]
        module = compile_to_ir(w.source)
        for limit in FUEL_LIMITS:
            interp = Interpreter(module, max_steps=limit, **interp_kwargs)
            runs[f"fuel/{name}/{limit}"] = _record(interp, w.train_args)
    return runs


def collect() -> dict:
    runs: dict[str, dict] = {}
    for name, w in BENCHMARKS.items():
        module = compile_to_ir(w.source)
        for label, args in (("train", w.train_args), ("ref", w.ref_args)):
            runs[f"kernel/{name}/{label}"] = _record(Interpreter(module), args)
            runs[f"kernel/{name}/{label}/traced"] = _traced(module, args)

    for key, (source, options, train, run_args) in COMPILED.items():
        out = compile_source(source, options(), train_args=list(train))
        for args in run_args:
            runs[f"{key}/{','.join(map(str, args))}"] = _interpret(out, args)

    rng = random.Random(0)
    for i in range(GENERATED):
        g = generate_program(rng, i)
        module = compile_to_ir(g.source)
        runs[f"generated/{g.name}"] = _record(
            Interpreter(module, max_steps=GENERATED_FUEL), g.ref_args
        )
        runs[f"generated/{g.name}/traced"] = _traced(
            module, g.train_args, GENERATED_FUEL
        )

    runs.update(_fuel_runs())
    return runs


def render(runs: dict) -> str:
    return json.dumps(runs, indent=1, sort_keys=True) + "\n"


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_interp_stats_match_golden():
    runs = collect()
    with open(GOLDEN) as fh:
        text = fh.read()
    golden = json.loads(text)
    assert sorted(runs) == sorted(golden)
    for key in golden:
        assert runs[key] == golden[key], f"interpreted numbers drifted: {key}"
    assert render(runs) == text


@pytest.mark.parametrize("hook", ["host_profiler", "tracer"])
def test_fuel_boundary_independent_of_hooks(hook):
    """Fuel runs out at the same statement, with the same partial output
    and stats, whether or not a profiler or tracer watches."""
    kwargs = (
        {"host_profiler": HostProfiler()} if hook == "host_profiler"
        else {"tracer": _ProfilingTracer()}
    )
    golden = _golden()
    for key, rec in _fuel_runs(**kwargs).items():
        assert rec == golden[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    with open(GOLDEN, "w") as fh:
        fh.write(render(collect()))
