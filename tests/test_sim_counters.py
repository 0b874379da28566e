"""Counter-pinning golden for the timing simulator.

Every simulated number of a fixed set of runs — output, exit value,
every :class:`Counters` field and the ALAT/cache/RSE stats — must stay
byte-identical to ``tests/golden/sim_counters.json``.  The runs cover
the ten kernels on their train inputs under both paper modes, ALAT
sizes from 2 to 64 entries, generated aliasing-heavy programs, and one
run under each simulator hook (guest profile, fault injector, host
profiler), whose observations must not perturb anything they watch.

Regenerate (only for a deliberate change to simulated behaviour):

    PYTHONPATH=src python tests/test_sim_counters.py --write
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys

from repro.chaos.faults import FaultInjector, default_fault_plans
from repro.chaos.generator import generate_program
from repro.machine.alat import ALATConfig
from repro.machine.cpu import MachineConfig, run_machine
from repro.obs.telemetry import HostProfiler
from repro.pipeline import compile_source
from repro.workloads.programs import BENCHMARKS
from repro.workloads.runner import BASELINE, SPECULATIVE, STATIC_SPECULATIVE

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "sim_counters.json")

MODES = {
    "baseline": BASELINE,
    "speculative": SPECULATIVE,
    "static": STATIC_SPECULATIVE,
}
SWEEP_ENTRIES = (2, 8, 64)
GENERATED = 12


def _record(result) -> dict:
    rec = {
        "output": result.output,
        "exit_value": result.exit_value,
        "counters": result.counters.as_dict(),
    }
    for name in ("alat_stats", "cache_stats", "rse_stats"):
        rec[name] = dataclasses.asdict(getattr(result, name))
    return rec


def _compile(source: str, mode: str, train_args, machine=None):
    opts = MODES[mode]()
    if machine is not None:
        opts.machine = machine
    return compile_source(source, opts, train_args=list(train_args))


def _profile_totals(profile) -> dict:
    return {
        "total_slots": profile.total_slots,
        "per_function_slots": profile.per_function_slots(),
        "retired": sum(r.retired for r in profile.instrs),
        "data_cycles": sum(r.data_cycles for r in profile.instrs),
        "sites": [s.as_dict() for s in profile.sites.values()],
    }


def collect() -> dict:
    runs: dict[str, dict] = {}
    for name, w in BENCHMARKS.items():
        for mode in ("baseline", "speculative"):
            out = _compile(w.source, mode, w.train_args)
            runs[f"kernel/{name}/{mode}"] = _record(
                run_machine(out.program, list(w.train_args), out.options.machine)
            )

    ammp = BENCHMARKS["ammp"]
    for entries in SWEEP_ENTRIES:
        machine = MachineConfig(alat=ALATConfig(entries=entries, associativity=2))
        out = _compile(ammp.source, "speculative", ammp.train_args, machine)
        runs[f"ammp@{entries}"] = _record(
            run_machine(out.program, list(ammp.train_args), machine)
        )

    rng = random.Random(0)
    for i in range(GENERATED):
        g = generate_program(rng, i)
        for mode in MODES:
            out = _compile(g.source, mode, g.train_args)
            runs[f"generated/{g.name}/{mode}"] = _record(
                run_machine(out.program, list(g.ref_args), out.options.machine)
            )

    gzip = BENCHMARKS["gzip"]
    out = _compile(gzip.source, "speculative", gzip.train_args)
    res = run_machine(out.program, list(gzip.train_args), profile=True)
    runs["hook/profile/gzip"] = dict(_record(res), profile=_profile_totals(res.profile))

    injector = FaultInjector(default_fault_plans(seed=0)[2])
    res = run_machine(out.program, list(gzip.train_args), injector=injector)
    runs["hook/injector/gzip"] = dict(
        _record(res), faults=dataclasses.asdict(injector.stats)
    )

    hp = HostProfiler()
    res = run_machine(out.program, list(gzip.train_args), host_profiler=hp)
    runs["hook/host_profiler/gzip"] = dict(
        _record(res), host_buckets=dict(sorted(hp.counts.items()))
    )
    return runs


def render(runs: dict) -> str:
    return json.dumps(runs, indent=1, sort_keys=True) + "\n"


def test_sim_counters_match_golden():
    runs = collect()
    with open(GOLDEN) as fh:
        text = fh.read()
    golden = json.loads(text)
    assert sorted(runs) == sorted(golden)
    for key in golden:
        assert runs[key] == golden[key], f"simulated numbers drifted: {key}"
    assert render(runs) == text


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    with open(GOLDEN, "w") as fh:
        fh.write(render(collect()))
