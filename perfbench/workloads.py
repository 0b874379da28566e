"""The benchmark's workloads: seeded inputs and one pass over them.

A *unit* is one job of the closed loop: one program run through the
oracle and then compiled and simulated under each of its modes.  A
*pass* runs every unit of a workload once, in order, in this process.
Every simulated run's output is compared with the ``run_program``
oracle, and every failure is classified (``mismatch``, ``lint_reject``,
``timeout`` or ``error``) and counted, never skipped.

* ``paper-matrix`` — the ten paper kernels, baseline and speculative,
  on ref inputs drawn within +-10% of the committed ones.
* ``alat-sweep`` — ``run_benchmark`` for ammp and gzip over six ALAT
  sizes, through the runner as the ablation scripts call it.
* ``generated-compile`` — seeded aliasing-heavy generated programs,
  each under baseline, speculative and static-speculative options.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.chaos.generator import generate_program
from repro.errors import InterpTimeout, MachineLimitExceeded, SpecLintError
from repro.machine.alat import ALATConfig
from repro.machine.cpu import MachineConfig
from repro.obs import TraceContext
from repro.pipeline import CompilerOptions, compile_source, run_program
from repro.target.isa import Label
from repro.workloads.programs import BENCHMARKS, get_workload
from repro.workloads.runner import (
    BASELINE,
    DEFAULT_INTERP_FUEL,
    SPECULATIVE,
    STATIC_SPECULATIVE,
    run_benchmark,
)

WORKLOADS = ("paper-matrix", "alat-sweep", "generated-compile")

PAPER_MODES = (("baseline", BASELINE), ("speculative", SPECULATIVE))
GENERATED_MODES = PAPER_MODES + (("static", STATIC_SPECULATIVE),)

#: paper-matrix ref inputs are drawn within this share of the committed
#: ``n``, independently per kernel, so the matrix total varies little
REF_JITTER = 0.10
SWEEP_BENCHMARKS = ("ammp", "gzip")
SWEEP_ENTRIES = (2, 4, 8, 16, 32, 64)
#: the sweep point that stands for the Figure-8 reductions (Itanium's)
SWEEP_FIGURE8_ENTRIES = 32
#: generated programs per pass: the corpus mean of the reductions
#: varies with the seed's mix of program shapes, and shrinks with size
GENERATED_PROGRAMS = 320

FAILURE_KINDS = ("mismatch", "lint_reject", "timeout", "error")


@dataclass(frozen=True)
class Unit:
    """One job: a program, its inputs, and the options it runs under."""

    job: str
    source: str
    train_args: tuple
    ref_args: tuple
    modes: tuple[tuple[str, Callable[[], CompilerOptions]], ...]
    #: committed benchmark name when the job goes through ``run_benchmark``
    bench: Optional[str] = None
    alat_entries: Optional[int] = None
    #: counts toward the Figure-8 reductions
    figure8: bool = True

    def machine(self) -> Optional[MachineConfig]:
        """A fresh machine configuration per call: the runner must never
        see a recycled object."""
        if self.alat_entries is None:
            return None
        return MachineConfig(
            alat=ALATConfig(entries=self.alat_entries, associativity=2)
        )

    def options(self, make: Callable[[], CompilerOptions]) -> CompilerOptions:
        opts = make()
        machine = self.machine()
        if machine is not None:
            opts.machine = machine
        return opts


def make_units(workload: str, seed: int) -> list[Unit]:
    """The workload's inputs; the same seed gives the same units."""
    if workload == "paper-matrix":
        rng = random.Random(seed)
        units = []
        for name, w in BENCHMARKS.items():
            (n,) = w.ref_args
            if seed != 0:
                n = round(n * (1 + rng.uniform(-REF_JITTER, REF_JITTER)))
            units.append(
                Unit(name, w.source, w.train_args, (n,), PAPER_MODES)
            )
        return units
    if workload == "alat-sweep":
        # The runner takes a benchmark name, not an input: the seed
        # changes nothing here.
        return [
            Unit(f"{name}@{entries}", w.source, w.train_args, w.ref_args,
                 PAPER_MODES, bench=name, alat_entries=entries,
                 figure8=entries == SWEEP_FIGURE8_ENTRIES)
            for name in SWEEP_BENCHMARKS
            for w in [get_workload(name)]
            for entries in SWEEP_ENTRIES
        ]
    if workload == "generated-compile":
        rng = random.Random(seed)
        return [
            Unit(g.name, g.source, g.train_args, g.ref_args, GENERATED_MODES)
            for g in (generate_program(rng, i)
                      for i in range(GENERATED_PROGRAMS))
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


@dataclass
class Failure:
    job: str
    mode: str
    kind: str
    detail: str


@dataclass
class PassResult:
    """What one pass measured and produced."""

    wall_s: float = 0.0
    attempted: int = 0
    failures: list[Failure] = field(default_factory=list)
    #: host milliseconds of each ``compile_source`` call the pass made,
    #: with the recorder's host-speed segment it ran in
    compile_ms: list[tuple[float, int]] = field(default_factory=list)
    #: simulated numbers per (job, mode): counters, ALAT/cache/RSE
    #: stats and static code facts — all deterministic
    records: dict[tuple[str, str], dict] = field(default_factory=dict)
    ref_calls: int = 0
    ref_steps: int = 0
    ref_inputs: set = field(default_factory=set)

    def fail(self, unit: Unit, mode: str, kind: str, detail: str) -> None:
        self.failures.append(Failure(unit.job, mode, kind, detail))


def classify(exc: Exception) -> str:
    if isinstance(exc, SpecLintError):
        return "lint_reject"
    if isinstance(exc, (InterpTimeout, MachineLimitExceeded)):
        return "timeout"
    if isinstance(exc, AssertionError) and "output mismatch" in str(exc):
        # run_benchmark's own comparison against its oracle
        return "mismatch"
    return "error"


def mode_record(compile_output, machine) -> dict:
    """Every simulated number of one run, flat, for the determinism
    guard and the per-layer sums."""
    rec = machine.counters.as_dict()
    for prefix, stats in (("alat", machine.alat_stats),
                          ("cache", machine.cache_stats),
                          ("rse", machine.rse_stats)):
        for key, value in dataclasses.asdict(stats).items():
            rec[f"{prefix}.{key}"] = value
    rec["static_insns"] = sum(
        1
        for fn in compile_output.program.functions.values()
        for instr in fn.instrs
        if not isinstance(instr, Label)
    )
    rec["pre_reloads"] = compile_output.total_reloads
    rec["pre_checks"] = compile_output.total_checks
    rec["pressure_candidates"] = (
        sum(1 for _ in compile_output.pressure.all_candidates())
        if compile_output.pressure is not None else 0
    )
    rec["fallback"] = int(compile_output.fallback)
    return rec


def run_pass(units: list[Unit], rec, host_profiler=None) -> PassResult:
    """Run every unit once (a closed loop with one client).

    ``rec`` is a span recorder (``NULL_RECORDER`` when untraced).
    ``host_profiler`` turns on the simulator's host buckets; units that
    normally go through ``run_benchmark`` then run the same
    configurations directly, since the runner takes no profiler.
    """
    out = PassResult()
    probe_s, t0 = rec.probe_s, time.perf_counter()
    with rec.span("pass"):
        for unit in units:
            with rec.span("job", job=unit.job):
                if unit.bench is not None and host_profiler is None:
                    _run_via_runner(unit, rec, out)
                else:
                    _run_direct(unit, rec, out, host_profiler)
    out.wall_s = time.perf_counter() - t0 - (rec.probe_s - probe_s)
    return out


def _run_direct(unit: Unit, rec, out: PassResult, host_profiler) -> None:
    out.ref_calls += 1
    out.ref_inputs.add((unit.source, unit.ref_args))
    try:
        with rec.span("run_program"):
            ref = run_program(
                unit.source, list(unit.ref_args),
                max_steps=DEFAULT_INTERP_FUEL,
            )
    except Exception as exc:
        # without an oracle no mode of this unit can be checked
        for label, _ in unit.modes:
            out.attempted += 1
            out.fail(unit, label, classify(exc), f"oracle: {exc!r}")
        return
    out.ref_steps += ref.stats.steps
    for label, make in unit.modes:
        out.attempted += 1
        obs = TraceContext()
        try:
            with rec.span("compile_source") as span:
                t0 = time.perf_counter()
                output = compile_source(
                    unit.source, unit.options(make),
                    train_args=list(unit.train_args), name=unit.job,
                    obs=obs, max_steps=DEFAULT_INTERP_FUEL,
                )
                out.compile_ms.append(
                    ((time.perf_counter() - t0) * 1e3, rec.segment))
                span["phases"] = dict(obs.phase_times)
            with rec.span("CompileOutput.run"):
                machine = output.run(
                    list(unit.ref_args), host_profiler=host_profiler
                )
        except Exception as exc:
            out.fail(unit, label, classify(exc), repr(exc))
            continue
        if (machine.output, machine.exit_value) != (ref.output, ref.exit_value):
            out.fail(unit, label, "mismatch",
                     f"got {machine.output[:3]}..., exit "
                     f"{machine.exit_value}; oracle {ref.output[:3]}..., "
                     f"exit {ref.exit_value}")
            continue
        out.records[(unit.job, label)] = mode_record(output, machine)


def _run_via_runner(unit: Unit, rec, out: PassResult) -> None:
    # An uncached run_benchmark call re-runs the oracle on the ref input.
    out.ref_calls += 1
    out.ref_inputs.add((unit.source, unit.ref_args))
    out.attempted += len(unit.modes)
    try:
        with rec.span("run_benchmark") as span:
            result = run_benchmark(
                unit.bench, machine_config=unit.machine(), use_cache=False
            )
            phases: dict[str, float] = {}
            for mode in (result.baseline, result.speculative):
                for name, secs in mode.compile_output.obs.phase_times.items():
                    phases[name] = phases.get(name, 0.0) + secs
            span["phases"] = phases
    except Exception as exc:
        for label, _ in unit.modes:
            out.fail(unit, label, classify(exc), repr(exc))
        return
    for mode in (result.baseline, result.speculative):
        out.records[(unit.job, mode.label)] = mode_record(
            mode.compile_output, mode.machine
        )


def compile_samples(units: list[Unit], count: int, records: dict,
                    rec) -> list[tuple[float, int]]:
    """Host milliseconds, each with its segment of ``rec``, of ``count``
    further ``compile_source`` calls, round-robin over the (unit, mode)
    pairs that compiled in the passes (``records``) — used when the
    timed passes made too few calls for the tail percentile."""
    pairs = [(u, make) for u in units for label, make in u.modes
             if (u.job, label) in records]
    out = []
    for i in range(count):
        unit, make = pairs[i % len(pairs)]
        opts = unit.options(make)
        with rec.span("compile_source", job=unit.job):
            t0 = time.perf_counter()
            compile_source(
                unit.source, opts, train_args=list(unit.train_args),
                name=unit.job, max_steps=DEFAULT_INTERP_FUEL,
            )
            out.append(((time.perf_counter() - t0) * 1e3, rec.segment))
    return out


def figure8_reductions(units: list[Unit],
                       records: dict) -> tuple[float, float]:
    """Mean over the Figure-8 units of the speculative-vs-baseline
    reduction in simulated cycles and in retired loads, in percent."""
    cycles, loads = [], []
    for unit in units:
        base = records.get((unit.job, "baseline"))
        spec = records.get((unit.job, "speculative"))
        if not unit.figure8 or base is None or spec is None:
            continue
        cycles.append(_reduction(base["cpu_cycles"], spec["cpu_cycles"]))
        loads.append(_reduction(base["retired_loads"], spec["retired_loads"]))
    if not cycles:
        return float("nan"), float("nan")
    return sum(cycles) / len(cycles), sum(loads) / len(loads)


def _reduction(base: int, spec: int) -> float:
    return 100.0 * (base - spec) / base if base else 0.0


def sweep_violations(records: dict) -> list[str]:
    """ALAT capacity evictions must not rise as ammp's ALAT grows."""
    problems = []
    for label, _ in PAPER_MODES:
        previous = None
        for entries in SWEEP_ENTRIES:
            rec = records.get((f"ammp@{entries}", label))
            if rec is None:
                continue
            evictions = rec["alat.capacity_evictions"]
            if previous is not None and evictions > previous[1]:
                problems.append(
                    f"ammp/{label}: {evictions} evictions at {entries} "
                    f"entries > {previous[1]} at {previous[0]}"
                )
            previous = (entries, evictions)
    return problems
