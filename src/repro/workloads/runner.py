"""Experiment harness: compile + profile + simulate per benchmark.

Methodology mirrors the paper (section 4): the alias profile is
collected on the *train* input, the generated code runs on the *ref*
input, and the baseline for comparison is the -O3 configuration
(classical PRE register promotion plus Nicolau-style software run-time
checks).  Every run's observable output is differentially checked
against the unoptimised interpreter before any number is reported.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InterpTimeout, ReproError, SourceError
from repro.machine.counters import Counters
from repro.machine.cpu import MachineConfig, MachineResult
from repro.obs import JsonlSink, TraceContext
from repro.pipeline import (
    CompileOutput,
    CompilerOptions,
    OptLevel,
    SpecMode,
    compile_source,
    run_program,
)
from repro.workloads.programs import BENCHMARKS, Workload, get_workload

#: default interpreter fuel per workload run (oracle + profile train).
#: Generous — the ref inputs retire a few million steps — but finite,
#: so a runaway workload surfaces as a structured ``timeout`` failure
#: (:class:`repro.errors.InterpTimeout`) instead of hanging the matrix.
DEFAULT_INTERP_FUEL = 50_000_000


def BASELINE() -> CompilerOptions:
    """The paper's -O3 baseline: classical PRE + software checks.

    ``fallback`` is off: a measurement that silently degraded to -O0
    would corrupt every reduction percentage it feeds into."""
    return CompilerOptions(
        opt_level=OptLevel.O3, spec_mode=SpecMode.NONE, fallback=False
    )


def SPECULATIVE() -> CompilerOptions:
    """-O3 + profile-guided ALAT speculation (the paper's treatment)."""
    return CompilerOptions(
        opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE, fallback=False
    )


def STATIC_SPECULATIVE() -> CompilerOptions:
    """-O3 + static-only ALAT speculation: heuristic decisions priced by
    the probalias estimator, promotion gated ON by the same static
    probabilities — no alias-profiling (train) run at all."""
    from repro.pipeline import AliasProbSource, PromotionGate

    return CompilerOptions(
        opt_level=OptLevel.O3,
        spec_mode=SpecMode.HEURISTIC,
        alias_prob=AliasProbSource.STATIC,
        promotion_gate=PromotionGate.ON,
        fallback=False,
    )


@dataclass
class WorkloadFailure:
    """One benchmark that failed to compile, run, or validate."""

    name: str
    exc_type: str
    error: str
    #: ``line:column`` when the exception carried a source location
    loc: Optional[str] = None
    #: failure class: ``"error"`` or ``"timeout"`` (interpreter fuel /
    #: service wall-clock exhausted) — what CI and the service report
    kind: str = "error"

    def format(self) -> str:
        where = f" at {self.loc}" if self.loc else ""
        tag = " [timeout]" if self.kind == "timeout" else ""
        return f"{self.name}{where}: {self.exc_type}: {self.error}{tag}"


class WorkloadMatrixError(ReproError):
    """Raised at the *end* of a benchmark sweep that had failures.

    Carries both the failures and the partial results so callers can
    still report the benchmarks that did succeed."""

    def __init__(
        self,
        failures: list[WorkloadFailure],
        results: dict[str, "BenchmarkResult"],
    ) -> None:
        self.failures = failures
        self.results = results
        lines = [f"{len(failures)} of {len(failures) + len(results)} "
                 f"benchmark(s) failed:"]
        lines += [f"  {f.format()}" for f in failures]
        super().__init__("\n".join(lines))


@dataclass
class ModeResult:
    """One (benchmark, compilation mode) measurement."""

    label: str
    options: CompilerOptions
    compile_output: CompileOutput
    machine: MachineResult

    @property
    def counters(self) -> Counters:
        return self.machine.counters

    @property
    def retired_direct_loads(self) -> int:
        c = self.counters
        return c.retired_loads - c.retired_indirect_loads

    @property
    def host_metrics(self) -> dict:
        """Host-side performance of this measurement (wall ms, simulate
        wall ms, simulated steps per host second) — from the trace
        context every compilation carries even when tracing is off."""
        from repro.obs.report import build_host_metrics

        return build_host_metrics(self.machine, self.compile_output.obs)


@dataclass
class BenchmarkResult:
    """Baseline vs speculative measurement for one benchmark."""

    workload: Workload
    baseline: ModeResult
    speculative: ModeResult
    extras: dict[str, ModeResult] = field(default_factory=dict)

    # -- Figure 8 -----------------------------------------------------

    def _reduction(self, attr: str) -> float:
        base = getattr(self.baseline.counters, attr)
        spec = getattr(self.speculative.counters, attr)
        if base == 0:
            return 0.0
        return 100.0 * (base - spec) / base

    @property
    def cycle_reduction_pct(self) -> float:
        return self._reduction("cpu_cycles")

    @property
    def data_access_reduction_pct(self) -> float:
        return self._reduction("data_access_cycles")

    @property
    def load_reduction_pct(self) -> float:
        return self._reduction("retired_loads")

    # -- Figure 9 -----------------------------------------------------

    @property
    def reduced_loads_by_kind(self) -> dict[str, int]:
        return {
            "direct": self.baseline.retired_direct_loads
            - self.speculative.retired_direct_loads,
            "indirect": self.baseline.counters.retired_indirect_loads
            - self.speculative.counters.retired_indirect_loads,
        }

    # -- Figure 10 ----------------------------------------------------

    @property
    def misspeculation_ratio_pct(self) -> float:
        return 100.0 * self.speculative.counters.misspeculation_ratio

    @property
    def checks_per_load_pct(self) -> float:
        return 100.0 * self.speculative.counters.checks_per_load

    # -- Figure 11 ----------------------------------------------------

    @property
    def rse_increase_pct(self) -> float:
        base = self.baseline.counters.rse_cycles
        spec = self.speculative.counters.rse_cycles
        if base == 0:
            return 0.0 if spec == 0 else 100.0
        return 100.0 * (spec - base) / base

    @property
    def rse_share_of_cycles_pct(self) -> float:
        c = self.speculative.counters
        if c.cpu_cycles == 0:
            return 0.0
        return 100.0 * c.rse_cycles / c.cpu_cycles


_cache: dict[tuple, BenchmarkResult] = {}


def clear_cache() -> None:
    _cache.clear()


def measure(
    workload: Workload,
    instances: dict[str, CompilerOptions],
    fuel: int = DEFAULT_INTERP_FUEL,
    trace_dir: Optional[str] = None,
    profile_sites: bool = False,
) -> dict[str, ModeResult]:
    """Measure one workload under each named configuration.

    The reference oracle runs once; every instance is compiled (profile
    on the train input), run on the ref input and its output checked
    against the oracle — a mismatch raises :class:`AssertionError`
    naming the workload and label.  Instances must have ``fallback``
    off: a measurement that silently degraded to -O0 would corrupt
    every figure it feeds.  ``fuel`` bounds every interpreter run (the
    oracle and the profile-training run).  With ``trace_dir`` set, each
    instance streams its event trace to
    ``{trace_dir}/{workload}.{label}.jsonl``; with ``profile_sites``,
    each run collects the per-ALAT-site attribution profile
    (observational only — counters are identical).
    """
    for label, options in instances.items():
        if options.fallback:
            raise ValueError(
                f"{workload.name}/{label}: measured options must not "
                "fall back (set fallback=False)"
            )
    reference = run_program(
        workload.source, list(workload.ref_args), max_steps=fuel
    )
    modes: dict[str, ModeResult] = {}
    for label, options in instances.items():
        obs = None
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            obs = TraceContext(JsonlSink(
                os.path.join(trace_dir, f"{workload.name}.{label}.jsonl")
            ))
        try:
            output = compile_source(
                workload.source,
                options,
                train_args=list(workload.train_args),
                name=workload.name,
                obs=obs,
                max_steps=fuel,
            )
            machine = output.run(list(workload.ref_args), profile=profile_sites)
        finally:
            if obs is not None:
                obs.close()
        if machine.output != reference.output:
            raise AssertionError(
                f"{workload.name}/{label}: output mismatch vs reference\n"
                f"  got:      {machine.output}\n"
                f"  expected: {reference.output}"
            )
        modes[label] = ModeResult(label, options, output, machine)
    return modes


def run_benchmark(
    name: str,
    machine_config: Optional[MachineConfig] = None,
    extra_modes: Optional[dict[str, CompilerOptions]] = None,
    use_cache: bool = True,
    trace_dir: Optional[str] = None,
    profile_sites: bool = False,
    spec_options: Optional[CompilerOptions] = None,
    fuel: Optional[int] = None,
) -> BenchmarkResult:
    """Measure one benchmark: baseline + speculative (+ extras).

    A memoised :func:`measure` of the named workload under
    :func:`BASELINE`, the treatment (``spec_options``, default
    :func:`SPECULATIVE`; e.g. ``STATIC_SPECULATIVE()`` for the
    no-profile sweep) and ``extra_modes``, all on ``machine_config``
    when given.  ``trace_dir``, ``profile_sites`` and ``fuel`` are
    :func:`measure`'s (``fuel`` default :data:`DEFAULT_INTERP_FUEL`).
    """
    fuel = fuel if fuel is not None else DEFAULT_INTERP_FUEL
    # Keyed on values, not identities or summaries: a mutated config
    # object, or options differing in a field ``describe()`` omits, must
    # not be served an earlier result.
    key = (name, repr(machine_config),
           repr(sorted(extra_modes.items())) if extra_modes else None,
           trace_dir, profile_sites, repr(spec_options), fuel)
    if use_cache and key in _cache:
        return _cache[key]

    instances = {
        "baseline": BASELINE(),
        "speculative": spec_options if spec_options is not None
        else SPECULATIVE(),
        **(extra_modes or {}),
    }
    if machine_config is not None:
        for options in instances.values():
            options.machine = machine_config
    workload = get_workload(name)
    modes = measure(workload, instances, fuel, trace_dir, profile_sites)
    result = BenchmarkResult(
        workload, modes.pop("baseline"), modes.pop("speculative"), modes
    )
    if use_cache:
        _cache[key] = result
    return result


def run_all_benchmarks(
    machine_config: Optional[MachineConfig] = None,
    trace_dir: Optional[str] = None,
    failures: Optional[list[WorkloadFailure]] = None,
    profile_sites: bool = False,
    spec_options: Optional[CompilerOptions] = None,
    fuel: Optional[int] = None,
) -> dict[str, BenchmarkResult]:
    """All ten benchmarks, in the paper's reporting order.

    A failing benchmark no longer aborts the sweep: its exception is
    recorded as a :class:`WorkloadFailure` and the remaining benchmarks
    still run.  Pass ``failures`` (a list to append into) to collect
    them yourself; otherwise a non-empty failure set raises
    :class:`WorkloadMatrixError` — after the sweep — with the partial
    results attached.
    """
    collected: list[WorkloadFailure] = failures if failures is not None else []
    results: dict[str, BenchmarkResult] = {}
    for name in BENCHMARKS:
        try:
            results[name] = run_benchmark(
                name, machine_config, trace_dir=trace_dir,
                profile_sites=profile_sites, spec_options=spec_options,
                fuel=fuel,
            )
        except Exception as exc:
            loc = None
            if isinstance(exc, SourceError) and exc.line:
                loc = f"{exc.line}:{exc.column}"
            collected.append(
                WorkloadFailure(
                    name, type(exc).__name__, str(exc), loc,
                    kind="timeout" if isinstance(exc, InterpTimeout)
                    else "error",
                )
            )
    if failures is None and collected:
        raise WorkloadMatrixError(collected, results)
    return results


# -- results-store ingestion --------------------------------------------


def mode_sites(mode: ModeResult) -> Optional[list[dict]]:
    """Per-ALAT-site stats of one measurement (runs made with
    ``profile_sites``), as plain dicts; None when not profiled."""
    profile = getattr(mode.machine, "profile", None)
    if profile is None or not profile.sites:
        return None
    return [site.as_dict() for site in profile.sites.values()]


def store_records(
    results: dict[str, BenchmarkResult],
    suite: str = "matrix",
    batch: Optional[str] = None,
    config: Optional[dict] = None,
) -> list[dict]:
    """One store run record per (benchmark, mode) measurement.

    Records share one ``batch`` id (the sweep), carry the full
    ``build_metrics`` payload, the compiler options string plus any
    sweep ``config`` extras as the run's config, the machine geometry,
    and — when the run was profiled — per-site ALAT stats.
    """
    from repro.obs import build_metrics
    from repro.obs.store import make_record, new_batch_id

    batch = batch or new_batch_id()
    records = []
    for name, result in sorted(results.items()):
        modes = [result.baseline, result.speculative,
                 *result.extras.values()]
        for mode in modes:
            metrics = build_metrics(mode.compile_output, mode.machine)
            run_config = {"options": mode.options.describe()}
            if config:
                run_config.update(config)
            records.append(
                make_record(
                    name,
                    mode.label,
                    metrics,
                    suite=suite,
                    source=result.workload.source,
                    config=run_config,
                    machine=mode.options.machine,
                    sites=mode_sites(mode),
                    batch=batch,
                )
            )
    return records


def ingest_results(
    store,
    results: dict[str, BenchmarkResult],
    suite: str = "matrix",
    config: Optional[dict] = None,
    obs: Optional[TraceContext] = None,
) -> list[str]:
    """Write one sweep's measurements into a
    :class:`repro.obs.store.ResultsStore`; returns the run ids."""
    return store.ingest_many(
        store_records(results, suite=suite, config=config), obs=obs
    )
