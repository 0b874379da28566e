"""The workload matrix as a service client.

Builds one ``bench`` job per benchmark, runs them through a
:class:`repro.service.pool.JobPool`, and reassembles the
``{name: BenchmarkResult}`` map the figure tables consume — via the
same :class:`repro.workloads.report.StoredMode` shim the results store
uses, so a table rendered from service artifacts is byte-identical to
one computed by the sequential path from the same measurements
(simulated counters are deterministic; host wall times ride in the
job's unhashed ``extra`` and are merged back for display only).

Degradation contract: if the pool itself gives up (crash budget
exhausted — :class:`~repro.service.job.ServiceError`), the benchmarks
that did not complete are re-run sequentially in-process.  The service
is an accelerator over ``compile_source``, never a new failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.service.job import COMPLETED, TIMEOUT, JobResult, JobSpec, ServiceError
from repro.service.pool import JobPool

#: per-bench wall-clock budget: a full baseline+speculative measurement
#: takes a few seconds on an idle host; 300 s only trips on real hangs.
BENCH_TIMEOUT_S = 300.0

#: serialized error types that mean "interpreter fuel exhausted" — the
#: concrete raised class is ``InterpLimitExceeded``
#: (:class:`repro.errors.InterpTimeout` is its documented catch point,
#: which string matching across the process boundary cannot use).
INTERP_TIMEOUT_TYPES = frozenset({"InterpTimeout", "InterpLimitExceeded"})


def bench_spec(
    name: str,
    spec: str = "profile",
    fuel: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> JobSpec:
    payload: dict = {"bench": name, "spec": spec}
    if fuel is not None:
        payload["fuel"] = fuel
    return JobSpec(
        kind="bench",
        payload=payload,
        label=f"bench:{name}",
        timeout_s=timeout_s if timeout_s is not None else BENCH_TIMEOUT_S,
    )


def build_matrix_specs(
    benchmarks: Optional[list[str]] = None,
    spec: str = "profile",
    fuel: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> list[JobSpec]:
    from repro.workloads.programs import BENCHMARKS

    names = benchmarks if benchmarks is not None else list(BENCHMARKS)
    return [
        bench_spec(n, spec, fuel, timeout_s) for n in names
    ]


def _benchmark_result_from_artifact(name: str, artifact: dict, host: dict):
    """One service bench artifact back into a BenchmarkResult (None when
    a mode is missing — treated as a failure by the caller)."""
    from repro.workloads.programs import get_workload
    from repro.workloads.report import StoredMode
    from repro.workloads.runner import BenchmarkResult

    modes = artifact.get("modes", {})
    if "baseline" not in modes or "speculative" not in modes:
        return None

    def rebuild(label: str) -> StoredMode:
        record = dict(modes[label])
        record["metrics"] = dict(record.get("metrics", {}))
        record["metrics"]["host"] = dict(host.get(label, {}))
        return StoredMode(record)

    return BenchmarkResult(
        workload=get_workload(name),
        baseline=rebuild("baseline"),
        speculative=rebuild("speculative"),
        extras={
            label: rebuild(label)
            for label in modes
            if label not in ("baseline", "speculative")
        },
    )


def matrix_results(job_results: list[JobResult]):
    """Split pool results into ``(results, failures)`` — the same pair
    shape ``run_all_benchmarks`` + its ``failures`` list produce."""
    from repro.workloads.runner import WorkloadFailure

    results: dict = {}
    failures: list[WorkloadFailure] = []
    for jr in job_results:
        name = jr.spec.payload["bench"]
        if jr.state == COMPLETED:
            rebuilt = _benchmark_result_from_artifact(
                name, jr.artifact, jr.extra.get("host", {})
            )
            if rebuilt is not None:
                results[name] = rebuilt
                continue
            failures.append(
                WorkloadFailure(
                    name, "ServiceError",
                    "bench artifact is missing a mode", kind="error",
                )
            )
        elif jr.state == TIMEOUT:
            failures.append(
                WorkloadFailure(
                    name, "Timeout",
                    jr.error.message if jr.error else "wall-clock timeout",
                    kind="timeout",
                )
            )
        else:
            err = jr.error
            failures.append(
                WorkloadFailure(
                    name,
                    err.type if err else "Exception",
                    err.message if err else "unknown failure",
                    loc=err.loc if err else None,
                    kind="timeout"
                    if err and err.type in INTERP_TIMEOUT_TYPES
                    else "error",
                )
            )
    return results, failures


@dataclass
class MatrixOutcome:
    """Everything one service matrix run produced."""

    results: dict
    failures: list
    job_results: list[JobResult] = field(default_factory=list)
    ledger: Optional[object] = None
    cache_stats: Optional[dict] = None
    #: benchmarks recomputed sequentially after the pool gave up
    degraded: list[str] = field(default_factory=list)


def run_matrix(
    jobs: int = 2,
    cache_dir: Optional[str] = None,
    obs=None,
    benchmarks: Optional[list[str]] = None,
    spec: str = "profile",
    fuel: Optional[int] = None,
    timeout_s: Optional[float] = None,
    pool_kwargs: Optional[dict] = None,
) -> MatrixOutcome:
    """The full matrix through the pool, with sequential degradation."""
    from repro.service.cache import ArtifactCache

    specs = build_matrix_specs(benchmarks, spec, fuel, timeout_s)
    cache = ArtifactCache(cache_dir, obs=obs) if cache_dir else None
    pool = JobPool(
        jobs=jobs, cache=cache, obs=obs, **(pool_kwargs or {})
    )
    ids: list[int] = []
    degraded_error: Optional[ServiceError] = None
    with pool:
        ids = [pool.submit(s) for s in specs]
        try:
            pool.drain()
        except ServiceError as exc:
            degraded_error = exc

    job_results = [pool.results[i] for i in ids if i in pool.results]
    results, failures = matrix_results(job_results)

    degraded: list[str] = []
    if degraded_error is not None:
        # Slow-but-correct path: whatever the pool never finished runs
        # sequentially in-process, exactly like pre-service clients.
        from repro.service.workers import bench_spec_options
        from repro.workloads.programs import BENCHMARKS
        from repro.workloads.runner import WorkloadFailure, run_benchmark

        names = benchmarks if benchmarks is not None else list(BENCHMARKS)
        for name in names:
            if name in results:
                continue
            degraded.append(name)
            try:
                results[name] = run_benchmark(
                    name,
                    use_cache=False,
                    spec_options=bench_spec_options(spec),
                    fuel=fuel,
                )
            except Exception as exc:
                failures.append(
                    WorkloadFailure(name, type(exc).__name__, str(exc))
                )

    return MatrixOutcome(
        results=results,
        failures=failures,
        job_results=job_results,
        ledger=pool.ledger,
        cache_stats=cache.stats.as_dict() if cache else None,
        degraded=degraded,
    )
