"""Turn passes into the benchmark's metrics, and the checks a run must
pass before any number is reported."""

from __future__ import annotations

import resource
from collections import Counter, defaultdict
from statistics import median

from perfbench.spans import PHASE_LAYER, Span, layer_self_times
from perfbench.stats import percentile
from perfbench.workloads import FAILURE_KINDS, PassResult, Unit, figure8_reductions

COMPILE_PHASES = [p for p in PHASE_LAYER if p != "simulate"]


def fail_summary(passes: list[PassResult]) -> tuple[int, int, dict[str, int]]:
    """(attempted runs, failed runs, failures by kind) over the passes."""
    kinds = Counter(f.kind for p in passes for f in p.failures)
    attempted = sum(p.attempted for p in passes)
    return attempted, sum(kinds.values()), {k: kinds[k] for k in FAILURE_KINDS}


def determinism_problems(passes: list[PassResult]) -> list[str]:
    """Every simulated number must repeat exactly in every pass."""
    problems = []
    first = passes[0].records
    for i, other in enumerate(passes[1:], 2):
        for key in sorted(first.keys() | other.records.keys()):
            a, b = first.get(key), other.records.get(key)
            if a == b:
                continue
            if a is None or b is None:
                problems.append(f"pass {i}: {key} ran in only one pass")
                continue
            diff = sorted(k for k in a if a[k] != b.get(k))
            problems.append(f"pass {i}: {key} differs in {diff[:5]}")
    return problems


def end_to_end(units: list[Unit], records: dict, walls: list[float],
               compile_ms: list[float], setup_s: float) -> dict[str, float]:
    cycle_pct, load_pct = figure8_reductions(units, records)
    return {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "compile_ms.p50": percentile(compile_ms, 50),
        "compile_ms.p90": percentile(compile_ms, 90),
        "cycle_reduction_pct": cycle_pct,
        "load_reduction_pct": load_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced: PassResult, spans: list[Span], untraced_wall_s: float,
              host_profiler, calib_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass; the host profiler's
    simulator buckets come from its own, separate pass."""
    phases: dict[str, float] = defaultdict(float)
    compile_s = 0.0
    for s in spans:
        for name, secs in s.fields.get("phases", {}).items():
            phases[name] += secs
        if s.name == "compile_source":
            compile_s += s.duration
        elif s.name == "run_benchmark":
            # compile_source runs inside the runner: its phases time it
            compile_s += sum(secs for name, secs in s.fields["phases"].items()
                             if name != "simulate")
    records = traced.records.values()

    def total(key: str) -> int:
        return sum(r[key] for r in records)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    self_s = layer_self_times(spans)
    return {
        "host.calib_s": calib_s,
        "trace.wall_s": traced.wall_s,
        "trace.overhead_pct": 100.0 * ratio(traced.wall_s - untraced_wall_s,
                                            untraced_wall_s),
        "ref.s": self_s["ir.interp"],
        "ref.calls": traced.ref_calls,
        "ref.unique_inputs": len(traced.ref_inputs),
        "ref.steps": traced.ref_steps,
        "ref.us_per_step": 1e6 * ratio(self_s["ir.interp"], traced.ref_steps),
        **{f"{phase}.s": phases[phase] for phase in COMPILE_PHASES},
        "pre.reloads": total("pre_reloads"),
        "pre.checks": total("pre_checks"),
        "pressure.candidates": total("pressure_candidates"),
        "target.static_insns": total("static_insns"),
        "speclint.rejects": sum(f.kind == "lint_reject" for f in traced.failures),
        "compile.s": compile_s,
        "pipeline.self_s": self_s["pipeline"],
        "pipeline.fallbacks": ratio(total("fallback"), traced.attempted),
        "simulate.s": self_s["machine"],
        "sim.insns": total("instructions"),
        "sim.ns_per_insn": 1e9 * ratio(self_s["machine"], total("instructions")),
        "sim.cycles": total("cpu_cycles"),
        "alat.allocations": total("alat.allocations"),
        "alat.capacity_evictions": total("alat.capacity_evictions"),
        "alat.check_hit_ratio": ratio(
            total("alat.check_hits"),
            total("alat.check_hits") + total("alat.check_misses")),
        "cache.l1_miss_ratio": ratio(
            total("cache.l1_misses"),
            total("cache.l1_hits") + total("cache.l1_misses")),
        "rse.cycles": total("rse_cycles"),
        **{f"{bucket}.s": host_profiler.ns.get(bucket, 0) / 1e9
           for bucket in ("sim.alat", "sim.cache", "sim.issue")},
        "runner.self_s": self_s["workloads.runner"],
        "unattributed.s": self_s["unattributed"],
    }
