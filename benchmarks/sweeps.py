"""Every published table of ``benchmarks/results/``, declared once.

Each :data:`SWEEPS` entry is one published file: the workloads it
measures (*targets*), the configurations it measures them under
(*instances*: label -> ``CompilerOptions`` factory, machine geometry
included), its renderer and the shape checks that pin the paper's claims
to its numbers.  Every sweep is measured through
:func:`repro.workloads.runner.measure`: one reference oracle per target,
every instance's output checked against it, no -O0 fallback, the
runner's fuel bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

from repro.alias.manager import AliasAnalysisKind
from repro.analysis.probalias import (
    AGREEMENT_THRESHOLD,
    compare_workload,
    comparison_table,
)
from repro.machine.alat import ALATConfig
from repro.machine.cpu import MachineConfig
from repro.obs import build_metrics
from repro.pipeline import CompilerOptions, OptLevel, SpecMode
from repro.workloads import (
    BASELINE,
    SPECULATIVE,
    BenchmarkResult,
    figure8_table,
    figure9_table,
    figure10_table,
    figure11_table,
    figures_as_dict,
)
from repro.workloads.programs import BENCHMARKS, Workload, get_workload
from repro.workloads.runner import measure

NONE, PROFILE = SpecMode.NONE, SpecMode.PROFILE


@dataclass(frozen=True)
class Sweep:
    targets: tuple[Workload, ...]
    #: ``(label, options factory)`` pairs, in measurement order
    instances: tuple[tuple[str, Callable[[], CompilerOptions]], ...]
    #: ``{workload name: row} -> table text``; a row is
    #: ``{label: ModeResult}`` unless the sweep brings its own ``measure``
    render: Callable[[dict], str]
    #: ``{check name: check}``; a check raises AssertionError on the rows
    checks: dict[str, Callable[[dict], None]]
    #: ``(workload, {label: options}) -> row``
    measure: Callable = measure
    #: further published files, ``rows -> {file name: text}``
    files: Optional[Callable[[dict], dict[str, str]]] = None


@cache
def _measured(targets, instances, measure_one) -> dict:
    return {
        w.name: measure_one(w, {label: make() for label, make in instances})
        for w in targets
    }


def rows(sweep: Sweep) -> dict:
    """The sweep's measurements, taken once per process and shared by
    every sweep with the same targets, instances and measurement."""
    return _measured(sweep.targets, sweep.instances, sweep.measure)


def modes(*spec_modes: SpecMode, prefix: str = "", **fields):
    """One -O3 instance per speculation mode (fallback off), labelled
    ``prefix + mode.value``, with ``fields`` set on its options."""
    return tuple(
        (prefix + mode.value, lambda mode=mode: CompilerOptions(
            opt_level=OptLevel.O3, spec_mode=mode, fallback=False, **fields
        ))
        for mode in spec_modes
    )


def named(*names: str) -> tuple[Workload, ...]:
    return tuple(get_workload(n) for n in names)


def tabulate(title: str, width: int, header: str, line: Callable) -> Callable:
    """Renderer of a ruled table with one ``line(name, row)`` per target."""
    rule = "-" * width

    def render(rows: dict) -> str:
        body = [line(name, row) for name, row in rows.items()]
        return "\n".join([title, rule, header, rule, *body, rule])

    return render


def each(ok: Callable, *names: str) -> Callable:
    """Check that ``ok(row)`` holds for every target (or just ``names``)."""
    def check(rows):
        bad = [name for name in names or rows if not ok(rows[name])]
        assert not bad, f"does not hold for {bad}"
    return check


def holds(ok: Callable) -> Callable:
    """Check that ``ok(rows)`` holds over the whole table (the published
    table shows the numbers behind a failure)."""
    def check(rows):
        assert ok(rows)
    return check


def count(rows: dict, ok: Callable) -> int:
    return sum(1 for row in rows.values() if ok(row))


def total(rows: dict, value: Callable) -> float:
    return sum(value(row) for row in rows.values())


def gain(row: dict, label: str = "profile", base: str = "none") -> float:
    """Cycle reduction (%) of instance ``label`` against ``base``."""
    b = row[base].counters.cpu_cycles
    return 100.0 * (b - row[label].counters.cpu_cycles) / b if b else 0.0


def cycles(mode) -> int:
    return mode.counters.cpu_cycles


# -- Figures 8-11: the paper's matrix, one measurement for all four ------

MATRIX = tuple(BENCHMARKS.values())
PAPER = (("baseline", BASELINE), ("speculative", SPECULATIVE))


def paired(workload: Workload, instances: dict) -> BenchmarkResult:
    modes = measure(workload, instances)
    return BenchmarkResult(workload, modes["baseline"], modes["speculative"])


def matrix_files(results: dict) -> dict[str, str]:
    """``figures.json`` (raw data for plotting) and ``metrics.json``
    (per-mode run metrics, what ``repro.obs.regress`` gates)."""
    metrics = {
        name: {
            mode.label: build_metrics(mode.compile_output, mode.machine)
            for mode in (r.baseline, r.speculative)
        }
        for name, r in results.items()
    }
    return {
        "figures.json": json.dumps(figures_as_dict(results), indent=2) + "\n",
        "metrics.json": json.dumps(metrics, indent=2) + "\n",
    }


def figure(render: Callable, checks: dict, files=None) -> Sweep:
    return Sweep(MATRIX, PAPER, render, checks, measure=paired, files=files)


def share(r: BenchmarkResult, kind: str) -> float:
    """Share of ``kind`` loads among the eliminated ones; NaN (failing
    every bound) when no load was eliminated at all."""
    kinds = r.reduced_loads_by_kind
    all_kinds = kinds["direct"] + kinds["indirect"]
    return kinds[kind] / all_kinds if all_kinds else float("nan")


def rse(mode) -> int:
    return mode.counters.rse_cycles


# -- Ablation A: ALAT capacity ------------------------------------------

ALAT_SIZES = (2, 4, 8, 16, 32, 64)


def alat_instances():
    for entries in ALAT_SIZES:
        machine = MachineConfig(alat=ALATConfig(entries=entries, associativity=2))
        yield from modes(NONE, PROFILE, prefix=f"{entries}/", machine=machine)


def failures(row, entries: int) -> int:
    return row[f"{entries}/profile"].counters.check_failures


def evictions(row, entries: int) -> int:
    return row[f"{entries}/profile"].machine.alat_stats.capacity_evictions


def alat_line(name, row):
    return f"{name:<10}" + "".join(
        f"{failures(row, e):>5}/{gain(row, f'{e}/profile', f'{e}/none'):>4.1f}%"
        for e in ALAT_SIZES
    )


# -- Ablation C: gain vs the true aliasing rate -------------------------
#
# ``main(n)``: the pointer p (promoted, checked with chk.a after cascaded
# promotion) is really redirected when i % rate == 0 beyond the training
# region (train n=40 < 50), so the profile never sees the aliasing.

MISSPEC_KERNEL = """
int a; int b; int c;
int *p;
int *other;
int **q;
int **w;
int out;

int main(int n) {
    q = &p;
    p = &a;
    other = &c;
    a = 3;
    b = 9;
    int i = 0;
    while (i < n) {
        if (i > 50 && i %% %(rate)d == 0) {
            w = &p;                  // really redirects the pointer
        } else {
            w = &other;
        }
        out = out + *(*q);
        *w = &b;                     // address-ambiguous pointer store
        out = out + *(*q) %% 13;
        i = i + 1;
    }
    print(out);
    print(*p);
    return out %% 251;
}
"""

#: one kernel per rate, named by it (the table's first column)
MISSPEC_KERNELS = tuple(
    Workload(
        name=str(rate),
        source=MISSPEC_KERNEL % {"rate": rate},
        train_args=(40,),
        ref_args=(2000,),
        is_float=False,
        description=f"pointer chain really redirected every {rate} iterations",
    )
    for rate in (1000, 50, 10, 4, 2, 1)
)


def ratio(row) -> float:
    return 100.0 * row["profile"].counters.misspeculation_ratio


# -- Ablations D and E, static vs profile --------------------------------


def heuristics_line(name, row):
    p, h = gain(row), gain(row, "heuristic")
    captured = f"{100.0 * h / p:.0f}%" if p > 0.5 else "n/a"
    return f"{name:<10}{p:>12.2f}{h:>13.2f}{captured:>10}"


def solver_gain(row, solver: str) -> float:
    return gain(row, f"{solver}/profile", f"{solver}/none")


def slowdown(row) -> float:
    """Static-only cycles over profile-guided ones, in %."""
    return 100.0 * (row.cycles_static - row.cycles_profile) / row.cycles_profile


#: ``{published file stem: sweep}``
SWEEPS: dict[str, Sweep] = {
    # Paper: cycles drop 1-7%, driven by data-access cycles, which come
    # from eliminated loads (more than 5% for half of the benchmarks).
    "figure8_performance": figure(figure8_table, {
        "each_kernel_gains_plausibly": each(
            lambda r: -0.5 < r.cycle_reduction_pct < 15.0
            and r.data_access_reduction_pct >= r.cycle_reduction_pct - 1.0
        ),
        "half_lose_over_5pct_of_loads": holds(
            lambda rows: count(rows, lambda r: r.load_reduction_pct > 5.0)
            >= len(rows) // 2
        ),
        "several_in_cycle_band": holds(
            lambda rows: count(
                rows, lambda r: 1.0 <= r.cycle_reduction_pct <= 8.0
            ) >= 5
        ),
    }, files=matrix_files),
    # Paper: indirect loads dominate where hot paths chase pointers;
    # only the ALAT scheme can promote them.
    "figure9_load_types": figure(figure9_table, {
        "indirect_majority": each(
            lambda r: share(r, "indirect") >= 0.5, "ammp", "gzip", "mcf"
        ),
        "parser_substantial_indirect": each(
            lambda r: share(r, "indirect") >= 0.4, "parser"
        ),
        "scalar_benchmarks_direct": each(
            lambda r: share(r, "direct") >= 0.5,
            "vpr", "vortex", "bzip2", "twolf",
        ),
    }),
    # Paper: mis-speculation is generally tiny; gzip reaches ~5% but its
    # checks are negligible next to its loads, so the penalty is too.
    "figure10_misspeculation": figure(figure10_table, {
        "ratios_generally_small": holds(
            lambda rows: count(rows, lambda r: r.misspeculation_ratio_pct < 1.0)
            >= 6
        ),
        "gzip_is_the_outlier": each(
            lambda r: 1.0 <= r.misspeculation_ratio_pct <= 10.0
            and r.checks_per_load_pct < 25.0 and r.cycle_reduction_pct > 0,
            "gzip",
        ),
        "checks_actually_execute": holds(
            lambda rows: total(
                rows, lambda r: r.speculative.counters.check_instructions
            ) > 1000
        ),
    }),
    # Paper: promotion enlarges register frames (ammp is the standout),
    # but RSE time stays negligible and is "barely changed" elsewhere.
    "figure11_rse": figure(figure11_table, {
        "ammp_and_gzip_increase": each(
            lambda r: rse(r.speculative) >= rse(r.baseline), "ammp", "gzip"
        ),
        "ammp_is_the_standout": each(
            lambda r: rse(r.speculative) > rse(r.baseline), "ammp"
        ),
        "share_negligible": each(lambda r: r.rse_share_of_cycles_pct < 0.5),
        "most_benchmarks_unchanged": holds(
            lambda rows: count(
                rows, lambda r: rse(r.speculative) == rse(r.baseline)
            ) >= 6
        ),
    }),
    # Capacity evictions make later checks fail spuriously: the sweep
    # shows the check-failure knee and that Itanium's 32 entries suffice
    # ("requires fewer entries than the register file", section 5).
    "ablation_alat_size": Sweep(
        named("ammp", "equake", "mcf"),
        tuple(alat_instances()),
        tabulate(
            "Ablation A. ALAT capacity sweep "
            "(check failures / cycle gain % / evictions)", 78,
            f"{'benchmark':<10}" + "".join(f"{s:>11}" for s in ALAT_SIZES),
            alat_line,
        ),
        {
            "small_alat_fails_more_checks": each(
                lambda row: failures(row, 2) >= failures(row, 32)
            ),
            # 32 entries behave like 64 on these working sets
            "itanium_size_is_sufficient": each(
                lambda row: failures(row, 32)
                <= failures(row, 64) + max(5, failures(row, 64) // 5)
            ),
            "capacity_evictions_monotone": each(
                lambda row: evictions(row, 2) >= evictions(row, 64)
            ),
        },
    ),
    # The same profile-guided decisions checked by the ALAT or by
    # Nicolau-style compare-and-reload: the hardware compares addresses
    # implicitly, so the ALAT build retires fewer instructions (sec. 5).
    "ablation_softcheck": Sweep(
        named("gzip", "vpr", "parser", "vortex", "art"),
        modes(PROFILE, SpecMode.SOFTWARE),
        tabulate(
            "Ablation B. ALAT vs software checks "
            "(same profile-guided decisions)", 78,
            f"{'benchmark':<10}{'ALAT cycles':>13}{'soft cycles':>13}"
            f"{'ALAT instr':>12}{'soft instr':>12}{'ALAT adv %':>11}",
            lambda name, row: (
                f"{name:<10}{cycles(row['profile']):>13}"
                f"{cycles(row['software']):>13}"
                f"{row['profile'].counters.instructions:>12}"
                f"{row['software'].counters.instructions:>12}"
                f"{gain(row, 'profile', 'software'):>10.2f}%"
            ),
        ),
        {
            "alat_not_slower_overall": holds(
                lambda rows: total(rows, lambda r: cycles(r["profile"]))
                <= total(rows, lambda r: cycles(r["software"])) * 1.01
            ),
            # software builds may keep ld.sa control speculation, but
            # repair data speculation with compares, not ALAT checks
            "software_mode_uses_no_checks": each(
                lambda row: row["software"].counters.check_failures == 0
            ),
        },
    ),
    # A failed ld.c only costs the reload; the degradation risk lives in
    # cascaded promotion (rounds=2), where a failed chk.a pays the
    # recovery trap: "a high mis-speculation ratio can decrease the
    # benefit ... or even degrade performance" (sections 2.5 and 4).
    "ablation_misspec_rate": Sweep(
        MISSPEC_KERNELS,
        modes(NONE, PROFILE, rounds=2),
        tabulate(
            "Ablation C. Gain vs true aliasing rate (adversarial kernel)", 64,
            f"{'alias every':>12}{'mis-spec ratio %':>18}{'cycle gain %':>14}",
            lambda rate, row: f"{rate:>12}{ratio(row):>18.1f}{gain(row):>14.2f}",
        ),
        {
            "gain_decays_with_aliasing": holds(
                lambda rows: gain(rows["1000"]) > gain(rows["1"])
            ),
            "ratio_monotone": holds(
                lambda rows: ratio(rows["1000"]) <= ratio(rows["10"])
                <= ratio(rows["1"]) + 1e-9
            ),
            "rare_aliasing_still_wins": each(lambda row: gain(row) > 0, "1000"),
            # with the address changing every iteration, recovery traps
            # erode most (or all) of the speculative advantage
            "constant_aliasing_degrades": holds(
                lambda rows: gain(rows["1"]) < gain(rows["1000"]) * 0.7
            ),
        },
    ),
    # Section 3.1 allows heuristic rules in place of the profile: they
    # should capture part of its win and never corrupt results.
    "ablation_heuristics": Sweep(
        named("gzip", "vpr", "parser", "vortex", "twolf", "art"),
        modes(NONE, PROFILE, SpecMode.HEURISTIC),
        tabulate(
            "Ablation D. Profile-guided vs heuristic speculation "
            "(cycle gain %)", 64,
            f"{'benchmark':<10}{'profile %':>12}{'heuristic %':>13}"
            f"{'captured':>10}",
            heuristics_line,
        ),
        {
            "heuristics_never_catastrophic": each(
                lambda row: gain(row, "heuristic") > -3.0
            ),
            "profile_at_least_matches_heuristics_overall": holds(
                lambda rows: total(rows, gain)
                >= total(rows, lambda r: gain(r, "heuristic")) - 1.0
            ),
        },
    ),
    # A coarser static analysis (Steensgaard) leaves more for speculation
    # to win; a more precise one (Andersen) closes part of the gap.  "One
    # alternative to a more precise alias analysis is to have hardware
    # support": the total gain should not shrink with the coarser one.
    "ablation_alias_analysis": Sweep(
        named("gzip", "vpr", "parser", "vortex", "twolf"),
        sum((modes(NONE, PROFILE, prefix=f"{kind.value}/", alias_analysis=kind)
             for kind in (AliasAnalysisKind.ANDERSEN,
                          AliasAnalysisKind.STEENSGAARD)), ()),
        tabulate(
            "Ablation E. Speculative gain under different pointer analyses "
            "(cycle %)", 64,
            f"{'benchmark':<10}{'andersen %':>13}{'steensgaard %':>15}",
            lambda name, row: f"{name:<10}{solver_gain(row, 'andersen'):>13.2f}"
            f"{solver_gain(row, 'steensgaard'):>15.2f}",
        ),
        {
            "speculation_not_hurt_by_coarser_analysis": holds(
                lambda rows: total(rows, lambda r: solver_gain(r, "steensgaard"))
                >= total(rows, lambda r: solver_gain(r, "andersen")) - 1.5
            ),
        },
    ),
    # DESIGN.md §15: gate-decision agreement and Brier score of the
    # static alias estimates against the profile, and the cycle cost of
    # the static-only configuration (mcf's pointer chains pay ~5%).
    "static_vs_profile": Sweep(
        MATRIX, (),
        lambda rows: comparison_table([
            {"bench": name, "metrics": row.as_metrics()}
            for name, row in rows.items()
        ]),
        {
            "static_agrees_and_matches_output": each(
                lambda row: row.output_match
                and row.agreement >= AGREEMENT_THRESHOLD and row.brier <= 0.25
            ),
            "static_cycles_close_per_workload": each(
                lambda row: slowdown(row) <= 8.0
            ),
            "static_cycles_close_overall": holds(
                lambda rows: 100.0 * (
                    total(rows, lambda r: r.cycles_static)
                    - total(rows, lambda r: r.cycles_profile)
                ) / total(rows, lambda r: r.cycles_profile) <= 3.0
            ),
        },
        measure=lambda workload, _instances: compare_workload(workload.name),
    ),
}
