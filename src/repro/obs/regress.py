"""Benchmark history + regression gate.

Every gated run appends one record per benchmark to the history and
compares the fresh numbers against the recorded baseline.  A
counter that moved past its threshold raises a flag; cycle-count
regressions are *failures* (CI gates on them), everything else is a
warning.

**Baseline windows** (deliberately different per metric family — see
DESIGN §13/§14):

* simulated counters gate against the **latest record alone**
  (:data:`COUNTER_BASELINE_WINDOW` = 1) — the simulator is
  deterministic, so the newest accepted record *is* the truth;
* host metrics gate against the **median of the last
  ≤**:data:`HOST_BASELINE_WINDOW` records — host wall time is noisy,
  and a median over a short window keeps one slow CI neighbour from
  poisoning the baseline.

**History.**  One ``<bench>.jsonl`` per benchmark under
``benchmarks/history/``, one record per gated sweep.  The committed
files are the baseline CI gates against.

**Retention.**  The history grows by one record per gated sweep and is
never rewritten by the gate itself; ``--prune N`` (or
:func:`prune`) keeps the newest N records per benchmark — anything
older than the largest baseline window plus audit margin is dead
weight.  The recommended policy is ``N >= 10`` (CI uses the default of
keeping everything; prune in a scheduled job, not per run).

A benchmark with no history yet cannot be gated.  The CLI treats that
as an error (exit :data:`EXIT_NO_HISTORY`) so a misconfigured history
directory cannot silently pass CI; pass ``--allow-seed`` to record the
first run instead (deliberate history initialisation).

Also usable as a CLI against the benchmark harness's ``metrics.json``::

    python -m repro.obs.regress \
        --metrics benchmarks/results/metrics.json \
        --history benchmarks/history [--threshold 0.10] [--no-update] \
        [--warn-only] [--allow-seed] [--prune N]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Optional

#: counters compared per mode: (name, severity-if-regressed).  Higher is
#: worse for all of them; ``fail`` is what CI gates on.
TRACKED_COUNTERS: tuple[tuple[str, str], ...] = (
    ("cpu_cycles", "fail"),
    ("data_access_cycles", "warn"),
    ("retired_loads", "warn"),
    ("check_failures", "warn"),
    ("recovery_cycles", "warn"),
)

#: host-side metrics compared per mode:
#: ``(name, direction, warn_frac, fail_frac)``.  ``direction`` is +1
#: when higher is worse (wall time) and -1 when lower is worse
#: (throughput).  Unlike the simulated counters — which are
#: deterministic, so 10% means something — host wall time is noisy
#: (CI neighbours, thermal throttling), so the bands are wide and
#: baselines are the **median of the last ≤3** history records rather
#: than the latest alone: crossing ``warn_frac`` warns, crossing
#: ``fail_frac`` fails the gate.
HOST_METRICS: tuple[tuple[str, int, float, float], ...] = (
    ("wall_ms", +1, 0.50, 2.00),
    ("sim_steps_per_sec", -1, 0.33, 0.67),
)

#: how many trailing history records feed the host-metric median
HOST_BASELINE_WINDOW = 3

#: how many trailing history records feed the *counter* baseline.
#: Kept at 1 on purpose, and asymmetric with HOST_BASELINE_WINDOW:
#: simulated counters are deterministic, so the latest accepted record
#: is exact and a median would only dilute a real regression that
#: slipped past one gate; host metrics are noisy, so they median over
#: the wider window above.  Widen this only if the simulator ever
#: becomes nondeterministic.
COUNTER_BASELINE_WINDOW = 1

DEFAULT_THRESHOLD = 0.10

#: CLI exit code when a benchmark has no history to gate against and
#: seeding was not explicitly allowed.  Distinct from 1 (regression) so
#: CI can tell "got slower" from "nothing to compare against".
EXIT_NO_HISTORY = 3


@dataclass
class Flag:
    """One counter that regressed past the threshold."""

    bench: str
    mode: str
    counter: str
    previous: float
    current: float
    severity: str  # "fail" | "warn"

    @property
    def pct(self) -> float:
        return 100.0 * (self.current - self.previous) / self.previous

    def __str__(self) -> str:
        tag = "REGRESSION" if self.severity == "fail" else "warning"
        return (
            f"{tag}: {self.bench}/{self.mode} {self.counter} "
            f"{self.previous} -> {self.current} ({self.pct:+.1f}%)"
        )


# -- history files ------------------------------------------------------


def history_path(history_dir: str, bench: str) -> str:
    return os.path.join(history_dir, f"{bench}.jsonl")


def load_history(history_dir: str, bench: str) -> list[dict]:
    path = history_path(history_dir, bench)
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def latest_record(history_dir: str, bench: str) -> Optional[dict]:
    history = load_history(history_dir, bench)
    return history[-1] if history else None


def append_record(history_dir: str, record: dict) -> None:
    os.makedirs(history_dir, exist_ok=True)
    with open(history_path(history_dir, record["bench"]), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def prune(history_dir: str, keep: int) -> dict[str, int]:
    """Keep the newest ``keep`` records per benchmark; returns
    ``{bench: removed}``.  Files are rewritten via a temp file + atomic
    rename so a crash mid-prune cannot lose history."""
    if keep < 1:
        raise ValueError(f"prune keep must be >= 1, got {keep}")
    removed: dict[str, int] = {}
    if not os.path.isdir(history_dir):
        return removed
    for name in sorted(os.listdir(history_dir)):
        if not name.endswith(".jsonl"):
            continue
        bench = name[: -len(".jsonl")]
        history = load_history(history_dir, bench)
        if len(history) <= keep:
            continue
        path = history_path(history_dir, bench)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in history[-keep:]:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        removed[bench] = len(history) - keep
    return removed


def make_record(
    bench: str,
    per_mode_counters: dict[str, dict],
    per_mode_host: Optional[dict[str, dict]] = None,
) -> dict:
    """One history record: the tracked counter subset per mode, plus
    (when supplied) the tracked host metrics under a ``host`` key."""
    tracked = [name for name, _sev in TRACKED_COUNTERS]
    host_tracked = [name for name, _d, _w, _f in HOST_METRICS]
    modes: dict[str, dict] = {
        mode: {k: counters.get(k, 0) for k in tracked}
        for mode, counters in per_mode_counters.items()
    }
    for mode, host in (per_mode_host or {}).items():
        if not host:
            continue
        subset = {k: host[k] for k in host_tracked if k in host}
        if subset and mode in modes:
            modes[mode]["host"] = subset
    return {
        "bench": bench,
        "timestamp": round(time.time(), 3),
        "modes": modes,
    }


# -- comparison ---------------------------------------------------------


def compare_records(
    previous: dict, current: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[Flag]:
    flags: list[Flag] = []
    for mode, cur_counters in current.get("modes", {}).items():
        prev_counters = previous.get("modes", {}).get(mode)
        if prev_counters is None:
            continue
        for counter, severity in TRACKED_COUNTERS:
            prev = prev_counters.get(counter)
            cur = cur_counters.get(counter)
            if prev is None or cur is None or prev <= 0:
                continue
            if cur > prev * (1.0 + threshold):
                flags.append(
                    Flag(current["bench"], mode, counter, prev, cur, severity)
                )
    return flags


def compare_host_metrics(history: list[dict], current: dict) -> list[Flag]:
    """Flag host-metric regressions against the median of the last
    ≤``HOST_BASELINE_WINDOW`` history records (per mode/metric).

    Direction-aware: ``wall_ms`` regresses upward, ``sim_steps_per_sec``
    downward.  Inside the warn band nothing is flagged; past it a
    warning; past the fail band a gate failure.  Records without host
    data (pre-telemetry history) simply contribute nothing.
    """
    flags: list[Flag] = []
    window = history[-HOST_BASELINE_WINDOW:]
    for mode, cur_counters in current.get("modes", {}).items():
        cur_host = cur_counters.get("host")
        if not cur_host:
            continue
        for metric, direction, warn_frac, fail_frac in HOST_METRICS:
            cur = cur_host.get(metric)
            if cur is None:
                continue
            samples = [
                rec["modes"][mode]["host"][metric]
                for rec in window
                if metric in rec.get("modes", {}).get(mode, {}).get("host", {})
            ]
            if not samples:
                continue
            baseline = statistics.median(samples)
            if baseline <= 0:
                continue
            frac = direction * (cur - baseline) / baseline
            if frac <= warn_frac:
                continue
            severity = "fail" if frac > fail_frac else "warn"
            flags.append(
                Flag(
                    current["bench"], mode, metric, baseline, cur, severity
                )
            )
    return flags


@dataclass
class GateReport:
    """Outcome of one regression-gate pass."""

    flags: list[Flag]
    seeded: list[str]  # benchmarks with no prior history (first run)
    checked: list[str]

    @property
    def failed(self) -> bool:
        return any(f.severity == "fail" for f in self.flags)

    def format(self) -> str:
        lines = [
            f"regression gate: {len(self.checked)} benchmark(s) checked, "
            f"{len(self.seeded)} first-run, {len(self.flags)} flag(s)"
        ]
        for bench in self.seeded:
            lines.append(f"first run: {bench} — no history to gate against")
        for flag in self.flags:
            lines.append(str(flag))
        if not self.flags and self.checked:
            lines.append("no counters regressed past threshold")
        return "\n".join(lines)


def gate_records(
    history_dir: str,
    records: dict[str, dict],
    threshold: float = DEFAULT_THRESHOLD,
    update: bool = True,
    seed: bool = True,
) -> GateReport:
    """Gate a set of fresh per-benchmark records against history.

    Benchmarks with history in ``history_dir`` are compared — counters against the latest
    record (window of :data:`COUNTER_BASELINE_WINDOW` = 1, exact
    because simulated), host metrics against the median of the last
    ≤:data:`HOST_BASELINE_WINDOW` records (noisy) — and then the fresh
    record is appended (unless ``update`` is off — e.g. a CI dry run).
    First-run benchmarks are never flagged; with ``seed`` they are
    recorded as the initial history, without it they are only reported
    in ``seeded`` so the caller can refuse to gate them.
    """
    flags: list[Flag] = []
    seeded: list[str] = []
    checked: list[str] = []
    for bench, record in sorted(records.items()):
        history = load_history(history_dir, bench)
        if not history:
            seeded.append(bench)
            if update and seed:
                append_record(history_dir, record)
        else:
            checked.append(bench)
            baseline = history[-COUNTER_BASELINE_WINDOW]
            flags.extend(compare_records(baseline, record, threshold))
            flags.extend(compare_host_metrics(history, record))
            if update:
                append_record(history_dir, record)
    return GateReport(flags, seeded, checked)


def gate_metrics(
    history_dir: str,
    metrics: dict,
    threshold: float = DEFAULT_THRESHOLD,
    update: bool = True,
    seed: bool = True,
) -> GateReport:
    """Gate the benchmark harness's ``metrics.json`` shape:
    ``{bench: {mode: {"counters": {...}, "host": {...}, ...}}}``."""
    records = {
        bench: make_record(
            bench,
            {
                mode: payload.get("counters", {})
                for mode, payload in per_mode.items()
            },
            {
                mode: payload.get("host", {})
                for mode, payload in per_mode.items()
            },
        )
        for bench, per_mode in metrics.items()
    }
    return gate_records(history_dir, records, threshold, update, seed)


# -- CLI ----------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Append benchmark metrics to the history and flag "
        "counter regressions.",
    )
    parser.add_argument(
        "--metrics",
        required=True,
        help="metrics JSON from the benchmark harness "
        "(benchmarks/results/metrics.json)",
    )
    parser.add_argument(
        "--history",
        required=True,
        help="history directory (benchmarks/history)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional regression threshold (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--no-update",
        action="store_true",
        help="compare only; do not append to the history",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 on them",
    )
    parser.add_argument(
        "--allow-seed",
        action="store_true",
        help="record benchmarks that have no history yet as the initial "
        "baseline instead of failing with exit code "
        f"{EXIT_NO_HISTORY}",
    )
    parser.add_argument(
        "--prune",
        type=int,
        metavar="N",
        help="after gating, keep only the newest N history records per "
        "benchmark (retention; see module docstring)",
    )
    args = parser.parse_args(argv)

    with open(args.metrics, "r", encoding="utf-8") as fh:
        metrics = json.load(fh)
    report = gate_metrics(
        args.history, metrics, threshold=args.threshold,
        update=not args.no_update, seed=args.allow_seed,
    )
    print(report.format())
    if args.prune:
        removed = prune(args.history, args.prune)
        total = sum(removed.values())
        print(
            f"prune: removed {total} record(s) beyond the newest "
            f"{args.prune} per benchmark"
            + (
                " (" + ", ".join(
                    f"{b}: {n}" for b, n in sorted(removed.items())
                ) + ")"
                if removed else ""
            )
        )
    if report.seeded and not args.allow_seed:
        print(
            "error: no benchmark history for: "
            + ", ".join(report.seeded)
            + "\n  nothing to gate against in "
            f"'{args.history}' — if this is a deliberate "
            "first run, pass --allow-seed to record the baseline; "
            "otherwise check the --history path.",
            file=sys.stderr,
        )
        return EXIT_NO_HISTORY
    if report.failed and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
