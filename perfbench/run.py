"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-matrix --seed 0 --seconds 15 --trace 0

Untraced (``--trace 0``): set up, then run passes over the workload's
seeded inputs until ``--seconds`` have passed (at least one), and report
the end-to-end metrics, with every timing scaled to a reference host
speed by probes taken between calls (see ``perfbench/host.py``).
Traced (``--trace 1``): one untraced pass, one pass with spans around
every call into a layer (written to ``perfbench/out/`` as Chrome trace
JSON), and one pass with the simulator's host profiler; report the
per-layer metrics.  Every simulated number must repeat exactly in every
pass of a run.  The last line of output is one JSON object; the exit
code is 1 when any output mismatched the oracle or a simulated number
failed to repeat.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: set-up (input generation + warm-up) is repeated and its median kept
SETUP_REPEATS = 3
LAZY_IMPORTS = (
    "repro.analysis.alatpressure", "repro.analysis.probalias", "repro.opt",
    "repro.pre.completers", "repro.pre.gate", "repro.speclint",
)
#: passes per untraced run, at least, whatever ``--seconds`` says.  One:
#: a paper-matrix pass alone outlasts ``--seconds`` and a second would
#: double the run; traced runs always make three, so the determinism
#: guard still compares passes of every workload
MIN_PASSES = 1
TRACE_DIR = ROOT / "perfbench" / "out"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int):
    """Set up ``SETUP_REPEATS`` times; return the units and ``setup_s``."""
    from perfbench import workloads
    from perfbench.host import PROBE_REF_S, HostSpeed
    from perfbench.spans import NULL_RECORDER
    from statistics import median

    # The pipeline imports these on first use; importing them here counts
    # them with the other imports instead of in the first set-up only.
    for module in LAZY_IMPORTS:
        importlib.import_module(module)
    import_s = time.perf_counter() - _T_START
    speed = HostSpeed()
    speed.probe()
    warm_up = workloads.make_units("generated-compile", 0)[:1]
    for _ in range(SETUP_REPEATS):
        units = workloads.make_units(workload, seed)
        workloads.run_pass(warm_up, NULL_RECORDER)
        speed.probe()
    print(f"  setup, host seconds: imports {import_s:.4f} + set-up "
          + " ".join(f"{secs:.4f}" for secs in speed.segments))
    return units, import_s * PROBE_REF_S / speed.samples[0] + median(
        [secs * speed.scale_of(i) for i, secs in enumerate(speed.segments)])


def untraced_run(units, seconds: float, setup_s: float):
    """Passes with the host probed; every timing in reference seconds."""
    from perfbench import report, workloads
    from perfbench.host import HostSpeed
    from perfbench.stats import samples_needed

    passes, speeds, walls = [], [], []
    t_run = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_run < seconds:
        speeds.append(HostSpeed())
        passes.append(workloads.run_pass(units, speeds[-1]))
        walls.append(speeds[-1].close())
    compile_ms = [ms * speed.scale_of(seg) for p, speed in zip(passes, speeds)
                  for ms, seg in p.compile_ms]
    from_passes = len(compile_ms)
    missing = samples_needed(90) - from_passes
    if missing > 0:
        # separate calls, each between two probes of its own
        speed = HostSpeed(every_s=0.0)
        extra = workloads.compile_samples(units, missing, passes[0].records, speed)
        speed.close()
        compile_ms += [ms * speed.scale_of(seg) for ms, seg in extra]
    print("  pass wall_s, host seconds: " + " ".join(f"{p.wall_s:.4f}" for p in passes))
    print("  pass wall_s, reference seconds: " + " ".join(f"{w:.4f}" for w in walls)
          + f" ({sum(len(speed.samples) for speed in speeds)} host probes)")
    print(f"  compile_ms samples: {len(compile_ms)} ({from_passes} from the passes)")
    metrics = report.end_to_end(units, passes[0].records, walls, compile_ms, setup_s)
    return passes, metrics


def traced_run(units, workload: str, seed: int, calib_s: float):
    """An untraced pass, a pass with spans, a pass with the host profiler."""
    from repro.obs.telemetry import HostProfiler

    from perfbench import report, workloads
    from perfbench.spans import (
        NULL_RECORDER, SpanRecorder, layer_self_times, write_chrome_trace,
    )

    untraced = workloads.run_pass(units, NULL_RECORDER)
    recorder = SpanRecorder()
    traced = workloads.run_pass(units, recorder)
    profiler = HostProfiler()
    profiled = workloads.run_pass(units, NULL_RECORDER, host_profiler=profiler)
    passes = [untraced, traced, profiled]
    print("  pass wall_s, host seconds (untraced, traced, host-profiled): "
          + " ".join(f"{p.wall_s:.4f}" for p in passes))
    shares = sorted(layer_self_times(recorder.spans).items(), key=lambda kv: -kv[1])
    print("  self time by layer, share of trace.wall_s: " + ", ".join(
        f"{layer} {100 * secs / traced.wall_s:.1f}%" for layer, secs in shares))
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.trace.json"
    write_chrome_trace(recorder.spans, str(path))
    print(f"  spans: {len(recorder.spans)} -> {path.relative_to(ROOT)}")
    metrics = report.per_layer(traced, recorder.spans, untraced.wall_s,
                               profiler, calib_s)
    return passes, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units_of = {m["name"]: m["unit"] for m in declared[group]}

    from perfbench import report, workloads
    from perfbench.host import calibrate
    from perfbench.stats import check_metric_name

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    units, setup_s = measure_setup(args.workload, args.seed)
    calib_s = calibrate()
    print(f"  host.calib_s: {calib_s:.6g} s; {len(units)} units")
    if args.trace:
        passes, metrics = traced_run(units, args.workload, args.seed, calib_s)
    else:
        passes, metrics = untraced_run(units, args.seconds, setup_s)
    if set(metrics) != set(units_of):
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json {group}: "
            f"{sorted(set(metrics) ^ set(units_of))}"
        )

    problems = report.determinism_problems(passes)
    if args.workload == "alat-sweep":
        problems += workloads.sweep_violations(passes[0].records)
    attempted, failed, kinds = report.fail_summary(passes)
    correct = not problems and kinds["mismatch"] == 0

    for name in units_of:
        print(f"  {check_metric_name(name):28s} {metrics[name]:>16.6g} {units_of[name]}")
    print(f"  fail_ratio: {failed}/{attempted} = "
          f"{failed / attempted if attempted else 0.0:.6g} ratio "
          + " ".join(f"{k}={v}" for k, v in kinds.items()))
    for f in [f for p in passes for f in p.failures][:10]:
        print(f"  FAILED {f.job}/{f.mode} [{f.kind}] {f.detail[:200]}")
    for problem in problems[:10]:
        print(f"  CHECK FAILED {problem}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units_of[name]}
                    for name in units_of},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
