"""Run a workload once per seed and report each end-to-end metric's
median and quartile spread (as a share of the median) against its bound.

    python3 perfbench/spread.py --workload alat-sweep --seeds 1-10

Runs are sequential, one process at a time.  Exits 1 when a run fails
or a spread (``setup_s`` excepted) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import relative_spread  # noqa: E402


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in seeds_of(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                  f"{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={values[name][-1]:.4g}" for name in values), flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        if len(vals) < 2:
            continue
        spread = relative_spread(vals)
        verdict = "ok" if spread <= m["bound"] else "OVER BOUND"
        if spread > m["bound"] and m["name"] != "setup_s":
            ok = False
        print(f"{m['name']:22s} median {statistics.median(vals):12.6g} "
              f"spread {spread:.4f} bound {m['bound']} "
              f"(third {m['bound'] / 3:.4f}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
