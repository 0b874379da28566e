"""``python -m repro.workloads`` — run the full benchmark matrix.

Failing benchmarks are reported at the end instead of aborting the
sweep; the exit status is 1 when any benchmark failed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.workloads.report import host_metrics_as_dict, matrix_table
from repro.workloads.runner import WorkloadFailure, run_all_benchmarks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Compile, profile and simulate every benchmark "
        "(baseline vs speculative), tolerating individual failures.",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="write per-mode JSONL event traces under this directory",
    )
    parser.add_argument(
        "--report-json",
        metavar="FILE",
        default=None,
        help="write per-benchmark counters + host metrics as JSON "
        "(the shape python -m repro.obs.regress gates)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="ingest every measurement into the experiment results "
        "store (benchmarks/store); runs are site-profiled so records "
        "carry per-ALAT-site stats",
    )
    parser.add_argument(
        "--alias-prob",
        choices=["profile", "static", "hybrid"],
        default="profile",
        help="alias-probability source for the speculative mode: "
        "'static' runs the no-profile configuration (heuristic "
        "speculation gated by repro.analysis.probalias), 'hybrid' "
        "backfills unprofiled stores with static estimates",
    )
    parser.add_argument(
        "--fuel",
        type=int,
        default=None,
        help="interpreter fuel per workload run (default "
        "repro.workloads.runner.DEFAULT_INTERP_FUEL); exhaustion is a "
        "structured timeout failure, not a hang",
    )
    args = parser.parse_args(argv)

    spec_options = None
    if args.alias_prob == "static":
        from repro.workloads.runner import STATIC_SPECULATIVE

        spec_options = STATIC_SPECULATIVE()
    elif args.alias_prob == "hybrid":
        from repro.pipeline import AliasProbSource
        from repro.workloads.runner import SPECULATIVE

        spec_options = SPECULATIVE()
        spec_options.alias_prob = AliasProbSource.HYBRID

    failures: list[WorkloadFailure] = []
    results = run_all_benchmarks(
        trace_dir=args.trace_dir,
        failures=failures,
        profile_sites=bool(args.store),
        spec_options=spec_options,
        fuel=args.fuel,
    )
    if results:
        print(matrix_table(results))
        if args.report_json:
            with open(args.report_json, "w", encoding="utf-8") as fh:
                json.dump(host_metrics_as_dict(results), fh, indent=2)
                fh.write("\n")
        if args.store:
            from repro.obs.store import ResultsStore
            from repro.workloads.runner import ingest_results

            run_ids = ingest_results(
                ResultsStore(args.store), results, suite="matrix"
            )
            print(
                f"store: ingested {len(run_ids)} run record(s) into "
                f"{args.store}",
                file=sys.stderr,
            )
    for failure in failures:
        print(f"FAILED {failure.format()}", file=sys.stderr)
    if failures:
        print(
            f"{len(failures)} benchmark(s) failed, "
            f"{len(results)} succeeded",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
