"""The repository benchmark: three workloads over the public ``repro``
API, timed end to end and, in a separate traced run, per module.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root;
``BENCHMARK.json`` lists the workloads and metrics, and
``perfbench/METRICS.md`` says which layer each metric measures and what
it should move.
"""
