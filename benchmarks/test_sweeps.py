"""Regenerate every table in ``benchmarks/results/`` and check its shape.

Each :data:`sweeps.SWEEPS` entry is measured once per session; the
matrix also writes ``results/metrics.json``, which
``python -m repro.obs.regress --metrics benchmarks/results/metrics.json
--history benchmarks/history`` gates.
"""

from __future__ import annotations

import pathlib

import pytest

from sweeps import SWEEPS, rows

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.mark.parametrize("name", list(SWEEPS))
def test_publish(name):
    sweep = SWEEPS[name]
    measured = rows(sweep)
    # every target measured (and every instance matched the oracle)
    assert list(measured) == [w.name for w in sweep.targets]
    files = {f"{name}.txt": sweep.render(measured) + "\n"}
    if sweep.files is not None:
        files.update(sweep.files(measured))
    RESULTS_DIR.mkdir(exist_ok=True)
    for file_name, text in files.items():
        (RESULTS_DIR / file_name).write_text(text)


@pytest.mark.parametrize("name, check", [
    pytest.param(name, check, id=f"{name}-{check}")
    for name, sweep in SWEEPS.items()
    for check in sweep.checks
])
def test_shape(name, check):
    SWEEPS[name].checks[check](rows(SWEEPS[name]))
