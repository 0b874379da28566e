"""Compiler-output golden: digests of the IR and assembly the pipeline
emits.

``tests/golden/compile_output.json`` holds the sha256 of the
``format_module`` IR dump and of the ``format_program`` assembly of the
ten kernels and the first seed-0 generated programs, each under the
baseline, speculative and static-speculative options.  A change that
only makes the compiler faster must keep every digest identical; the
counter golden (``sim_counters.json``) would miss a change to code that
happens to simulate the same.

Virtual-variable names come from a process-wide id counter, so the IR
dump is hashed after renaming them ``v1``, ``v2``, ... in order of
first appearance.  The assembly names no virtual variable.

Regenerate (only for a deliberate change to compiler output):

    PYTHONPATH=src python tests/test_compile_output.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

from repro.chaos.generator import generate_program
from repro.ir.printer import format_module
from repro.ir.symbols import VirtualVariable
from repro.pipeline import compile_source
from repro.target.asmprinter import format_program
from repro.workloads.programs import BENCHMARKS
from repro.workloads.runner import BASELINE, SPECULATIVE, STATIC_SPECULATIVE

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "compile_output.json")

MODES = {
    "baseline": BASELINE,
    "speculative": SPECULATIVE,
    "static": STATIC_SPECULATIVE,
}
#: the first generated programs of seed 0 (perfbench's generated-compile
#: corpus starts with the same ones)
GENERATED = 40


def canonical_ir(module) -> str:
    """The IR dump with virtual variables renamed in order of first
    appearance (renames the module's virtual variables in place)."""
    names: dict[int, str] = {}
    for fn in module.iter_functions():
        for block in fn.blocks:
            for stmt in block.stmts:
                for op in stmt.mu_list + stmt.chi_list:
                    vv = op.var
                    if isinstance(vv, VirtualVariable) and vv.id not in names:
                        names[vv.id] = f"v{len(names) + 1}"
                        vv.name = names[vv.id]
    return format_module(module)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sources():
    for name, w in BENCHMARKS.items():
        yield f"kernel/{name}", w.source, w.train_args
    rng = random.Random(0)
    for i in range(GENERATED):
        g = generate_program(rng, i)
        yield f"generated/{g.name}", g.source, g.train_args


def collect() -> dict:
    runs: dict[str, dict] = {}
    for key, source, train_args in _sources():
        for mode, make in MODES.items():
            out = compile_source(source, make(), train_args=list(train_args))
            runs[f"{key}/{mode}"] = {
                "asm": _digest(format_program(out.program)),
                "ir": _digest(canonical_ir(out.module)),
            }
    return runs


def render(runs: dict) -> str:
    return json.dumps(runs, indent=1, sort_keys=True) + "\n"


def test_compile_output_matches_golden():
    runs = collect()
    with open(GOLDEN) as fh:
        text = fh.read()
    golden = json.loads(text)
    assert sorted(runs) == sorted(golden)
    for key in golden:
        assert runs[key] == golden[key], f"compiler output drifted: {key}"
    assert render(runs) == text


def test_canonical_ir_is_reproducible_in_one_process():
    w = BENCHMARKS["ammp"]
    dumps = [
        canonical_ir(
            compile_source(w.source, SPECULATIVE(),
                           train_args=list(w.train_args)).module
        )
        for _ in range(2)
    ]
    assert dumps[0] == dumps[1]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    with open(GOLDEN, "w") as fh:
        fh.write(render(collect()))
