"""The interpreter, the simulator and constant folding agree on every
operator at the edges of the value range: they all compute through
:mod:`repro.ir.semantics`, each with its own wrap rule and error class.
A runtime fault must fault in both executors with the same message and
must never be folded away."""

import pytest

from repro.errors import InterpError, MachineError
from repro.ir.expr import BinOp, BinOpKind, ConstFloat, ConstInt, UnOp, UnOpKind
from repro.ir.interp import evaluate
from repro.machine.cpu import Simulator
from repro.opt.constfold import fold_expr
from repro.target.isa import Alu, Lea, MFunction, MovI, MProgram, Region, RetF, St, Un

VALUES = {
    "int": [0, 1, -1, 2**63 - 1, -(2**63)],
    "float": [0.0, 1.0, -1.0, float(2**63 - 1), float(-(2**63))],
}
OUT = 0x1000


def _const(v):
    return ConstFloat(v) if isinstance(v, float) else ConstInt(v)


def _interpret(expr):
    try:
        return evaluate(expr)
    except InterpError as exc:
        return ("fault", str(exc))


def _simulate(instrs):
    """Run ``instrs`` (result in r2) and return what they stored."""
    mf = MFunction("main")
    for instr in [*instrs, Lea(9, Region.GLOBAL, OUT), St(9, 2), RetF()]:
        mf.emit(instr)
    program = MProgram()
    program.add(mf)
    sim = Simulator(program)
    try:
        sim.run([])
    except MachineError as exc:
        return ("fault", str(exc))
    return sim.mem[OUT]


def _fold(expr):
    folded = fold_expr(expr)
    return folded.value if isinstance(folded, (ConstInt, ConstFloat)) else None


def _same(a, b):
    return type(a) is type(b) and repr(a) == repr(b)


def _assert_agree(expr, sim_runs, foldable=True):
    ref = _interpret(expr)
    for instrs in sim_runs:
        got = _simulate(instrs)
        assert _same(got, ref), f"simulator {got!r} != interpreter {ref!r}"
    folded = _fold(expr)
    if isinstance(ref, tuple) or not foldable:
        assert folded is None, f"folded {folded!r} where the interpreter gave {ref!r}"
    else:
        assert _same(folded, ref), f"constfold {folded!r} != interpreter {ref!r}"


@pytest.mark.parametrize("lhs_index", range(5))
@pytest.mark.parametrize("kind", ["int", "float"])
@pytest.mark.parametrize("op", list(BinOpKind), ids=lambda op: op.name)
def test_binary_operators_agree(op, kind, lhs_index):
    a = VALUES[kind][lhs_index]
    is_float = kind == "float"
    for b in VALUES[kind]:
        expr = BinOp(op, _const(a), _const(b))
        register_form = [MovI(0, a), MovI(1, b), Alu(op, 2, 0, ("r", 1), is_float)]
        immediate_form = [MovI(0, a), Alu(op, 2, 0, b, is_float)]
        # &&/|| short-circuit in the interpreter and are never folded
        _assert_agree(expr, [register_form, immediate_form], not op.is_logical)


@pytest.mark.parametrize("value_index", range(5))
@pytest.mark.parametrize("kind", ["int", "float"])
@pytest.mark.parametrize("op", list(UnOpKind), ids=lambda op: op.name)
def test_unary_operators_agree(op, kind, value_index):
    v = VALUES[kind][value_index]
    _assert_agree(UnOp(op, _const(v)), [[MovI(0, v), Un(op, 2, 0)]])
