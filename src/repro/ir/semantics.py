"""Operator semantics: one callable per IR operator.

The interpreter, the simulator and constant folding all compute through
:data:`BINARY` / :data:`UNARY`.  The callables return raw results: each
caller applies its own wrap rule (:func:`wrap_int`) and re-raises a
runtime fault — an :class:`InterpError` — as its own error with the same
message.  ``&&``/``||`` evaluate both operands here; the interpreter
short-circuits them itself.
"""

from __future__ import annotations

import operator
from typing import Callable, Union

from repro.errors import InterpError
from repro.ir.expr import BinOpKind, UnOpKind

Value = Union[int, float]

_INT_MASK = (1 << 64) - 1
#: the signed 64-bit range: a result inside it needs no :func:`wrap_int`
INT_MIN, INT_MAX = -(1 << 63), (1 << 63) - 1


def wrap_int(v: int) -> int:
    """Wrap to signed 64-bit (two's complement)."""
    v &= _INT_MASK
    return v - (1 << 64) if v >= (1 << 63) else v


def int_div(a: int, b: int) -> int:
    """C-style integer division (truncates toward zero)."""
    if b == 0:
        raise InterpError("integer division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        return -q
    # only INT_MIN / -1 leaves the range
    return q if q < (1 << 63) else wrap_int(q)


def int_mod(a: int, b: int) -> int:
    """C-style remainder: ``a == int_div(a,b)*b + int_mod(a,b)``."""
    if b == 0:
        raise InterpError("integer modulo by zero")
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _div(a: Value, b: Value) -> Value:
    if isinstance(a, float) or isinstance(b, float):
        if b == 0:
            raise InterpError("float division by zero")
        return a / b
    return int_div(a, b)


def _mod(a: Value, b: Value) -> int:
    # sema rejects `%` on floats; a float reaching here is a fault
    if isinstance(a, float) or isinstance(b, float):
        raise InterpError("modulo on float operands")
    return int_mod(a, b)


BINARY: dict[BinOpKind, Callable[[Value, Value], Value]] = {
    BinOpKind.ADD: operator.add,
    BinOpKind.SUB: operator.sub,
    BinOpKind.MUL: operator.mul,
    BinOpKind.DIV: _div,
    BinOpKind.MOD: _mod,
    BinOpKind.AND: lambda a, b: 1 if a and b else 0,
    BinOpKind.OR: lambda a, b: 1 if a or b else 0,
    BinOpKind.EQ: lambda a, b: 1 if a == b else 0,
    BinOpKind.NE: lambda a, b: 1 if a != b else 0,
    BinOpKind.LT: lambda a, b: 1 if a < b else 0,
    BinOpKind.LE: lambda a, b: 1 if a <= b else 0,
    BinOpKind.GT: lambda a, b: 1 if a > b else 0,
    BinOpKind.GE: lambda a, b: 1 if a >= b else 0,
}

UNARY: dict[UnOpKind, Callable[[Value], Value]] = {
    UnOpKind.NEG: operator.neg,
    UnOpKind.NOT: lambda v: 0 if v else 1,
    UnOpKind.I2F: float,
    UnOpKind.F2I: int,
}
