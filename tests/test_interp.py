"""Interpreter semantics: the reference oracle must implement C-like
semantics precisely (wrapping, truncating division, zero init, heap)."""

import pytest

from repro.errors import InterpError, InterpLimitExceeded
from repro.ir.expr import ConstFloat, ConstInt, Load, VarRead
from repro.ir.function import Function
from repro.ir.interp import format_value, run_module
from repro.ir.module import Module
from repro.ir.semantics import int_div, int_mod, wrap_int
from repro.ir.stmt import Alloc, Assign, Call, EvalStmt, Return, SpecFlag, Store
from repro.ir.symbols import StorageClass, Variable
from repro.ir.types import INT, pointer_to
from repro.minic import compile_to_ir


def run(src, args=None):
    return run_module(compile_to_ir(src), args or [])


def out(src, args=None):
    return run(src, args).output


# -- arithmetic helpers --------------------------------------------------


def test_wrap_int_positive_overflow():
    assert wrap_int(2**63) == -(2**63)


def test_wrap_int_negative_overflow():
    assert wrap_int(-(2**63) - 1) == 2**63 - 1


def test_wrap_int_identity():
    assert wrap_int(42) == 42
    assert wrap_int(-42) == -42


@pytest.mark.parametrize(
    "a,b,q,r",
    [
        (7, 2, 3, 1),
        (-7, 2, -3, -1),
        (7, -2, -3, 1),
        (-7, -2, 3, -1),
    ],
)
def test_c_division_truncates_toward_zero(a, b, q, r):
    assert int_div(a, b) == q
    assert int_mod(a, b) == r
    assert q * b + r == a


def test_division_by_zero_raises():
    with pytest.raises(InterpError):
        int_div(1, 0)
    with pytest.raises(InterpError):
        int_mod(1, 0)


def test_format_value_int_and_float():
    assert format_value(42) == "42"
    assert format_value(1.5) == "1.5"
    assert format_value(1 / 3) == "0.333333"


# -- program semantics ----------------------------------------------------


def test_zero_initialisation_of_locals_and_globals():
    assert out("int g; int main() { int x; print(g); print(x); return 0; }") == ["0", "0"]


def test_global_initializers():
    assert out("int g = 12; float h = 2.5; int main() { print(g); print(h); return 0; }") == ["12", "2.5"]


def test_arguments_reach_main():
    assert run("int main(int n) { return n * 2; }", [21]).exit_value == 42


def test_recursion():
    src = """
    int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
    int main() { return fib(10); }
    """
    assert run(src).exit_value == 55


def test_mutual_recursion():
    src = """
    int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
    int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
    int main() { print(is_even(10)); print(is_odd(7)); return 0; }
    """
    assert out(src) == ["1", "1"]


def test_locals_fresh_per_activation():
    src = """
    int probe(int depth) {
        int local;
        if (depth > 0) { int ignored = probe(depth - 1); }
        local = local + depth;
        return local;
    }
    int main() { return probe(3); }
    """
    # local is zero-initialised per frame, so each returns its own depth
    assert run(src).exit_value == 3


def test_heap_allocation_zeroed_and_disjoint():
    src = """
    int main() {
        int *a = alloc(int, 4);
        int *b = alloc(int, 4);
        a[0] = 11;
        b[0] = 22;
        print(a[0]); print(b[0]); print(a[1]);
        return 0;
    }
    """
    assert out(src) == ["11", "22", "0"]


def test_struct_through_heap():
    src = """
    struct pair { int a; float b; };
    int main() {
        struct pair *p = alloc(struct pair, 2);
        p[1].a = 5;
        p[1].b = 0.5;
        print(p[1].a); print(p[1].b); print(p[0].a);
        return 0;
    }
    """
    assert out(src) == ["5", "0.5", "0"]


def test_pointer_chain():
    src = """
    int main() {
        int x = 9;
        int *p = &x;
        int **q = &p;
        **q = **q + 1;
        print(x);
        return 0;
    }
    """
    assert out(src) == ["10"]


def test_null_deref_faults():
    with pytest.raises(InterpError):
        run("int main() { int *p = 0; return *p; }")


def test_short_circuit_prevents_null_deref():
    src = """
    int main() {
        int *p = 0;
        if (p != 0 && *p > 0) { print(1); } else { print(2); }
        return 0;
    }
    """
    assert out(src) == ["2"]


def test_short_circuit_or():
    src = """
    int count;
    int bump() { count = count + 1; return 1; }
    int main() { int r = bump() || bump(); print(count); return r; }
    """
    assert out(src) == ["1"]


def test_int_float_mixing():
    src = """
    int main() {
        float f = 3;
        int i = (int)(f / 2);
        print(f / 2); print(i);
        return 0;
    }
    """
    assert out(src) == ["1.5", "1"]


def test_signed_wraparound_in_program():
    src = """
    int main() {
        int big = 9223372036854775807;
        print(big + 1);
        return 0;
    }
    """
    assert out(src) == [str(-(2**63))]


def test_step_limit():
    src = "int main() { while (1) { } return 0; }"
    with pytest.raises(InterpLimitExceeded):
        run_module(compile_to_ir(src), [], max_steps=1000)


def test_for_break_continue():
    src = """
    int main() {
        int s = 0;
        for (int i = 0; i < 10; i += 1) {
            if (i == 3) { continue; }
            if (i == 7) { break; }
            s += i;
        }
        return s;
    }
    """
    assert run(src).exit_value == 0 + 1 + 2 + 4 + 5 + 6


def test_array_in_struct():
    src = """
    struct row { int cells[3]; int tag; };
    int main() {
        struct row r;
        r.cells[2] = 7;
        r.tag = 1;
        print(r.cells[2] + r.tag);
        return 0;
    }
    """
    assert out(src) == ["8"]


def test_global_array_indexing_wraps_program_logic():
    src = """
    int hist[5];
    int main(int n) {
        for (int i = 0; i < n; i += 1) { hist[i % 5] += 1; }
        print(hist[0]); print(hist[4]);
        return 0;
    }
    """
    assert out(src, [12]) == ["3", "2"]


def test_stats_counting():
    res = run("int g; int main() { g = 1; int x = g + g; print(x); return 0; }")
    assert res.stats.direct_loads >= 2
    assert res.stats.stores == 0  # direct assigns are not indirect stores


# -- error paths on hand-built IR -------------------------------------------


def _main(*stmts, extra=()):
    """A module whose ``main`` is one block holding ``stmts``."""
    module = Module()
    fn = Function("main", [], INT)
    block = fn.new_block()
    for stmt in stmts:
        block.append(stmt)
    module.add_function(fn)
    for other in extra:
        module.add_function(other)
    return module, fn


def _int_ptr(value):
    return ConstInt(value, pointer_to(INT))


def _float_ptr():
    addr = ConstFloat(2.5)
    addr.type = pointer_to(INT)
    return addr


@pytest.mark.parametrize(
    "addr,fault",
    [(lambda: _int_ptr(0), "null dereference"), (_float_ptr, "float used as address")],
)
def test_load_fault_in_recovery_names_the_check(addr, fault):
    """A load inside chk.a recovery code reports the top-level check
    statement the recovery hangs off, not the recovery statement."""
    module, fn = _main()
    t, u = fn.new_temp(INT), fn.new_temp(INT)
    recovery = [Assign(u, Load(addr(), INT))]
    chk = Assign(t, ConstInt(1), SpecFlag.CHK_A, recovery)
    fn.entry.append(chk)
    fn.entry.append(Return(ConstInt(0)))
    with pytest.raises(InterpError) as info:
        run_module(module)
    assert type(info.value) is InterpError
    assert str(info.value) == f"{fault} in {chk}"


def test_store_fault_in_recovery_names_the_store():
    module, fn = _main()
    t = fn.new_temp(INT)
    store = Store(_int_ptr(0), ConstInt(7))
    chk = Assign(t, ConstInt(1), SpecFlag.CHK_A, [store])
    fn.entry.append(chk)
    fn.entry.append(Return(ConstInt(0)))
    with pytest.raises(InterpError, match=r"^null dereference in \*\(0\) = 7$"):
        run_module(module)


def test_variable_without_frame_address():
    stranger = Variable("stranger", INT, StorageClass.LOCAL)
    module, _ = _main(Return(VarRead(stranger)))
    with pytest.raises(InterpError, match="^variable stranger has no address in frame$"):
        run_module(module)


def test_void_call_used_as_value():
    callee = Function("nothing", [])
    callee.new_block().append(Return())
    module, fn = _main(extra=[callee])
    r = fn.new_temp(INT)
    call = Call(r, "nothing", [])
    fn.entry.append(call)
    fn.entry.append(Return(ConstInt(0)))
    with pytest.raises(InterpError) as info:
        run_module(module)
    assert str(info.value) == f"void call used as value: {call}"


def test_falling_off_a_block():
    module, fn = _main(EvalStmt(ConstInt(1)))
    label = fn.entry.label
    with pytest.raises(InterpError, match=f"^fell off end of block {label} in main$"):
        run_module(module)


def test_negative_alloc_count():
    module, fn = _main()
    p = fn.new_temp(pointer_to(INT))
    alloc = Alloc(p, INT, ConstInt(-1))
    fn.entry.append(alloc)
    fn.entry.append(Return(ConstInt(0)))
    with pytest.raises(InterpError) as info:
        run_module(module)
    assert str(info.value) == f"negative allocation count in {alloc}"
