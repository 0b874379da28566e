"""IR interpreter: reference semantics and alias-profiling substrate.

Memory model
------------
Memory is **word-addressed**: one address unit holds one 8-byte scalar.
Pointer arithmetic in the IR is therefore in word units (the frontend
scales array indices and field offsets accordingly).  Address space
layout (all in words):

* globals   — from ``GLOBAL_BASE`` upward;
* stack     — frames from ``STACK_BASE`` upward (grows up, popped LIFO);
* heap      — allocations from ``HEAP_BASE`` upward, never freed.

All storage is zero-initialised (MiniC defines deterministic zero init
so that every compilation mode observes identical values).

Speculation annotations (:class:`SpecFlag`) do not change IR semantics:
a check statement re-executes its load, which is exactly the reload the
hardware would perform on an ALAT miss.  The interpreter is thus the
oracle for differential testing against the machine simulator.

Profiling
---------
A :class:`MemoryTracer` passed to the interpreter receives one event per
dynamic indirect load/store with the *owner* of the accessed address —
a global/local variable or a heap allocation site.  The speculation
package builds the alias profile (paper section 3.1) from these events.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Optional, Protocol, Union

from repro.errors import InterpError, InterpLimitExceeded

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> ir)
    from repro.obs.telemetry import HostProfiler
from repro.ir.expr import (
    AddrOf,
    BinOp,
    BinOpKind,
    ConstFloat,
    ConstInt,
    Expr,
    Load,
    UnOp,
    VarRead,
)
from repro.ir.cfg import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.semantics import BINARY, INT_MAX, INT_MIN, UNARY, Value, wrap_int
from repro.ir.stmt import (
    Alloc,
    Assign,
    Call,
    CondBranch,
    ConditionalReload,
    EvalStmt,
    InvalidateCheck,
    Jump,
    Print,
    Return,
    SpecFlag,
    Stmt,
    Store,
)
from repro.ir.symbols import Variable

GLOBAL_BASE = 0x1000
STACK_BASE = 0x10_0000
HEAP_BASE = 0x100_0000


def format_value(value: Union[int, float]) -> str:
    """Canonical print formatting shared by interpreter and simulator."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


#: Owner tags attributed to addresses: ("var", variable_id, variable) for
#: globals/locals/params, ("heap", alloc_stmt_sid) for heap objects.
OwnerTag = tuple


class MemoryTracer(Protocol):
    """Observer of dynamic indirect memory accesses (for profiling)."""

    def on_indirect_load(self, load: Load, stmt: Stmt, addr: int, owner: Optional[OwnerTag]) -> None: ...

    def on_indirect_store(self, stmt: Store, addr: int, owner: Optional[OwnerTag]) -> None: ...


class InterpStats:
    """Dynamic operation counts."""

    def __init__(self) -> None:
        self.steps = 0
        self.direct_loads = 0
        self.indirect_loads = 0
        self.stores = 0
        self.calls = 0

    def __repr__(self) -> str:
        return (
            f"InterpStats(steps={self.steps}, direct_loads={self.direct_loads}, "
            f"indirect_loads={self.indirect_loads}, stores={self.stores})"
        )


class InterpResult:
    """Outcome of a program run."""

    def __init__(self, exit_value: int, output: list[str], stats: InterpStats) -> None:
        self.exit_value = exit_value
        self.output = output
        self.stats = stats

    @property
    def output_text(self) -> str:
        return "\n".join(self.output)

    def __repr__(self) -> str:
        return f"InterpResult(exit={self.exit_value}, {len(self.output)} lines)"


def _fault(message: str) -> Callable:
    """An op that raises ``InterpError(message)`` when it runs."""

    def fault(frame):
        raise InterpError(message)
    return fault


def _addr_fault(value: Value, stmt: Optional[Stmt]) -> InterpError:
    if value.__class__ is float:
        return InterpError(f"float used as address in {stmt}")
    return InterpError(f"null dereference in {stmt}")


def _as_int(value: Value) -> int:
    """An ``int`` variable's value: truncated, wrapped to 64 bits."""
    if value.__class__ is int and INT_MIN <= value <= INT_MAX:
        return value
    return wrap_int(int(value))


class Interpreter:
    """Executes a :class:`Module` starting at ``main``.

    Each function is decoded into closures (:class:`_Decoded`) on its
    first call; :meth:`run` drops them, as they close over ``self``.
    """

    def __init__(
        self,
        module: Module,
        tracer: Optional[MemoryTracer] = None,
        max_steps: int = 50_000_000,
        on_print: Optional[Callable[[Print, str], None]] = None,
        host_profiler=None,
    ) -> None:
        self.module = module
        self.tracer = tracer
        self.max_steps = max_steps
        #: optional :class:`repro.obs.telemetry.HostProfiler` — buckets
        #: host wall-clock per dispatched statement class
        #: (``interp.op.Assign``, …).  Purely observational.
        self.host = host_profiler
        #: observer invoked with (Print stmt, formatted text) per output
        #: line — translation validation uses it to attribute the first
        #: divergent print back to a source Loc.
        self.on_print = on_print
        self.mem: dict[int, Union[int, float]] = {}
        self.owner: dict[int, OwnerTag] = {}
        self.stats = InterpStats()
        self.output: list[str] = []
        self._stack_top = STACK_BASE
        self._heap_top = HEAP_BASE
        self._global_addrs: dict[int, int] = {}
        self._frames: list[tuple[_Decoded, list]] = []  # (code, frame) per call
        self._code: dict[Function, _Decoded] = {}
        self._layout_globals()

    # -- memory layout ------------------------------------------------

    def _layout_globals(self) -> None:
        addr = GLOBAL_BASE
        for g in self.module.globals:
            self._global_addrs[g.id] = addr
            words = max(1, g.type.size_words())
            for w in range(words):
                self.owner[addr + w] = ("var", g.id, g)
            init = self.module.global_inits.get(g.id)
            if init is not None:
                if isinstance(init, list):
                    for i, v in enumerate(init):
                        self.mem[addr + i] = v
                else:
                    self.mem[addr] = init
            addr += words

    def var_address(self, var: Variable) -> int:
        """Word address of a variable with a memory home."""
        if var.is_global:
            return self._global_addrs[var.id]
        code, frame = self._frames[-1]
        if var.id not in code.offsets:
            raise InterpError(f"variable {var.name} has no address in frame")
        return frame[0] + code.offsets[var.id]

    # -- running --------------------------------------------------------

    def run(self, args: Optional[list[Value]] = None) -> InterpResult:
        """Run ``main`` with the given arguments."""
        try:
            result = self._call(self.module.main, args or [])
        finally:
            # free the cycles: ops close over self, and the block
            # records of a loop over each other
            for code in self._code.values():
                for rec in code.blocks.values():
                    rec.clear()
            self._code.clear()
        exit_value = int(result) if result is not None else 0
        return InterpResult(exit_value, self.output, self.stats)

    def _call(self, fn: Function, args: list[Value]) -> Optional[Value]:
        if len(args) != len(fn.params):
            raise InterpError(
                f"{fn.name} expects {len(fn.params)} args, got {len(args)}"
            )
        hp = self.host
        _t0 = hp.now() if hp is not None else 0
        code = self._code.get(fn)
        if code is None:
            code = self._code[fn] = _Decoded(self, fn)
        base = self._stack_top
        top = self._stack_top = base + len(code.owners)
        frame = code.regs[:]
        frame[0] = base
        self.owner.update(zip(range(base, top), code.owners))
        self.mem.update(dict.fromkeys(range(base, top), 0))  # deterministic zero init
        self._frames.append((code, frame))
        self.stats.calls += 1
        for write, value in zip(code.params, args):
            write(frame, value)

        try:
            if hp is None:
                return self._run_blocks(code.entry, frame)
            result, _t0 = self._run_profiled(code.entry, frame, _t0)
            return result
        except BaseException:
            if hp is not None:
                _t0 = hp.now()
            raise
        finally:
            self._frames.pop()
            owner, mem = self.owner, self.mem
            for addr in range(base, top):
                owner.pop(addr, None)
                mem.pop(addr, None)
            self._stack_top = base
            if hp is not None:
                hp.add("interp.frame", hp.now() - _t0)

    def _step(self) -> None:
        self.stats.steps += 1
        if self.stats.steps > self.max_steps:
            raise InterpLimitExceeded(f"interpreter exceeded {self.max_steps} steps")

    def _run_blocks(self, block: list, frame: list) -> Optional[Value]:
        """Run decoded blocks until one returns.  A block that fits in
        the fuel left, and holds no call (the callee counts in between),
        counts its steps at once, others step by step: the limit trips
        at the same statement either way.  (After another fault
        mid-block, ``stats.steps`` includes the rest of the block.)"""
        stats, limit, step = self.stats, self.max_steps, self._step
        while True:
            ops, term, batch, n, _ = block
            if stats.steps + batch <= limit:
                stats.steps += batch
                for op in ops:
                    op(frame)
            else:
                for op in ops:
                    step()
                    op(frame)
                if n > len(ops):
                    step()
            block = term(frame)
            if block.__class__ is not list:
                return block

    def _run_profiled(self, block: list, frame: list, t_mark: int) -> tuple:
        """The same blocks, one counted statement at a time.  Timestamps
        chain from the call's start through the frame-setup and each
        statement's ``interp.op.<Stmt>`` bucket, so attributed time
        tiles the call.  Returns the value and the last timestamp."""
        hp, step = self.host, self._step
        now, add, take_sub = hp.now, hp.add, hp.take_sub
        t_now = now()
        add("interp.frame", t_now - t_mark)
        while True:
            ops, term, _, n, keys = block
            for op, key in zip(ops, keys):
                t_mark = t_now
                step()
                op(frame)
                t_now = now()
                add(key, t_now - t_mark - take_sub())
            if n > len(ops):
                step()
            t_mark = t_now
            block = term(frame)
            t_now = now()
            add(keys[-1], t_now - t_mark - take_sub())
            if block.__class__ is not list:
                return block, t_now


class _Decoded:
    """A function decoded into closures over its interpreter.

    Expressions become ``f(frame) -> value``, statements ``f(frame)``;
    ``frame`` lists the frame's base address, a zero (the base of
    globals) and a slot per register temporary.  Operators, variable
    homes, the tracer and the host profiler are resolved once, here.  A
    block becomes ``[ops, terminator, batch, steps, bucket keys]``; its
    terminator returns the next block, or the function's return value.
    """

    def __init__(self, interp: Interpreter, fn: Optional[Function]) -> None:
        self.interp = interp
        self.offsets: dict[int, int] = {}  # memory-home var id -> frame offset
        self.owners: list[OwnerTag] = []  # owner tag per frame word
        self.slots: dict[int, int] = {}  # temp var id -> frame index
        #: the block statement being decoded: loads inside ``chk.a``
        #: recovery code report faults against it
        self.top: Optional[Stmt] = None
        self.has_call = False  # whether that block holds a call
        self.blocks: dict[BasicBlock, list] = {}
        self.pending: list[BasicBlock] = []
        if fn is None:  # a bare expression (:func:`evaluate`)
            return
        for var in fn.all_variables():
            if var.has_memory_home:
                self.offsets[var.id] = len(self.owners)
                self.owners += [("var", var.id, var)] * max(1, var.type.size_words())
        self.entry = self.block(fn.entry)
        while self.pending:
            block = self.pending.pop()
            self.blocks[block] += self.decode_block(block, fn)
        self.params = [self.write(p) for p in fn.params]
        self.regs = [0] * (2 + len(self.slots))

    def block(self, block: BasicBlock) -> list:
        """The record of ``block``, filled in once it is decoded."""
        if block not in self.blocks:
            self.blocks[block] = []
            self.pending.append(block)
        return self.blocks[block]

    def decode_block(self, block: BasicBlock, fn: Function) -> list:
        hp = self.interp.host
        ops, keys, term = [], [], None
        self.has_call = False
        for stmt in block.stmts:
            self.top = stmt
            if hp is not None:
                keys.append(hp.op_key(stmt.__class__, "interp.op."))
            if stmt.__class__ in self.TERMINATORS:
                term = self.TERMINATORS[stmt.__class__](self, stmt)
                break
            ops.append(self.stmt(stmt))
        n = len(ops) + (term is not None)
        if term is None:
            term = _fault(f"fell off end of block {block.label} in {fn.name}")
        batch = self.interp.max_steps + 1 if self.has_call else n
        return [tuple(ops), term, batch, n, tuple(keys)]

    # -- variables --------------------------------------------------------

    def slot(self, var: Variable) -> int:
        return self.slots.setdefault(var.id, 2 + len(self.slots))

    def home(self, var: Variable) -> Optional[tuple[int, int]]:
        """``(i, offset)``: a memory-home variable lives at ``frame[i] +
        offset``; ``None`` if unknown here."""
        if var.is_global:
            addr = self.interp._global_addrs.get(var.id)
            return None if addr is None else (1, addr)
        return None if var.id not in self.offsets else (0, self.offsets[var.id])

    def no_home(self, var: Variable) -> Callable:
        """Accesses raise what :meth:`Interpreter.var_address` raises."""
        var_address = self.interp.var_address
        return lambda frame, value=None: var_address(var)

    def read(self, var: Variable) -> Callable:
        if not var.has_memory_home:
            return itemgetter(self.slot(var))
        if self.home(var) is None:
            return self.no_home(var)
        (i, offset), stats, mem_get = self.home(var), self.interp.stats, self.interp.mem.get

        def read(frame):
            stats.direct_loads += 1
            return mem_get(frame[i] + offset, 0)
        return read

    def write(self, var: Variable) -> Callable:
        """``f(frame, value)``: coerce to the variable's type, store."""
        conv, mem = float if var.type.is_float else _as_int, self.interp.mem
        if not var.has_memory_home:
            slot = self.slot(var)

            def write_reg(frame, value):
                frame[slot] = conv(value)
            return write_reg
        if self.home(var) is None:
            return self.no_home(var)
        i, offset = self.home(var)

        def write_mem(frame, value):
            mem[frame[i] + offset] = conv(value)
        return write_mem

    # -- expressions ------------------------------------------------------

    def expr(self, e: Expr) -> Callable:
        if e.__class__ not in self.EXPRS:
            return _fault(f"cannot evaluate expression {e!r}")
        return self.EXPRS[e.__class__](self, e)

    def _const(self, e: Union[ConstInt, ConstFloat]) -> Callable:
        value = e.value
        return lambda frame: value

    def _load(self, e: Load) -> Callable:
        addr, top = self.expr(e.addr), self.top
        stats, mem_get, tracer = self.interp.stats, self.interp.mem.get, self.interp.tracer
        if tracer is None:
            def load(frame):
                p = addr(frame)
                if p.__class__ is float or not p:
                    raise _addr_fault(p, top)
                stats.indirect_loads += 1
                return mem_get(p, 0)
            return load
        on_load, owner_get = tracer.on_indirect_load, self.interp.owner.get

        def traced_load(frame):
            p = addr(frame)
            if p.__class__ is float or not p:
                raise _addr_fault(p, top)
            stats.indirect_loads += 1
            on_load(e, top, p, owner_get(p))
            return mem_get(p, 0)
        return traced_load

    def _binop(self, e: BinOp) -> Callable:
        op, left, right = e.op, self.expr(e.left), self.expr(e.right)
        if op is BinOpKind.AND:
            return lambda frame: 1 if (left(frame) and right(frame)) else 0
        if op is BinOpKind.OR:
            return lambda frame: 1 if (left(frame) or right(frame)) else 0
        fn = BINARY[op]
        if e.type.is_float or op.is_comparison:  # nothing to wrap
            return lambda frame: fn(left(frame), right(frame))

        def arith(frame):
            v = fn(left(frame), right(frame))
            if v.__class__ is int and not INT_MIN <= v <= INT_MAX:
                return wrap_int(v)
            return v
        return arith

    def _unop(self, e: UnOp) -> Callable:
        fn, operand = UNARY[e.op], self.expr(e.operand)

        def unop(frame):
            v = fn(operand(frame))
            return wrap_int(v) if v.__class__ is int else v
        return unop

    def _addr_of(self, e: AddrOf) -> Callable:
        if self.home(e.var) is None:
            return self.no_home(e.var)
        i, offset = self.home(e.var)
        return lambda frame: frame[i] + offset

    EXPRS = {
        ConstInt: _const, ConstFloat: _const, AddrOf: _addr_of, Load: _load,
        BinOp: _binop, UnOp: _unop, VarRead: lambda self, e: self.read(e.var),
    }

    # -- statements -------------------------------------------------------

    def stmt(self, s: Stmt) -> Callable:
        if s.__class__ not in self.STMTS:
            return _fault(f"cannot execute statement {s!r}")
        return self.STMTS[s.__class__](self, s)

    def _assign(self, s: Assign) -> Callable:
        if s.spec_flag.is_branching_check and s.recovery:
            # chk.a: the interpreter models the always-fail case — the
            # recovery reloads address and value from memory, which is
            # idempotent and therefore also correct when hardware would
            # have skipped it.
            recovery = tuple(self.stmt(r) for r in s.recovery)

            def check(frame):
                for op in recovery:
                    op(frame)
            return check
        value, write = self.expr(s.expr), self.write(s.target)
        if s.spec_flag in (SpecFlag.LD_SA, SpecFlag.LD_C, SpecFlag.LD_C_NC):
            # Speculative loads must not fault on paths where the
            # original never loaded: ld.sa defers exceptions, and a
            # check reached before any advanced load executed may see a
            # garbage (zero) address register.  The dummy value is dead
            # on every such path.
            dummy = 0.0 if s.target.type.is_float else 0

            def deferred(frame):
                try:
                    v = value(frame)
                except InterpError:
                    v = dummy
                write(frame, v)
            return deferred
        return lambda frame: write(frame, value(frame))

    def _store(self, s: Store) -> Callable:
        addr, value = self.expr(s.addr), self.expr(s.value)
        stats, mem, tracer = self.interp.stats, self.interp.mem, self.interp.tracer

        def store(frame):
            p = addr(frame)
            if p.__class__ is float or not p:
                raise _addr_fault(p, s)
            v = value(frame)
            if p < 0:
                raise InterpError(f"store to invalid address {p}")
            mem[p] = v
            stats.stores += 1
            return p
        if tracer is None:
            return store
        on_store, owner_get = tracer.on_indirect_store, self.interp.owner.get
        return lambda frame: on_store(s, p := store(frame), owner_get(p))

    def _call(self, s: Call) -> Callable:
        self.has_call = True
        interp, module = self.interp, self.interp.module
        if s.callee not in module.functions:
            return lambda frame: module.function(s.callee)  # raises IRError
        callee, args = module.functions[s.callee], [self.expr(a) for a in s.args]
        result = self.write(s.result) if s.result is not None else None
        # Under the host profiler the callee's loop buckets its own
        # time: the Call bucket keeps only argument evaluation and frame
        # bookkeeping residue.
        call = interp._call if interp.host is None else interp.host.deferred(interp._call)

        def call_op(frame):
            value = call(callee, [arg(frame) for arg in args])
            if result is not None:
                if value is None:
                    raise InterpError(f"void call used as value: {s}")
                result(frame, value)
        return call_op

    def _alloc(self, s: Alloc) -> Callable:
        interp, count, write = self.interp, self.expr(s.count), self.write(s.target)
        size, tag = s.elem_type.size_words(), ("heap", s.sid)

        def alloc(frame):
            n = int(count(frame))
            if n < 0:
                raise InterpError(f"negative allocation count in {s}")
            base = interp._heap_top
            interp._heap_top = top = base + max(1, size * n)
            interp.owner.update(dict.fromkeys(range(base, top), tag))
            write(frame, base)
        return alloc

    def _print(self, s: Print) -> Callable:
        value, emit, on_print = self.expr(s.expr), self.interp.output.append, self.interp.on_print

        def print_op(frame):
            text = format_value(value(frame))
            emit(text)
            if on_print is not None:
                on_print(s, text)
        return print_op

    def _reload(self, s: ConditionalReload) -> Callable:
        store_addr, home_addr = self.expr(s.store_addr), self.expr(s.home_addr)
        write, mem_get = self.write(s.temp), self.interp.mem.get

        def reload(frame):
            stored, home = store_addr(frame), home_addr(frame)
            if stored == home:
                if home.__class__ is float or not home:
                    raise _addr_fault(home, s)
                write(frame, mem_get(home, 0))
        return reload

    STMTS = {
        Assign: _assign, Store: _store, Call: _call, Alloc: _alloc, Print: _print,
        ConditionalReload: _reload,
        EvalStmt: lambda self, s: self.expr(s.expr),
        InvalidateCheck: lambda self, s: lambda frame: None,  # ALAT-only effect
    }

    # -- terminators: return the next block, or the return value ------------

    def _return(self, s: Return) -> Callable:
        return self.expr(s.expr) if s.expr is not None else lambda frame: None

    def _jump(self, s: Jump) -> Callable:
        target = self.block(s.target)
        return lambda frame: target

    def _branch(self, s: CondBranch) -> Callable:
        cond = self.expr(s.cond)
        then, other = self.block(s.then_block), self.block(s.else_block)
        return lambda frame: then if cond(frame) else other

    TERMINATORS = {Return: _return, Jump: _jump, CondBranch: _branch}


def evaluate(expr: Expr) -> Value:
    """Evaluate a frame-free expression (constants and operators) on the
    interpreter's decoded path."""
    return _Decoded(Interpreter(Module()), None).expr(expr)([0, 0])


def run_module(
    module: Module,
    args: Optional[list[Union[int, float]]] = None,
    tracer: Optional[MemoryTracer] = None,
    max_steps: int = 50_000_000,
    host_profiler: Optional["HostProfiler"] = None,
) -> InterpResult:
    """Convenience wrapper: interpret ``module.main(args)``."""
    return Interpreter(
        module, tracer, max_steps, host_profiler=host_profiler
    ).run(args)
