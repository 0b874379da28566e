"""The machine simulator: functional execution + in-order scoreboard.

Timing model
------------
Time advances in *slots* of 1/``issue_width`` cycle: every retired
instruction consumes one slot, and an instruction cannot issue before
its source registers are ready.  Result-ready times come from latencies
(ALU 1 cycle; loads from the cache model; successful ``ld.c`` **zero**
— the paper's "0 cycle checks").  Taken branches add a bubble, failed
``chk.a`` pays the recovery-trap penalty, and RSE spill/fill traffic
stalls calls/returns.  This coarse model reproduces the relationships
the evaluation section measures — many eliminated loads → fewer
data-access cycles → modestly fewer CPU cycles, with FP loads worth
more — without simulating Itanium bundles.

Functional semantics mirror the IR interpreter exactly (both compute
operators through :mod:`repro.ir.semantics`), so interpreter and
simulator outputs are directly comparable in differential tests.

Execution
---------
Each function is decoded once per simulator, on its first call, into
label-free ``(handler, reads)`` ops: a closure bound to the operands,
and the registers the scoreboard waits on.  Branch targets are op
indices; registers, ready times and immediates (constant slots) are
slot lists.  Runs with no hook take the plain loop; a guest profile,
fault injector, counter snapshots or host profiler take the
instrumented loop over the same ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NoReturn, Optional

from repro.errors import InterpError, MachineError, MachineLimitExceeded
from repro.ir.interp import HEAP_BASE, STACK_BASE, format_value
from repro.ir.semantics import BINARY, INT_MAX, INT_MIN, UNARY, Value, wrap_int
from repro.machine.alat import ALAT, ALATConfig
from repro.machine.cache import CacheConfig, CacheHierarchy
from repro.machine.counters import Counters
from repro.machine.rse import RegisterStackEngine, RSEConfig
from repro.obs.profile import RunProfile
from repro.obs.trace import NULL_TRACE, TraceContext
from repro.target.isa import (
    AllocH,
    Alu,
    Br,
    Brnz,
    CallF,
    ChkA,
    InvalaE,
    Label,
    Ld,
    LdC,
    Lea,
    LoadKind,
    MFunction,
    MovI,
    Mov,
    MProgram,
    PredLd,
    PrintR,
    Region,
    RetF,
    St,
    Un,
)

#: what a handler returns instead of a next op index to leave the function
_RETURN = -1


@dataclass
class MachineConfig:
    """Microarchitectural parameters."""

    issue_width: int = 3
    branch_penalty: int = 1  # cycles per taken branch
    #: chk.a failure: light-weight trap + branch to/from recovery
    recovery_penalty: int = 30
    alat: ALATConfig = field(default_factory=ALATConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    rse: RSEConfig = field(default_factory=RSEConfig)
    max_instructions: int = 200_000_000


class MachineResult:
    """Outcome of one simulated run."""

    def __init__(
        self,
        exit_value: int,
        output: list[str],
        counters: Counters,
        alat: ALAT,
        cache: CacheHierarchy,
        rse: RegisterStackEngine,
        profile: Optional[RunProfile] = None,
    ) -> None:
        self.exit_value = exit_value
        self.output = output
        self.counters = counters
        self.alat_stats = alat.stats
        self.cache_stats = cache.stats
        self.rse_stats = rse.stats
        #: attribution data (``None`` unless the run was profiled)
        self.profile = profile

    @property
    def output_text(self) -> str:
        return "\n".join(self.output)

    def __repr__(self) -> str:
        return (
            f"MachineResult(exit={self.exit_value}, "
            f"cycles={self.counters.cpu_cycles}, "
            f"loads={self.counters.retired_loads})"
        )


@dataclass(slots=True)
class _Frame:
    """One activation: ALAT-tag ``serial``, frame ``base``, return ``result``."""

    serial: int
    base: int
    result: Optional[Value] = None


@dataclass(slots=True)
class _Code:
    """One decoded function: ``ops[pc]`` runs ``instrs[pc]``; ``slots`` is
    the initial register file: ``nregs`` zeroed registers, then constants."""

    name: str
    ops: list
    instrs: list
    slots: list
    nregs: int


def _bad_address(value: Value, mf: MFunction) -> NoReturn:
    if isinstance(value, float):
        raise MachineError(f"float used as address in {mf.name}")
    raise MachineError(f"invalid address {value} in {mf.name}")


def _unknown_label(mf: MFunction, name: str) -> NoReturn:
    raise MachineError(f"{mf.name}: unknown label {name!r}")


def _fell_off(code: _Code) -> NoReturn:
    raise MachineError(f"{code.name}: fell off the end of the function") from None


class Simulator:
    """Runs one MProgram."""

    def __init__(
        self,
        program: MProgram,
        config: Optional[MachineConfig] = None,
        obs: Optional[TraceContext] = None,
        profile: bool = False,
        injector=None,
        host_profiler=None,
    ) -> None:
        #: optional :class:`repro.obs.telemetry.HostProfiler` — buckets
        #: *host* wall-clock by simulated-opcode class.  Like tracing
        #: and guest profiling, it never mutates simulator state, so
        #: simulated counters are bit-identical with it on or off.
        self.host = hp = host_profiler
        _t0 = hp.now() if hp is not None else 0
        self.program = program
        self.config = config or MachineConfig()
        self.obs = obs if obs is not None else NULL_TRACE
        self.counters = Counters()
        #: optional :class:`repro.chaos.FaultInjector` (duck-typed) —
        #: clamps ALAT/cache geometry and injects ALAT faults; all its
        #: faults are safe-by-construction (they only remove entries or
        #: slow paths down, never fabricate a check hit).
        self.injector = injector
        self.alat = ALAT(self.config.alat, injector=injector)
        self.cache = CacheHierarchy(self.config.cache, injector=injector)
        self.rse = RegisterStackEngine(self.config.rse)
        self.mem: dict[int, Value] = dict(program.data)
        self.output: list[str] = []
        self.time = 0  # slots (1/issue_width cycles)
        self._stack_top = STACK_BASE
        self._heap_top = HEAP_BASE
        self._serial = 0
        self._w = self.config.issue_width
        self._code: dict[MFunction, _Code] = {}
        if self.obs.enabled:
            self._attach_observers()
        #: attribution collector; ``None`` keeps the decoded ops off
        #: every profiling call (profiling never mutates simulator
        #: state, so counters stay bit-identical either way)
        self.profile: Optional[RunProfile] = None
        if profile:
            self.profile = RunProfile(program, self._w)
            self._attach_profile_observer()
        self._hooked = bool(self.obs.snapshot_every or self.profile is not None
                            or injector is not None or hp is not None)
        if hp is not None:
            hp.add("sim.init", hp.now() - _t0)

    def _attach_observers(self) -> None:
        """Hook the machine components into the trace context.

        Observers are only installed when tracing is enabled; otherwise
        the components keep ``observer = None`` and the simulation takes
        the exact same path as an uninstrumented build (events never
        mutate simulator state, so simulated counters are identical
        either way).
        """
        obs = self.obs
        counters = self.counters

        def machine_observer(name: str, **fields) -> None:
            obs.event(name, instr=counters.instructions, **fields)

        self.alat.observer = machine_observer
        self.cache.observer = machine_observer
        self.rse.observer = machine_observer

    def _attach_profile_observer(self) -> None:
        """Route ALAT events into the profiler (collisions/evictions are
        store-initiated, so only the observer channel carries the tag of
        the entry that died).  Composes with the trace observer when
        both are active."""
        prof = self.profile
        assert prof is not None
        prev = self.alat.observer

        def profile_observer(name: str, **fields) -> None:
            if prev is not None:
                prev(name, **fields)
            prof.alat_event(name, fields)

        self.alat.observer = profile_observer

    # -- public API -----------------------------------------------------

    def run(self, args: Optional[list[Value]] = None) -> MachineResult:
        hp = self.host
        _t0 = hp.now() if hp is not None else 0
        self.obs.event(
            "sim.begin", program=self.program.name, args=list(args or [])
        )
        if self.injector is not None and self.obs.enabled:
            # Static (geometry-clamp) faults were applied at component
            # construction; surface each as one chaos.fault row so the
            # trace accounts for every injected fault, dynamic or not.
            for kind, detail in self.injector.static_faults:
                self.obs.event("chaos.fault", kind=kind, **detail)
        main = self.program.function("main")
        self.rse.call(main.nregs)
        if hp is not None:
            hp.add("sim.run", hp.now() - _t0)
        result = self._run_function(main, list(args or []))
        self._code.clear()  # the decoded ops close over self: free the cycle
        if hp is not None:
            _t0 = hp.now()
        self.counters.rse_cycles = self.rse.stats.rse_cycles
        self.counters.cpu_cycles = self.time // self._w
        if self.profile is not None:
            self.profile.total_slots = self.time
        exit_value = int(result) if result is not None else 0
        if self.obs.enabled:
            self.obs.event(
                "sim.end",
                program=self.program.name,
                exit_value=exit_value,
                cycles=self.counters.cpu_cycles,
                instructions=self.counters.instructions,
            )
        if hp is not None:
            hp.add("sim.run", hp.now() - _t0)
        return MachineResult(
            exit_value, self.output, self.counters, self.alat, self.cache,
            self.rse, profile=self.profile,
        )

    # -- execution -----------------------------------------------------------

    def _run_function(self, mf: MFunction, args: list[Value]) -> Optional[Value]:
        hp = self.host
        _t0 = hp.now() if hp is not None else 0
        code = self._code.get(mf)
        if code is None:
            code = self._code[mf] = self._decode(mf)
        self._serial += 1
        base = self._stack_top
        frame = _Frame(self._serial, base)
        self._stack_top += mf.frame_words
        n = min(len(args), code.nregs)
        regs = code.slots[:]
        regs[:n] = args[:n]
        ready = [self.time] * n + [0] * (len(regs) - n)
        # zero-initialise the memory frame (MiniC semantics)
        self.mem.update(dict.fromkeys(range(base, base + mf.frame_words), 0))
        if hp is not None:
            hp.add("sim.frame", hp.now() - _t0)

        loop = self._instrumented_loop if self._hooked else self._plain_loop
        try:
            return loop(code, regs, ready, frame)
        finally:
            if hp is not None:
                _t0 = hp.now()
            for addr in range(base, base + mf.frame_words):
                self.mem.pop(addr, None)
            self._stack_top = base
            if hp is not None:
                hp.add("sim.frame", hp.now() - _t0)

    def _plain_loop(self, code: _Code, regs: list, ready: list,
                    frame: _Frame) -> Optional[Value]:
        ops = code.ops
        counters, limit = self.counters, self.config.max_instructions
        pc = 0
        while True:
            try:
                handler, reads = ops[pc]
            except IndexError:
                _fell_off(code)
            counters.instructions += 1
            if counters.instructions > limit:
                raise MachineLimitExceeded(f"exceeded {limit} instructions")
            # issue: wait for source operands, then take one slot
            start = self.time
            for r in reads:
                if ready[r] > start:
                    start = ready[r]
            self.time = start + 1
            pc = handler(regs, ready, start, frame)
            if pc < 0:
                return frame.result

    def _instrumented_loop(self, code: _Code, regs: list, ready: list,
                           frame: _Frame) -> Optional[Value]:
        """The plain loop plus the per-instruction hooks: snapshots,
        injected context switches, guest profile and host buckets."""
        ops, instrs = code.ops, code.instrs
        counters, limit = self.counters, self.config.max_instructions
        obs, prof, inj = self.obs, self.profile, self.injector
        snap = obs.snapshot_every
        # Host-profiler timestamps chain — each mark ends one bucket
        # segment and starts the next — so profiled time tiles the loop
        # with no unattributed gaps between marks.
        hp = self.host
        t_mark = hp.now() if hp is not None else 0
        pc = 0
        while True:
            try:
                handler, reads = ops[pc]
            except IndexError:
                _fell_off(code)
            counters.instructions += 1
            if counters.instructions > limit:
                raise MachineLimitExceeded(f"exceeded {limit} instructions")
            if snap and counters.instructions % snap == 0:
                obs.event("counters.snapshot", **counters.as_dict())
            if inj is not None and inj.context_switch():
                self.alat.chaos_flush()
            start = t0 = self.time
            for r in reads:
                if ready[r] > start:
                    start = ready[r]
            self.time = start + 1
            if prof is not None:
                # operand-stall + issue slots; penalty slots are added
                # where ops charge them, so the per-instruction sums tile
                # self.time exactly (a callee self-attributes its own)
                prof.retire(instrs[pc], self.time - t0)
            if hp is not None:
                t_now = hp.now()
                hp.add("sim.issue", t_now - t_mark)
                hp.take_sub()
                t_mark = t_now
            next_pc = handler(regs, ready, start, frame)
            if hp is not None:
                t_now = hp.now()
                hp.add(hp.op_key(instrs[pc].__class__),
                       t_now - t_mark - hp.take_sub())
                t_mark = t_now
            if next_pc < 0:
                return frame.result
            pc = next_pc

    # -- decoding ---------------------------------------------------------------

    def _decode(self, mf: MFunction) -> _Code:
        """Decode ``mf`` into ops; labels become op indices."""
        self._bind_components()
        instrs: list = []
        labels: dict[str, int] = {}
        for instr in mf.instrs:
            if isinstance(instr, Label):
                labels[instr.name] = len(instrs)
            else:
                instrs.append(instr)
        nregs = 1 + max(
            [r for i in instrs for r in (*i.reads(), *i.writes())
             if r is not None], default=-1,
        )
        slots: list[Value] = [0] * nregs

        def const(value: Value) -> int:
            slots.append(value)
            return len(slots) - 1

        ops = []
        for pc, instr in enumerate(instrs):
            decoder = _DECODERS.get(type(instr))
            if decoder is None:
                raise MachineError(f"unknown instruction {instr!r}")
            handler = decoder(self, mf, instr, pc + 1, labels, const)
            ops.append((handler, instr.reads()))
        return _Code(mf.name, ops, instrs, slots, nregs)

    def _bind_components(self) -> None:
        """Bind the model entry points ops call (timed when profiling)."""
        hp, alat, cache = self.host, self.alat, self.cache
        bind = (lambda key, fn: fn) if hp is None else hp.timed
        self._alat_allocate = bind("sim.alat", alat.allocate)
        self._alat_check = bind("sim.alat", alat.check)
        self._alat_snoop = bind("sim.alat", alat.snoop_store)
        self._cache_load = bind("sim.cache", cache.load_latency)
        self._cache_store = bind("sim.cache", cache.store_touch)

    def _arm(self, tag: tuple, instr, addr: int) -> None:
        """(Re-)allocate the ALAT entry ``tag`` for ``[addr]``."""
        if self.profile is not None:
            self.profile.bind_tag(tag, instr)
        self._alat_allocate(tag, addr)


# -- op decoders: ``_d_<op>(sim, mf, i, nxt, labels, const)`` returns the
# handler ``(regs, ready, start, frame) -> next op index`` of instruction
# ``i``; ``nxt`` is the fall-through index, ``labels`` maps names to op
# indices and ``const(value)`` allocates a constant slot.


def _d_mov(sim, mf, i, nxt, labels, const):
    rd, lat = i.rd, sim._w
    if isinstance(i, Lea) and i.region is not Region.GLOBAL:
        offset = i.offset

        def lea(regs, ready, start, frame):
            regs[rd] = frame.base + offset
            ready[rd] = start + lat
            return nxt
        return lea
    # MovI and a global Lea copy from a constant slot
    src = i.rs if isinstance(i, Mov) else const(
        i.value if isinstance(i, MovI) else i.offset)

    def mov(regs, ready, start, frame):
        regs[rd] = regs[src]
        ready[rd] = start + lat
        return nxt
    return mov


def _d_alu(sim, mf, i, nxt, labels, const):
    fn, rd, a = BINARY[i.op], i.rd, i.rs1
    b = i.src2[1] if isinstance(i.src2, tuple) else const(i.src2)
    # FP arithmetic has FMAC-like latency on Itanium.
    lat = sim._w * (4 if i.is_float else 1)

    def alu(regs, ready, start, frame):
        try:
            r = fn(regs[a], regs[b])
        except InterpError as exc:
            raise MachineError(str(exc)) from None
        if not INT_MIN <= r <= INT_MAX and isinstance(r, int):
            r = wrap_int(r)
        regs[rd] = r
        ready[rd] = start + lat
        return nxt
    return alu


def _d_un(sim, mf, i, nxt, labels, const):
    fn, rd, rs, lat = UNARY[i.op], i.rd, i.rs, sim._w

    def un(regs, ready, start, frame):
        r = fn(regs[rs])
        regs[rd] = wrap_int(r) if isinstance(r, int) else r
        ready[rd] = start + lat
        return nxt
    return un


def _load_op(sim, mf, i, nxt):
    """``rd = [ra]`` through the cache model: a plain ``ld``, and the
    reload of every other load-like op."""
    rd, ra, is_float, indirect, w = i.rd, i.ra, i.is_float, i.indirect, sim._w
    mem, cache_load, counters, prof = sim.mem, sim._cache_load, sim.counters, sim.profile

    def ld(regs, ready, start, frame):
        addr = regs[ra]
        if isinstance(addr, float) or addr <= 0:
            _bad_address(addr, mf)
        latency = cache_load(addr, is_float)
        regs[rd] = mem.get(addr, 0)
        ready[rd] = start + w * latency
        counters.retired_loads += 1
        counters.data_access_cycles += latency
        if indirect:
            counters.retired_indirect_loads += 1
        if prof is not None:
            prof.add_data(i, latency)
        return nxt
    return ld


def _d_ld(sim, mf, i, nxt, labels, const):
    ld = _load_op(sim, mf, i, nxt)
    if i.kind is LoadKind.NORMAL:
        return ld
    # ld.sa never faults: a bad address defers (NaT -> dummy 0)
    deferred, zero = i.kind is LoadKind.SPEC_ADVANCED, 0.0 if i.is_float else 0

    def ld_advanced(regs, ready, start, frame):
        addr = regs[i.ra]
        if deferred and (isinstance(addr, float) or addr <= 0):
            regs[i.rd] = zero
            ready[i.rd] = start + sim._w
            return nxt  # no ALAT entry: subsequent checks will reload
        ld(regs, ready, start, frame)
        sim.counters.retired_advanced_loads += 1
        sim._arm((frame.serial, i.rd), i, addr)
        return nxt
    return ld_advanced


def _d_check(sim, mf, i, nxt, labels, const):
    """``ld.c`` reloads on a miss; ``chk.a`` branches to recovery."""
    rd, clear, check = i.rd, i.clear, sim._alat_check
    counters, prof = sim.counters, sim.profile
    miss = _ldc_miss(sim, mf, i, nxt) if isinstance(i, LdC) else _chka_miss(
        sim, mf, i, labels)

    def check_op(regs, ready, start, frame):
        counters.check_instructions += 1
        tag = (frame.serial, rd)
        hit = check(tag, clear)
        if prof is not None:
            prof.check(tag, i, hit)
        if hit:
            # Check succeeded: zero cost, register already holds the
            # value (the paper's "processed like no-ops").
            return nxt
        counters.check_failures += 1
        return miss(regs, ready, start, tag)
    return check_op


def _ldc_miss(sim, mf, i, nxt):
    ld, zero = _load_op(sim, mf, i, nxt), 0.0 if i.is_float else 0

    def reload(regs, ready, start, tag):
        addr = regs[i.ra]
        if isinstance(addr, float) or addr <= 0:
            # Check reached before any advanced load ran on this path:
            # the address register is dead; so is the result.
            regs[i.rd] = zero
            return nxt
        ld(regs, ready, start, None)
        if not i.clear:
            sim._arm(tag, i, addr)
        return nxt
    return reload


def _chka_miss(sim, mf, i, labels):
    target, penalty = labels.get(i.recovery_label), sim.config.recovery_penalty

    def recover(regs, ready, start, tag):
        sim.counters.recovery_cycles += penalty
        sim.time += penalty * sim._w
        if sim.profile is not None:
            sim.profile.add_slots(i, penalty * sim._w)
            sim.profile.recovery(tag, i, penalty)
        if target is None:
            _unknown_label(mf, i.recovery_label)
        return target
    return recover


def _d_invala(sim, mf, i, nxt, labels, const):
    def invala(regs, ready, start, frame):
        sim.counters.explicit_invalidations += 1
        sim.alat.invalidate_entry((frame.serial, i.rd))
        return nxt
    return invala


def _d_st(sim, mf, i, nxt, labels, const):
    ra, rs, mem, counters = i.ra, i.rs, sim.mem, sim.counters
    snoop, store = sim._alat_snoop, sim._cache_store

    def st(regs, ready, start, frame):
        addr = regs[ra]
        if isinstance(addr, float) or addr <= 0:
            _bad_address(addr, mf)
        mem[addr] = regs[rs]
        snoop(addr)
        store(addr)
        counters.retired_stores += 1
        return nxt
    return st


def _d_predld(sim, mf, i, nxt, labels, const):
    ld = _load_op(sim, mf, i, nxt)

    def predld(regs, ready, start, frame):
        if regs[i.rp]:
            ld(regs, ready, start, frame)
            sim.counters.predicated_reloads += 1
        return nxt
    return predld


def _d_branch(sim, mf, i, nxt, labels, const):
    """``br`` is a ``brnz`` on a constant-1 slot."""
    rs = i.rs if isinstance(i, Brnz) else const(1)
    name, target = i.label, labels.get(i.label)
    counters, prof = sim.counters, sim.profile
    slots = sim.config.branch_penalty * sim._w

    def branch(regs, ready, start, frame):
        counters.branches += 1
        if not regs[rs]:
            return nxt
        if target is None:
            _unknown_label(mf, name)
        sim.time += slots
        if prof is not None:
            prof.add_slots(i, slots)
        return target
    return branch


def _d_call(sim, mf, i, nxt, labels, const):
    callee, arg_regs, rd = i.callee, i.arg_regs, i.result_rd
    call = sim._run_function if sim.host is None else sim.host.deferred(sim._run_function)

    def callf(regs, ready, start, frame):
        sim.counters.calls += 1
        target = sim.program.function(callee)
        sim.rse.call(target.nregs)
        result = call(target, [regs[r] for r in arg_regs])
        sim.rse.ret()
        if rd is not None:
            if result is None:
                raise MachineError(f"void call used as value: {i}")
            regs[rd] = result
            ready[rd] = sim.time + sim._w
        return nxt
    return callf


def _d_ret(sim, mf, i, nxt, labels, const):
    rs = const(None) if i.rs is None else i.rs

    def retf(regs, ready, start, frame):
        frame.result = regs[rs]
        return _RETURN
    return retf


def _d_alloc(sim, mf, i, nxt, labels, const):
    def alloc(regs, ready, start, frame):
        words = int(regs[i.r_words])
        if words < 0:
            raise MachineError(f"negative allocation: {i}")
        regs[i.rd] = sim._heap_top
        sim._heap_top += max(1, words)
        ready[i.rd] = start + sim._w
        return nxt
    return alloc


def _d_print(sim, mf, i, nxt, labels, const):
    def printr(regs, ready, start, frame):
        sim.output.append(format_value(regs[i.rs]))
        return nxt
    return printr


_DECODERS = {
    MovI: _d_mov, Mov: _d_mov, Lea: _d_mov, Alu: _d_alu, Un: _d_un,
    Ld: _d_ld, LdC: _d_check, ChkA: _d_check, InvalaE: _d_invala,
    St: _d_st, PredLd: _d_predld, Br: _d_branch, Brnz: _d_branch,
    CallF: _d_call, RetF: _d_ret, AllocH: _d_alloc, PrintR: _d_print,
}


def run_machine(
    program: MProgram,
    args: Optional[list[Value]] = None,
    config: Optional[MachineConfig] = None,
    obs: Optional[TraceContext] = None,
    profile: bool = False,
    injector=None,
    host_profiler=None,
) -> MachineResult:
    """Convenience wrapper."""
    return Simulator(
        program, config, obs=obs, profile=profile, injector=injector,
        host_profiler=host_profiler,
    ).run(args)
