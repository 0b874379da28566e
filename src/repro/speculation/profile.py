"""Alias profiling (paper section 3.1).

The authors instrument ORC-generated code to record "the target set of
every memory load or store operation at runtime" [7,8].  Here the IR
interpreter plays the instrumented binary: a tracer maps every dynamic
indirect access to the abstract :class:`MemObject` naming scheme the
static analysis uses (named variables; allocation-site heap objects),
so the profile and the points-to sets are directly comparable.

``make_profile_decider`` then implements Figure 5: a may-def (χ) of
object *o* at store *S* is speculative iff the profile never saw *S*
write *o* — including stores the training run never executed at all.

Statement, expression and variable ids come from process-wide counters,
so two lowerings of one source share none.  A profile therefore carries
the :class:`ModuleLayout` of the module it observed — its ids by
position — and :meth:`AliasProfile.bind` carries it, position for
position, onto another lowering of the same source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.alias.memobj import HeapMemObject, MemObject, VarMemObject
from repro.errors import ConfigError
from repro.ir.expr import Load, walk_expr
from repro.ir.interp import InterpResult, Interpreter, OwnerTag
from repro.ir.module import Module
from repro.ir.stmt import Assign, Stmt, Store
from repro.ssa.hssa import SpecDecider

#: Normalised owner key comparable between profile and static objects:
#: ("var", variable_id) or ("heap", alloc_statement_sid).
OwnerKey = tuple[str, int]


def _owner_key(owner: Optional[OwnerTag]) -> Optional[OwnerKey]:
    if owner is None:
        return None
    return (owner[0], owner[1])


def object_key(obj: MemObject) -> OwnerKey:
    """The profile key of a static memory object."""
    if isinstance(obj, VarMemObject):
        return ("var", obj.var.id)
    assert isinstance(obj, HeapMemObject)
    return ("heap", obj.alloc.sid)


class ProfileMismatch(ConfigError):
    """An alias profile was bound to a module of a different shape (a
    different program): its observations would name the wrong
    statements."""


@dataclass(frozen=True)
class ModuleLayout:
    """A module's ids by position: variables in module order (globals,
    then each function's params and locals), statements in layout order
    (chk.a recovery code after its check), expressions pre-order within
    each statement.  Sema and lowering of one parse are deterministic,
    so every lowering of a source has the same ``shape`` — the function
    and variable names and statement/expression kinds, in that order —
    and its ids differ only in value."""

    variables: tuple[int, ...]
    stmts: tuple[int, ...]
    exprs: tuple[int, ...]
    shape: tuple[str, ...]

    @classmethod
    def of(cls, module: Module) -> "ModuleLayout":
        variables: list[int] = []
        stmts: list[int] = []
        exprs: list[int] = []
        kinds: list[str] = []

        def walk(seq) -> None:
            for stmt in seq:
                stmts.append(stmt.sid)
                kinds.append(type(stmt).__name__)
                for top in stmt.exprs():
                    for e in walk_expr(top):
                        exprs.append(e.eid)
                        kinds.append(type(e).__name__)
                if isinstance(stmt, Assign) and stmt.recovery:
                    walk(stmt.recovery)

        for var in module.globals:
            variables.append(var.id)
            kinds.append(var.name)
        for fn in module.iter_functions():
            kinds.append(fn.name)
            for var in fn.all_variables():
                variables.append(var.id)
                kinds.append(var.name)
            for block in fn.blocks:
                kinds.append(":")
                walk(block.stmts)
        return cls(tuple(variables), tuple(stmts), tuple(exprs), tuple(kinds))


@dataclass
class AliasProfile:
    """Observed target sets, keyed like the static occurrence maps: by
    the ids of the module the training run interpreted, whose layout
    ``layout`` records (None for a profile built by hand)."""

    #: store statement sid -> owner keys actually written
    store_targets: dict[int, set[OwnerKey]] = field(default_factory=dict)
    #: load expression eid -> owner keys actually read
    load_targets: dict[int, set[OwnerKey]] = field(default_factory=dict)
    #: dynamic counts (for reporting)
    store_counts: dict[int, int] = field(default_factory=dict)
    load_counts: dict[int, int] = field(default_factory=dict)
    layout: Optional[ModuleLayout] = None

    def bind(self, module: Module) -> "AliasProfile":
        """This profile keyed by ``module``'s ids: itself when it was
        collected on ``module``, else a copy re-keyed position for
        position.  Raises :class:`ProfileMismatch` when ``module`` is
        not a lowering of the profiled program."""
        layout = ModuleLayout.of(module)
        if self.layout == layout:
            return self
        return self._rekeyed(layout)

    def _rekeyed(self, layout: ModuleLayout) -> "AliasProfile":
        old = self.layout
        if old is None or old.shape != layout.shape:
            raise ProfileMismatch(
                "alias profile was collected on a different program"
                if old is not None else
                "alias profile carries no module layout to bind by"
            )
        var = dict(zip(old.variables, layout.variables))
        sid = dict(zip(old.stmts, layout.stmts))
        eid = dict(zip(old.exprs, layout.exprs))
        owner = {"var": var, "heap": sid}

        def targets(mapping, ids):
            return {ids[k]: {(kind, owner[kind][i]) for kind, i in keys}
                    for k, keys in mapping.items()}

        return AliasProfile(
            store_targets=targets(self.store_targets, sid),
            load_targets=targets(self.load_targets, eid),
            store_counts={sid[k]: n for k, n in self.store_counts.items()},
            load_counts={eid[k]: n for k, n in self.load_counts.items()},
            layout=layout,
        )

    def merge(self, other: "AliasProfile") -> None:
        """Accumulate another run's observations (multi-input train) —
        of this module or, re-keyed, of another lowering of it."""
        if other.layout != self.layout and self.layout is not None:
            other = other._rekeyed(self.layout)
        for sid, keys in other.store_targets.items():
            self.store_targets.setdefault(sid, set()).update(keys)
        for eid, keys in other.load_targets.items():
            self.load_targets.setdefault(eid, set()).update(keys)
        for sid, n in other.store_counts.items():
            self.store_counts[sid] = self.store_counts.get(sid, 0) + n
        for eid, n in other.load_counts.items():
            self.load_counts[eid] = self.load_counts.get(eid, 0) + n

    @property
    def total_dynamic_stores(self) -> int:
        return sum(self.store_counts.values())

    @property
    def total_dynamic_loads(self) -> int:
        return sum(self.load_counts.values())


class _ProfilingTracer:
    def __init__(self) -> None:
        self.profile = AliasProfile()

    def on_indirect_load(
        self, load: Load, stmt: Stmt, addr: int, owner: Optional[OwnerTag]
    ) -> None:
        key = _owner_key(owner)
        if key is not None:
            self.profile.load_targets.setdefault(load.eid, set()).add(key)
        self.profile.load_counts[load.eid] = (
            self.profile.load_counts.get(load.eid, 0) + 1
        )

    def on_indirect_store(
        self, stmt: Store, addr: int, owner: Optional[OwnerTag]
    ) -> None:
        key = _owner_key(owner)
        if key is not None:
            self.profile.store_targets.setdefault(stmt.sid, set()).add(key)
        self.profile.store_counts[stmt.sid] = (
            self.profile.store_counts.get(stmt.sid, 0) + 1
        )


def collect_alias_profile(
    module: Module,
    args: Optional[list[Union[int, float]]] = None,
    max_steps: int = 50_000_000,
) -> tuple[AliasProfile, InterpResult]:
    """Run ``main(args)`` under the interpreter, collecting the profile.

    Run this on the module *before* optimisation: the promoter consults
    the unoptimised statements and expressions.  The profile records the
    module's layout, so :meth:`AliasProfile.bind` can key it to another
    lowering of the same source.
    """
    tracer = _ProfilingTracer()
    result = Interpreter(module, tracer=tracer, max_steps=max_steps).run(args)
    tracer.profile.layout = ModuleLayout.of(module)
    return tracer.profile, result


def make_profile_decider(profile: AliasProfile) -> SpecDecider:
    """Figure 5, extended with a repair mechanism per may-def.

    A χ whose target never appears in the profiled target set of the
    store is speculated through the **ALAT** (checks are free when the
    profile holds).  A χ whose target *was* observed still promotes —
    the -O3 baseline's software compare-and-reload scheme handles it,
    as it does in ORC where that optimisation stays enabled underneath
    the speculative promotion ("our results include this
    optimization", section 5).  Calls keep their conservative χ lists.
    """

    def decider(stmt: Stmt, obj: MemObject):
        if not isinstance(stmt, Store):
            return None
        observed = profile.store_targets.get(stmt.sid)
        if observed is None:
            # Never executed during training: fully speculative (paper:
            # "operations related to the targets that do not appear in
            # the alias profile").
            return "alat"
        return "soft" if object_key(obj) in observed else "alat"

    return decider
