"""Compile an uninterferable fused region into one specialised callable.

Section 5's partial-evaluation claim promises cross-component calls at
"the overhead of a C function call".  Binding fusion
(:mod:`repro.opencom.fusion`) removes the vtable indirection, but C11/C12
showed the residual cost after batching is one Python frame per component
per batch.  This module removes those frames too: given a region whose
vtables carry **no interceptors**, it emits a single specialised callable
for the whole chain by *closure composition* — each component contributes
a batch kernel that calls its downstream kernels directly.

The safety story is the same one fusion already proves: the compiled
callable is installed in a fused-handle subclass
(:class:`CompiledBatchCall`), and
:meth:`~repro.opencom.vtable.VTable.watch_slot` watchers on **every**
method of **every** vtable in the region revoke it the moment any
interceptor appears (or disappears — any reflective touch de-specialises
conservatively).  A revoked handle keeps working: it falls back to
``invoke_batch`` through the entry vtable, i.e. the fully interposed
interpreted path.  Because the handle loads its target once per call,
a batch already in flight finishes on the specialised function and the
*next* batch runs interpreted — exactly the scalar fused-call contract.

Equivalence is the hard invariant: a compiled chain must be
**observationally identical** to the interpreted one — byte-for-byte
egress, identical counter dicts (including which keys exist), identical
drop/release accounting — and is gated by the differential Hypothesis
suite in ``tests/opencom/test_compile_differential.py``.  The only
permitted divergence is the copy ledger, where the specialised v4 kernel
recomputes checksums arithmetically without serialising and therefore
records *fewer* header copies, never more.

Components opt in by duck type:

``compiled_batch_kernel(next_map)``
    Return a batch callable specialised against ``next_map`` (connection
    name → downstream batch kernel), or ``None`` to stay native.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.opencom.errors import OpenComError
from repro.opencom.vtable import FusedBatchCall, VTable


class CompileError(OpenComError):
    """The region cannot be compiled (e.g. interceptors present)."""


class CompiledBatchCall(FusedBatchCall):
    """Fused batch handle whose target is a compiled chain kernel.

    Revocation semantics are inherited unchanged: ``_revoke()`` swaps the
    target for ``vtable.invoke_batch`` on the *entry* vtable, which is the
    interpreted path (and re-interposes per item if that entry slot is the
    intercepted one).
    """

    __slots__ = ()


@dataclass
class CompiledStage:
    """One component's participation in a compiled chain."""

    name: str
    inlined: bool


@dataclass
class CompilationPlan:
    """One compiled chain: the handle, its stages, and its revocation.

    ``handle`` is the callable the call site installs; ``revoke()`` (or
    any interceptor change on a watched vtable) degrades it to the
    interpreted path without the call site noticing.  ``revert()``
    additionally drops the watchers — used on teardown/reconfiguration.
    """

    entry: Any
    method: str
    handle: Any
    stages: list[CompiledStage] = field(default_factory=list)
    _unwatchers: list[Callable[[], None]] = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def revoked(self) -> bool:
        return bool(self.handle.revoked)

    @property
    def active(self) -> bool:
        return not self.handle.revoked

    @property
    def inlined_count(self) -> int:
        """Stages that contributed a specialised kernel (vs native)."""
        return sum(1 for stage in self.stages if stage.inlined)

    def revoke(self) -> None:
        """Degrade the handle to interpreted dispatch (idempotent)."""
        if not self.handle.revoked:
            self.handle._revoke()

    def revert(self) -> None:
        """Revoke and unsubscribe every watcher (terminal teardown)."""
        for unsubscribe in self._unwatchers:
            unsubscribe()
        self._unwatchers.clear()
        self.revoke()

    def summary(self) -> str:
        state = "revoked" if self.revoked else "active"
        return (
            f"compiled {self.method!r} chain [{state}]: "
            f"{len(self.stages)} stage(s), {self.inlined_count} specialised"
        )


# -- region walk ------------------------------------------------------------


def _component_name(component: Any) -> str:
    return getattr(component, "name", None) or type(component).__name__


def _walk_region(entry: Any, interface: str) -> tuple[VTable, list[VTable]]:
    """Collect every vtable reachable from *entry*'s outgoing ports.

    The region is the transitive closure over bound connections — exactly
    the set of slots an interceptor could appear on and silently be
    bypassed by a compiled chain, so exactly the set we must watch.
    """
    entry_vtable = entry.interface(interface).vtable
    vtables: dict[int, VTable] = {id(entry_vtable): entry_vtable}
    seen: set[int] = set()

    def visit(component: Any) -> None:
        if id(component) in seen:
            return
        seen.add(id(component))
        for receptacle in component.receptacles().values():
            for port in receptacle.connections():
                vtable = port.target.vtable
                vtables.setdefault(id(vtable), vtable)
                visit(vtable.impl)

    visit(entry)
    return entry_vtable, list(vtables.values())


def _check_uninterfered(vtables: list[VTable]) -> None:
    """Raise :class:`CompileError` if any region slot has interceptors."""
    problems = []
    for vtable in vtables:
        intercepted = [m for m in vtable.iter_methods() if vtable.intercepted(m)]
        if intercepted:
            problems.append(
                f"{vtable.interface_name} of "
                f"{_component_name(vtable.impl)}: {', '.join(intercepted)}"
            )
    if problems:
        raise CompileError(
            "region carries interceptors, refusing to compile: "
            + "; ".join(problems)
        )


def _subscribe_revocation(plan: CompilationPlan, vtables: list[VTable]) -> None:
    """Revoke *plan* on any interceptor change anywhere in the region.

    ``watch_slot`` fires the setter immediately with the current slot;
    that first synchronous call is the subscription handshake, not a
    change, so it is skipped.  Every later fire — interceptor installed
    *or* removed, on any method of any region vtable — revokes the
    compiled chain.  De-specialising on removal too is deliberately
    conservative: correctness never depends on re-deriving that a region
    became clean again, the owner simply recompiles.
    """
    for vtable in vtables:
        for method in list(vtable.iter_methods()):
            armed = [False]

            def setter(_slot, _armed=armed, _plan=plan):
                if not _armed[0]:
                    _armed[0] = True
                    return
                _plan.revoke()

            plan._unwatchers.append(vtable.watch_slot(method, setter))


# -- closure composition ----------------------------------------------------


class _ClosureBuilder:
    """Memoised bottom-up closure composition over a push region."""

    def __init__(self, method: str, stages: list[CompiledStage]) -> None:
        self.method = method
        self.stages = stages
        self._kernels: dict[int, Callable] = {}

    def kernel_for(self, vtable: VTable) -> Callable:
        component = vtable.impl
        key = id(component)
        cached = self._kernels.get(key)
        if cached is not None:
            return cached
        # Pre-seed with the native callable (the vtable's own unintercepted
        # batch rule) so a (pathological) cycle composes against an
        # un-inlined stage instead of recursing.
        native = vtable._direct_batch(self.method)
        self._kernels[key] = native
        next_map: dict[str, Callable] = {}
        for receptacle in component.receptacles().values():
            for port in receptacle.connections():
                next_map[port.connection_name] = self.kernel_for(port.target.vtable)
        hook = getattr(component, "compiled_batch_kernel", None)
        kernel = hook(next_map) if hook is not None else None
        if kernel is None:
            self.stages.append(
                CompiledStage(_component_name(component), inlined=False)
            )
            return native
        self._kernels[key] = kernel
        self.stages.append(
            CompiledStage(_component_name(component), inlined=True)
        )
        return kernel


# -- public entry point -----------------------------------------------------


def compile_push_chain(
    entry: Any,
    *,
    interface: str = "in0",
    method: str = "push",
    fusion_plan: Any = None,
) -> CompilationPlan:
    """Compile the push region rooted at *entry* into one batch callable.

    Raises :class:`CompileError` when any vtable in the region carries an
    interceptor (compilation is only ever offered for clean regions — the
    same precondition fusion checks per port, enforced here per region).
    When *fusion_plan* is given the chain is recorded on it, so
    ``FusionPlan.revert()`` tears it down with the fused ports.
    """
    entry_vtable, vtables = _walk_region(entry, interface)
    _check_uninterfered(vtables)

    stages: list[CompiledStage] = []
    kernel = _ClosureBuilder(method, stages).kernel_for(entry_vtable)
    plan = CompilationPlan(
        entry=entry,
        method=method,
        handle=CompiledBatchCall(kernel, entry_vtable, method),
        stages=stages,
    )
    _subscribe_revocation(plan, vtables)
    if fusion_plan is not None:
        fusion_plan.record_compiled(plan)
    return plan
