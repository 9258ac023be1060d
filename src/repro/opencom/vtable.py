"""Virtual dispatch tables with vtable-level interception and fusion.

OpenCOM dispatches every cross-component call through a per-interface
*vtable*.  The vtable is the reflective hook of the model: interceptors are
spliced into individual slots (the paper: interception "is very efficient as
it is implemented at the vtable level"), and, conversely, when no
interceptors are present a slot can be *fused* -- the partial-evaluation
optimisation of section 5 that reduces a cross-component call to the cost of
a plain function call.

Three dispatch regimes coexist per slot:

``interposed``
    pre/post/around interceptors wrap the implementation; rebuilt as a
    composed closure whenever the interceptor set changes, so steady-state
    calls never walk an interceptor list.
``indirect``
    no interceptors; the slot holds the bound implementation method and the
    call costs one dictionary lookup plus one call (the "vtable" cost).
``fused``
    the caller has been handed the raw bound method; zero indirection.
    Fusing is only permitted while the slot is unintercepted, and adding an
    interceptor revokes outstanding fused references (callers observe this
    through :class:`FusedCall` becoming stale).

Every regime also has a *batch* variant that dispatches whole lists per
crossing — or a single call to the implementation's native
``<method>_batch`` when one exists and the slot is unintercepted.  Batch
dispatch comes in two shapes, selected by the arity of the underlying
interface method:

*push-shaped* (arity 1, ``push``-style)
    :meth:`VTable.invoke_batch`, :meth:`VTable.fuse_batch`,
    :meth:`VTable.watch_batch_slot`.  The batch callable takes a list and
    returns nothing; the native method is ``<method>_batch(items)``.
*pull-shaped* (arity 0, ``pull``-style)
    :meth:`VTable.invoke_pull_batch`, :meth:`VTable.watch_pull_batch_slot`
    (how fused ports draw).  The batch callable takes ``max_n`` and
    returns the list of items produced before the source ran dry (a
    ``None`` from the scalar method ends the batch early); the native
    method is ``<method>_batch(max_n) -> list``.

The safety invariant is identical on both shapes and mirrors the scalar
path: as soon as a slot gains an interceptor, batch dispatch degrades to
one interposed call per item — pushes cross the interceptor one element at
a time, pulls are drawn one interposed call at a time (interceptors
observe every produced item through ``CallContext.result``) — so the
native batch method is never allowed to smuggle items past reflection.
Removing the last interceptor restores native batch dispatch.

This degradation rule is one of the two load-bearing dispatch invariants
of the repo (the other — why ``pull_batch`` is a *discovered* convention
rather than a declared interface method — lives with ``IPacketPull`` in
:mod:`repro.router.interfaces`); both are summarised with the datapath
walkthrough in ``docs/architecture.md``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.opencom.errors import InterfaceError
from repro.opencom.interfaces import Interface, implements, methods_of


@dataclass
class CallContext:
    """Context handed to pre/post interceptors for one dispatched call."""

    interface_name: str
    method_name: str
    args: tuple
    kwargs: dict
    #: Set by post-interceptors' view of the call; ``None`` until the
    #: implementation has returned.
    result: Any = None
    #: Free-form scratch space shared by the interceptors of one call.
    scratch: dict = field(default_factory=dict)


PreInterceptor = Callable[[CallContext], None]
PostInterceptor = Callable[[CallContext], None]
AroundInterceptor = Callable[[Callable[..., Any], CallContext], Any]


@dataclass
class _SlotInterceptors:
    """Interceptor sets for one vtable slot, keyed by registration name."""

    pre: dict[str, PreInterceptor] = field(default_factory=dict)
    post: dict[str, PostInterceptor] = field(default_factory=dict)
    around: dict[str, AroundInterceptor] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.pre or self.post or self.around)

    def count(self) -> int:
        return len(self.pre) + len(self.post) + len(self.around)


class FusedCall:
    """Handle to a fused (direct) slot call.

    Calling the handle is as cheap as calling the implementation method
    directly, except for a single attribute load of ``_target``.  When the
    originating slot gains an interceptor the handle is *revoked*: it keeps
    working, but transparently falls back to dispatching through the vtable
    so interception is never bypassed.
    """

    __slots__ = ("_target", "_vtable", "_name", "revoked")

    def __init__(self, target: Callable[..., Any], vtable: "VTable", name: str) -> None:
        self._target = target
        self._vtable = vtable
        self._name = name
        self.revoked = False

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self._target(*args, **kwargs)

    def _revoke(self) -> None:
        """Redirect the handle back through the vtable (slow path)."""
        vtable, name = self._vtable, self._name
        self._target = lambda *a, **kw: vtable.invoke(name, *a, **kw)
        self.revoked = True

    def _refresh(self, target: Callable[..., Any]) -> None:
        """Re-fuse the handle onto a direct target after interceptors are
        removed again."""
        self._target = target
        self.revoked = False


class FusedBatchCall(FusedCall):
    """Handle to a fused batch call: ``handle(items)`` processes a list.

    While the originating slot is unintercepted the handle targets the
    implementation's native ``<method>_batch`` (or a tight loop over the
    raw bound method).  Interceptor installation revokes it exactly like a
    scalar :class:`FusedCall`: the handle keeps working but dispatches each
    item through the vtable so interception observes every element.
    """

    __slots__ = ()

    def _revoke(self) -> None:
        vtable, name = self._vtable, self._name
        self._target = lambda items: vtable.invoke_batch(name, items)
        self.revoked = True


class VTable:
    """Dispatch table for one exposed interface instance.

    Parameters
    ----------
    itype:
        The interface type whose methods define the slots.
    impl:
        The implementation object; must structurally conform to *itype*.
    interface_name:
        The exposure name (e.g. ``"in0"``); used in diagnostics and in
        call contexts.
    """

    def __init__(self, itype: type[Interface], impl: object, interface_name: str) -> None:
        problems = implements(impl, itype)
        if problems:
            raise InterfaceError(
                f"implementation {type(impl).__name__} does not conform to "
                f"{itype.interface_name()}: " + "; ".join(problems)
            )
        self.itype = itype
        self.impl = impl
        self.interface_name = interface_name
        #: Raw bound methods, one per declared interface method.
        self._raw: dict[str, Callable[..., Any]] = {
            m.name: getattr(impl, m.name) for m in methods_of(itype)
        }
        #: Effective slots: raw methods, or composed interceptor closures.
        self._slots: dict[str, Callable[..., Any]] = dict(self._raw)
        #: Declared arity per method: decides whether a slot's batch shape
        #: is push-style (arity 1: ``<m>_batch(items)``) or pull-style
        #: (arity 0: ``<m>_batch(max_n) -> list``).
        self._arity: dict[str, int] = {m.name: m.arity for m in methods_of(itype)}
        #: Native batch implementations: ``<method>_batch`` callables found
        #: on the impl object.  Used by the batch dispatch paths while the
        #: corresponding slot is unintercepted.
        self._raw_batch: dict[str, Callable[..., Any]] = {}
        for m in methods_of(itype):
            native = getattr(impl, f"{m.name}_batch", None)
            if callable(native):
                self._raw_batch[m.name] = native
        #: Effective batch callables, built lazily per slot and invalidated
        #: on every interceptor change.
        self._batch_slots: dict[str, Callable[..., Any]] = {}
        #: Effective pull-batch callables (same lifecycle as _batch_slots).
        self._pull_batch_slots: dict[str, Callable[..., Any]] = {}
        self._interceptors: dict[str, _SlotInterceptors] = {}
        self._fused: dict[str, list[FusedCall]] = {}
        self._fused_batch: dict[str, list[FusedBatchCall]] = {}
        self._batch_watchers: dict[str, list[Callable[[Callable[..., Any]], None]]] = {}
        self._pull_batch_watchers: dict[
            str, list[Callable[[Callable[..., Any]], None]]
        ] = {}
        #: Monomorphic inline cache for :meth:`invoke`: data-path callers
        #: repeat the same method name, so the steady-state cost is one
        #: string compare and one attribute load instead of a dict lookup.
        self._ic_name: str | None = None
        self._ic_slot: Callable[..., Any] | None = None
        #: Slot watchers: called with the effective slot callable now and
        #: after every interceptor change.  This is the zero-overhead
        #: fusion path: watchers install the *raw bound method* at their
        #: call site while a slot is unintercepted, and the vtable swaps
        #: the dispatch closure in when interception appears.
        self._watchers: dict[str, list[Callable[[Callable[..., Any]], None]]] = {}

    # -- dispatch -----------------------------------------------------------

    def invoke(self, method_name: str, *args: Any, **kwargs: Any) -> Any:
        """Dispatch a call through the vtable (the 'indirect' regime).

        Warm-path cost is one name compare plus one bound-callable load:
        the last dispatched slot is cached inline and invalidated whenever
        the slot set or an interceptor changes.
        """
        if method_name == self._ic_name:
            return self._ic_slot(*args, **kwargs)
        try:
            slot = self._slots[method_name]
        except KeyError:
            raise InterfaceError(
                f"interface {self.itype.interface_name()} has no method "
                f"{method_name!r}"
            ) from None
        self._ic_name = method_name
        self._ic_slot = slot
        return slot(*args, **kwargs)

    def invoke_batch(self, method_name: str, items: list) -> None:
        """Dispatch one call per element of *items* through the vtable.

        Unintercepted slots use the implementation's native
        ``<method>_batch(items)`` when it exists (one cross-component call
        for the whole list), falling back to a tight loop over the raw
        bound method.  Intercepted slots always dispatch item-by-item
        through the composed interceptor closure, so interceptors observe
        every element.  Designed for void single-argument data-path methods
        (``push``-style); return values are discarded.  Zero-argument
        (``pull``-style) slots are refused — use
        :meth:`invoke_pull_batch` for those.
        """
        batch = self._batch_slots.get(method_name)
        if batch is None:
            self._require_shape(method_name, pull=False)
            batch = self._effective_batch(method_name)
            self._batch_slots[method_name] = batch
        batch(items)

    def invoke_pull_batch(self, method_name: str, max_n: int) -> list:
        """Draw up to *max_n* items from a pull-style slot as one batch.

        The pull-shaped twin of :meth:`invoke_batch` — the reflection
        invariant of the pull side lives here.  Unintercepted slots use
        the implementation's native ``<method>_batch(max_n)`` when it
        exists (the whole batch crosses the component boundary in one
        call), falling back to a collect loop over the raw bound method.
        The moment the slot gains an interceptor the batch degrades to one
        *interposed* scalar call per item, so interceptors observe every
        produced item (via ``CallContext.result``) and the native batch
        method can never smuggle items past reflection.  A ``None`` from
        the scalar method ends the batch early; the items produced so far
        are returned.  Single-argument (``push``-style) slots are refused
        — use :meth:`invoke_batch` for those.
        """
        puller = self._pull_batch_slots.get(method_name)
        if puller is None:
            self._require_shape(method_name, pull=True)
            puller = self._effective_pull_batch(method_name)
            self._pull_batch_slots[method_name] = puller
        return puller(max_n)

    def slot(self, method_name: str) -> Callable[..., Any]:
        """Return the current effective slot callable for *method_name*.

        The returned callable reflects interceptors installed *at the time
        of the call to this function*; callers that must observe later
        interceptor changes should use :meth:`invoke` or :meth:`fuse`.
        """
        try:
            return self._slots[method_name]
        except KeyError:
            raise InterfaceError(
                f"interface {self.itype.interface_name()} has no method "
                f"{method_name!r}"
            ) from None

    def fuse(self, method_name: str) -> FusedCall:
        """Return a revocable direct-call handle for *method_name*.

        While the slot is unintercepted the handle calls the implementation
        method with zero vtable indirection; if interceptors appear later
        the handle silently reverts to full dispatch.
        """
        if method_name not in self._raw:
            raise InterfaceError(
                f"interface {self.itype.interface_name()} has no method "
                f"{method_name!r}"
            )
        intercepted = bool(self._interceptors.get(method_name))
        target = self._slots[method_name] if intercepted else self._raw[method_name]
        handle = FusedCall(target, self, method_name)
        if intercepted:
            handle.revoked = True
        self._fused.setdefault(method_name, []).append(handle)
        return handle

    def fuse_batch(self, method_name: str) -> FusedBatchCall:
        """Return a revocable direct batch-call handle for *method_name*.

        ``handle(items)`` processes a whole list at the cost of a single
        call while the slot is unintercepted; interceptor installation
        reverts it to per-item vtable dispatch (see
        :class:`FusedBatchCall`).
        """
        self._require_shape(method_name, pull=False)
        handle = FusedBatchCall(self._direct_batch(method_name), self, method_name)
        if self._interceptors.get(method_name):
            handle._revoke()
        self._fused_batch.setdefault(method_name, []).append(handle)
        return handle

    def watch_slot(
        self, method_name: str, setter: Callable[[Callable[..., Any]], None]
    ) -> Callable[[], None]:
        """Register a call-site *setter* for one slot.

        The setter is invoked immediately with the current effective slot
        (the raw bound method when unintercepted — true direct dispatch)
        and again whenever the effective slot changes.  Returns an
        unsubscribe callable.
        """
        if method_name not in self._raw:
            raise InterfaceError(
                f"interface {self.itype.interface_name()} has no method "
                f"{method_name!r}"
            )
        watchers = self._watchers.setdefault(method_name, [])
        watchers.append(setter)
        setter(self._slots[method_name])

        def unsubscribe() -> None:
            try:
                watchers.remove(setter)
            except ValueError:
                pass

        return unsubscribe

    def watch_batch_slot(
        self, method_name: str, setter: Callable[[Callable[..., Any]], None]
    ) -> Callable[[], None]:
        """Register a call-site *setter* for one slot's batch callable.

        The batch analogue of :meth:`watch_slot`: the setter receives the
        current effective batch callable (native ``<method>_batch`` or a
        raw-method loop while unintercepted; a per-item dispatch loop once
        interceptors appear) and is re-invoked on every interceptor change.
        Returns an unsubscribe callable.
        """
        self._require_shape(method_name, pull=False)
        watchers = self._batch_watchers.setdefault(method_name, [])
        watchers.append(setter)
        setter(self._effective_batch(method_name))

        def unsubscribe() -> None:
            try:
                watchers.remove(setter)
            except ValueError:
                pass

        return unsubscribe

    def watch_pull_batch_slot(
        self, method_name: str, setter: Callable[[Callable[..., Any]], None]
    ) -> Callable[[], None]:
        """Register a call-site *setter* for one slot's pull-batch callable.

        The pull-shaped analogue of :meth:`watch_batch_slot`: the setter
        receives the current effective pull-batch callable (native
        ``<method>_batch`` or a raw-method collect loop while
        unintercepted; an interposed per-item draw loop once interceptors
        appear) and is re-invoked on every interceptor change.  Returns an
        unsubscribe callable.
        """
        self._require_shape(method_name, pull=True)
        watchers = self._pull_batch_watchers.setdefault(method_name, [])
        watchers.append(setter)
        setter(self._effective_pull_batch(method_name))

        def unsubscribe() -> None:
            try:
                watchers.remove(setter)
            except ValueError:
                pass

        return unsubscribe

    # -- interception -------------------------------------------------------

    def add_pre(self, method_name: str, name: str, fn: PreInterceptor) -> None:
        """Install a pre-interceptor on one slot under a registration name."""
        self._interceptors_for(method_name).pre[name] = fn
        self._rebuild(method_name)

    def add_post(self, method_name: str, name: str, fn: PostInterceptor) -> None:
        """Install a post-interceptor on one slot under a registration name."""
        self._interceptors_for(method_name).post[name] = fn
        self._rebuild(method_name)

    def add_around(self, method_name: str, name: str, fn: AroundInterceptor) -> None:
        """Install an around-interceptor; it receives ``(proceed, context)``
        and is responsible for calling ``proceed`` (or not)."""
        self._interceptors_for(method_name).around[name] = fn
        self._rebuild(method_name)

    def remove_interceptor(self, method_name: str, name: str) -> bool:
        """Remove interceptor *name* from a slot (any kind).

        Returns True when something was removed.
        """
        entry = self._interceptors.get(method_name)
        if entry is None:
            return False
        removed = False
        for table in (entry.pre, entry.post, entry.around):
            if name in table:
                del table[name]
                removed = True
        if removed:
            self._rebuild(method_name)
        return removed

    def interceptor_names(self, method_name: str) -> list[str]:
        """Registration names of all interceptors on one slot."""
        entry = self._interceptors.get(method_name)
        if entry is None:
            return []
        return sorted({*entry.pre, *entry.post, *entry.around})

    def intercepted(self, method_name: str) -> bool:
        """True when the slot currently has at least one interceptor."""
        return bool(self._interceptors.get(method_name))

    def iter_methods(self) -> Iterator[str]:
        """Iterate slot (method) names in vtable order."""
        return iter(self._raw)

    # -- internals ----------------------------------------------------------

    def _require_shape(self, method_name: str, *, pull: bool) -> None:
        """Validate that a slot exists and has the requested batch shape.

        Pull-shaped batch dispatch only fits zero-argument methods (the
        scalar call *produces* the item); push-shaped batch dispatch needs
        at least one argument (the scalar call *consumes* the item).
        """
        arity = self._arity.get(method_name)
        if arity is None:
            raise InterfaceError(
                f"interface {self.itype.interface_name()} has no method "
                f"{method_name!r}"
            )
        if pull and arity != 0:
            raise InterfaceError(
                f"method {method_name!r} of {self.itype.interface_name()} "
                f"takes {arity} argument(s); pull-batch dispatch requires a "
                "zero-argument (pull-style) method — use the push-shaped "
                "batch API instead"
            )
        if not pull and arity != 1:
            hint = (
                "use invoke_pull_batch/watch_pull_batch_slot"
                if arity == 0
                else "multi-argument methods have no batch shape"
            )
            raise InterfaceError(
                f"method {method_name!r} of {self.itype.interface_name()} "
                f"takes {arity} argument(s); push-batch dispatch requires a "
                f"single-argument (push-style) method — {hint}"
            )

    def _direct_batch(self, method_name: str) -> Callable[..., Any]:
        """Zero-interception batch callable: the implementation's native
        ``<method>_batch``, or a tight loop over the raw bound method."""
        native = self._raw_batch.get(method_name)
        if native is not None:
            return native
        raw = self._raw[method_name]

        def loop(items: list) -> None:
            for item in items:
                raw(item)

        return loop

    def _effective_batch(self, method_name: str) -> Callable[..., Any]:
        """The batch callable honouring the slot's current regime."""
        if not self._interceptors.get(method_name):
            return self._direct_batch(method_name)
        slot = self._slots[method_name]

        def dispatch_batch(items: list) -> None:
            for item in items:
                slot(item)

        return dispatch_batch

    def _direct_pull_batch(self, method_name: str) -> Callable[..., Any]:
        """Zero-interception pull-batch callable: the implementation's
        native ``<method>_batch(max_n)``, or a collect loop over the raw
        bound method that stops at *max_n* items or the first ``None``."""
        native = self._raw_batch.get(method_name)
        if native is not None:
            return native
        raw = self._raw[method_name]

        def collect(max_n: int) -> list:
            items: list = []
            while len(items) < max_n:
                item = raw()
                if item is None:
                    break
                items.append(item)
            return items

        return collect

    def _effective_pull_batch(self, method_name: str) -> Callable[..., Any]:
        """The pull-batch callable honouring the slot's current regime.

        The pull-side reflection invariant: an intercepted slot draws one
        *interposed* scalar call per item, so every produced item crosses
        the composed interceptor closure (pre-interceptors see the call,
        post/around interceptors see the item via ``CallContext.result``).
        The native ``<method>_batch`` is only ever reached while the slot
        is unintercepted.
        """
        if not self._interceptors.get(method_name):
            return self._direct_pull_batch(method_name)
        slot = self._slots[method_name]

        def dispatch_pull_batch(max_n: int) -> list:
            items: list = []
            while len(items) < max_n:
                item = slot()
                if item is None:
                    break
                items.append(item)
            return items

        return dispatch_pull_batch

    def _interceptors_for(self, method_name: str) -> _SlotInterceptors:
        if method_name not in self._raw:
            raise InterfaceError(
                f"interface {self.itype.interface_name()} has no method "
                f"{method_name!r}"
            )
        return self._interceptors.setdefault(method_name, _SlotInterceptors())

    def _rebuild(self, method_name: str) -> None:
        """Recompose the effective slot after an interceptor change.

        Composition happens once per change, so the steady-state dispatch
        cost is one closure call per interceptor rather than a list walk
        with per-call conditionals.
        """
        raw = self._raw[method_name]
        entry = self._interceptors.get(method_name)
        self._ic_name = None
        self._ic_slot = None
        self._batch_slots.pop(method_name, None)
        self._pull_batch_slots.pop(method_name, None)
        if not entry:
            self._slots[method_name] = raw
            for handle in self._fused.get(method_name, []):
                handle._refresh(raw)
            for setter in self._watchers.get(method_name, []):
                setter(raw)
            if (
                self._fused_batch.get(method_name)
                or self._batch_watchers.get(method_name)
            ):
                direct_batch = self._direct_batch(method_name)
                for handle in self._fused_batch.get(method_name, []):
                    handle._refresh(direct_batch)
                for setter in self._batch_watchers.get(method_name, []):
                    setter(direct_batch)
            if self._pull_batch_watchers.get(method_name):
                direct_pull = self._direct_pull_batch(method_name)
                for setter in self._pull_batch_watchers[method_name]:
                    setter(direct_pull)
            return

        pres = list(entry.pre.values())
        posts = list(entry.post.values())
        arounds = list(entry.around.values())
        iface_name = self.interface_name

        def dispatch(*args: Any, **kwargs: Any) -> Any:
            ctx = CallContext(iface_name, method_name, args, kwargs)
            for pre in pres:
                pre(ctx)

            def proceed(*a: Any, **kw: Any) -> Any:
                # Around interceptors may re-invoke with altered arguments;
                # default to the (possibly pre-interceptor-mutated) context.
                call_args = a if a else ctx.args
                call_kwargs = kw if kw else ctx.kwargs
                return raw(*call_args, **call_kwargs)

            invoke = proceed
            for around in reversed(arounds):
                invoke = _wrap_around(around, invoke, ctx)
            ctx.result = invoke()
            for post in posts:
                post(ctx)
            return ctx.result

        self._slots[method_name] = dispatch
        for handle in self._fused.get(method_name, []):
            handle._revoke()
        for setter in self._watchers.get(method_name, []):
            setter(dispatch)
        for handle in self._fused_batch.get(method_name, []):
            handle._revoke()
        if self._batch_watchers.get(method_name):
            interposed_batch = self._effective_batch(method_name)
            for setter in self._batch_watchers[method_name]:
                setter(interposed_batch)
        if self._pull_batch_watchers.get(method_name):
            interposed_pull = self._effective_pull_batch(method_name)
            for setter in self._pull_batch_watchers[method_name]:
                setter(interposed_pull)


def _wrap_around(
    around: AroundInterceptor, inner: Callable[..., Any], ctx: CallContext
) -> Callable[..., Any]:
    """Bind one around-interceptor over *inner* for a single call context."""

    def wrapped() -> Any:
        return around(inner, ctx)

    return wrapped
