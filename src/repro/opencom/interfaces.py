"""Interface types for the OpenCOM component model.

In the paper, OpenCOM components interact through *interfaces* (provided)
and *receptacles* (required interfaces).  Interface types are
language-independent and introspectable through a "type library".  In this
reproduction an interface type is a plain Python class deriving from
:class:`Interface` whose methods are *declarations*: bodies are never
executed, only their names and signatures matter.  The module keeps a global
registry (the type-library analogue) so the interface meta-model can
enumerate and look up types by name.

Example
-------
>>> class IGreeter(Interface):
...     '''Says hello.'''
...     def greet(self, name: str) -> str: ...
>>> IGreeter.interface_name()
'IGreeter'
>>> [m.name for m in methods_of(IGreeter)]
['greet']
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field

from repro.opencom.errors import InterfaceError

#: Global interface type registry: name -> Interface subclass.  This plays
#: the role of the Windows type library the paper's introspection builds on.
_INTERFACE_REGISTRY: dict[str, type["Interface"]] = {}


@dataclass(frozen=True)
class MethodSignature:
    """Introspected description of one interface method.

    Attributes
    ----------
    name:
        The method name.
    parameters:
        Parameter names excluding ``self``, in declaration order.
    doc:
        The method docstring, or ``""``.
    annotations:
        Mapping of parameter name (and ``"return"``) to annotation, as
        written in the declaration.  Annotations are informational only;
        the runtime does not enforce them.
    """

    name: str
    parameters: tuple[str, ...]
    doc: str = ""
    annotations: dict[str, object] = field(default_factory=dict, compare=False)

    @property
    def arity(self) -> int:
        """Number of declared parameters (excluding ``self``)."""
        return len(self.parameters)


class Interface:
    """Base class for all OpenCOM interface types.

    Subclassing registers the type in the global type library.  Interface
    classes are declarations only: they are never instantiated, and their
    method bodies (conventionally ``...``) are never run.

    Class attributes
    ----------------
    VERSION:
        Interface version; components and receptacles only match when their
        interface types are the same class, so versioning is by identity,
        but the version string is exposed for introspection.
    """

    VERSION = "1.0"

    def __init__(self) -> None:
        raise InterfaceError(
            f"interface type {type(self).__name__} is a declaration and "
            "cannot be instantiated"
        )

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        name = cls.__name__
        existing = _INTERFACE_REGISTRY.get(name)
        if existing is not None and existing is not cls:
            # Re-declaration happens legitimately under test re-imports;
            # keep the newest declaration but only if it is structurally
            # identical, otherwise refuse the ambiguity.
            declared = {m.name for m in methods_of(cls)}
            if {m.name for m in methods_of(existing)} != declared:
                raise InterfaceError(
                    f"interface name {name!r} re-declared with a different "
                    "method set"
                )
        _INTERFACE_REGISTRY[name] = cls

    @classmethod
    def interface_name(cls) -> str:
        """Registry name of this interface type."""
        return cls.__name__


def is_interface_type(obj: object) -> bool:
    """Return True when *obj* is a concrete interface type (a strict
    subclass of :class:`Interface`)."""
    return isinstance(obj, type) and issubclass(obj, Interface) and obj is not Interface


def require_interface_type(obj: object) -> type[Interface]:
    """Validate and return *obj* as an interface type, raising
    :class:`InterfaceError` otherwise."""
    if not is_interface_type(obj):
        raise InterfaceError(f"{obj!r} is not an Interface subclass")
    return obj  # type: ignore[return-value]


@functools.cache
def methods_of(itype: type[Interface]) -> tuple[MethodSignature, ...]:
    """Introspect the declared methods of an interface type.

    Inherited methods from intermediate interface bases are included;
    anything defined on :class:`Interface` itself or dunder-named is not.
    Results are sorted by declaration order within each class, base classes
    first, which gives stable "vtable slot" ordering.  A type is
    introspected once; later calls return the same immutable tuple.
    """
    require_interface_type(itype)
    signatures: list[MethodSignature] = []
    seen: set[str] = set()
    # Walk the MRO base-first so overridden declarations keep base ordering.
    for klass in reversed(itype.__mro__):
        if klass in (object, Interface):
            continue
        for name, member in vars(klass).items():
            if name.startswith("_") or not callable(member):
                continue
            if name in seen:
                continue
            seen.add(name)
            sig = inspect.signature(member)
            params = tuple(p for p in sig.parameters if p != "self")
            annotations = dict(getattr(member, "__annotations__", {}))
            signatures.append(
                MethodSignature(
                    name=name,
                    parameters=params,
                    doc=inspect.getdoc(member) or "",
                    annotations=annotations,
                )
            )
    return tuple(signatures)


def lookup_interface(name: str) -> type[Interface]:
    """Look an interface type up by registry name.

    Raises
    ------
    InterfaceError
        If no interface of that name has been declared.
    """
    try:
        return _INTERFACE_REGISTRY[name]
    except KeyError:
        raise InterfaceError(f"unknown interface type {name!r}") from None


def registered_interfaces() -> dict[str, type[Interface]]:
    """Snapshot of the global type library (name -> type)."""
    return dict(_INTERFACE_REGISTRY)


def implements(impl: object, itype: type[Interface]) -> list[str]:
    """Check structurally whether *impl* provides every method of *itype*.

    Returns a list of human-readable problems; an empty list means the
    implementation conforms.  Conformance is structural (duck-typed): the
    implementation must expose a callable for every declared method with a
    compatible parameter count.  Implementations may accept extra optional
    parameters.
    """
    problems: list[str] = []
    for method in methods_of(itype):
        candidate = getattr(impl, method.name, None)
        if candidate is None:
            problems.append(f"missing method {method.name!r}")
            continue
        if not callable(candidate):
            problems.append(f"attribute {method.name!r} is not callable")
            continue
        try:
            sig = inspect.signature(candidate)
        except (TypeError, ValueError):
            # Builtins without introspectable signatures: accept on faith.
            continue
        required = [
            p
            for p in sig.parameters.values()
            if p.default is inspect.Parameter.empty
            and p.kind
            in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
            and p.name != "self"
        ]
        has_var_positional = any(
            p.kind is inspect.Parameter.VAR_POSITIONAL for p in sig.parameters.values()
        )
        if len(required) > method.arity and not has_var_positional:
            problems.append(
                f"method {method.name!r} requires {len(required)} arguments "
                f"but the interface declares {method.arity}"
            )
    return problems


# ---------------------------------------------------------------------------
# Core lifecycle interfaces shared by the whole system.
# ---------------------------------------------------------------------------


class ILifeCycle(Interface):
    """Standard lifecycle interface supported by every OpenCOM component."""

    def startup(self) -> None:
        """Transition the component into the running state."""
        ...

    def shutdown(self) -> None:
        """Transition the component into the stopped state, releasing any
        held resources."""
        ...


class IMetaInterface(Interface):
    """Standard meta-interface for introspecting a component's interfaces
    and receptacles (the interface meta-model entry point)."""

    def enum_interfaces(self) -> list:
        """Enumerate exposed interface descriptions."""
        ...

    def enum_receptacles(self) -> list:
        """Enumerate declared receptacle descriptions."""
        ...
