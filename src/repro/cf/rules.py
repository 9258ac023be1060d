"""Declarative plug-in rules for component frameworks.

Szyperski via the paper: a CF is a collection of "rules and interfaces that
govern the interaction of a set of components 'plugged into' them".  Rules
here are small objects with a ``check(component) -> list[str]`` method
returning failure descriptions (empty means pass), so a CF's rule set is a
plain list that can be introspected, extended per-CF, and reported on
precisely when a component is rejected.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.opencom.component import Component
from repro.opencom.interfaces import Interface


@dataclass(frozen=True)
class Violation:
    """One typed rule failure: *which* rule rejected and *why*.

    ``check_rules`` keeps returning bare strings (every existing CF call
    site reports failure lists); consumers that must act on the rule
    identity — the adaptation stratum vetoes an action and records the
    rule that stopped it — use :func:`explain_rules` instead and get the
    (rule, reason) pair intact.
    """

    rule: str
    reason: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.reason}"


class Rule:
    """Base class for rules.  CF plug-in rules check a component; the
    adaptation rules (:mod:`repro.coordination.adaptation`) override
    ``check`` to take an (action, system view) pair."""

    #: Human-readable rule name used in violation reports.
    name = "rule"

    def check(self, component: Component) -> list[str]:
        """Return failure descriptions; empty list means the rule passes."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<{type(self).__name__} {self.name}>"


class ProvidesInterface(Rule):
    """The component must expose between *min_count* and *max_count*
    instances of *itype* (``max_count=None`` = unbounded)."""

    def __init__(
        self,
        itype: type[Interface],
        *,
        min_count: int = 1,
        max_count: int | None = None,
    ) -> None:
        self.itype = itype
        self.min_count = min_count
        self.max_count = max_count
        self.name = f"provides-{itype.interface_name()}"

    def check(self, component: Component) -> list[str]:
        count = len(component.interfaces_of_type(self.itype))
        iname = self.itype.interface_name()
        if count < self.min_count:
            return [
                f"exposes {count} instance(s) of {iname}, requires at least "
                f"{self.min_count}"
            ]
        if self.max_count is not None and count > self.max_count:
            return [
                f"exposes {count} instance(s) of {iname}, allows at most "
                f"{self.max_count}"
            ]
        return []


class RequiresReceptacle(Rule):
    """The component must declare between *min_count* and *max_count*
    receptacles of *itype*."""

    def __init__(
        self,
        itype: type[Interface],
        *,
        min_count: int = 1,
        max_count: int | None = None,
    ) -> None:
        self.itype = itype
        self.min_count = min_count
        self.max_count = max_count
        self.name = f"requires-receptacle-{itype.interface_name()}"

    def check(self, component: Component) -> list[str]:
        count = len(component.receptacles_of_type(self.itype))
        iname = self.itype.interface_name()
        if count < self.min_count:
            return [
                f"declares {count} receptacle(s) of {iname}, requires at "
                f"least {self.min_count}"
            ]
        if self.max_count is not None and count > self.max_count:
            return [
                f"declares {count} receptacle(s) of {iname}, allows at most "
                f"{self.max_count}"
            ]
        return []


class AtLeastOneOf(Rule):
    """The component must expose or require at least one instance drawn
    from a set of interface types (in either role).

    The Router CF uses this for "appropriate numbers and combinations" of
    packet-passing interfaces: a plug-in that neither accepts nor emits
    packets is meaningless.
    """

    def __init__(self, itypes: list[type[Interface]], *, role: str = "any") -> None:
        if role not in ("provides", "requires", "any"):
            raise ValueError(f"invalid role {role!r}")
        self.itypes = list(itypes)
        self.role = role
        names = "/".join(t.interface_name() for t in self.itypes)
        self.name = f"at-least-one-of-{names}-{role}"

    def check(self, component: Component) -> list[str]:
        provided = sum(
            len(component.interfaces_of_type(t)) for t in self.itypes
        )
        required = sum(
            len(component.receptacles_of_type(t)) for t in self.itypes
        )
        names = ", ".join(t.interface_name() for t in self.itypes)
        if self.role == "provides" and provided == 0:
            return [f"must expose at least one of: {names}"]
        if self.role == "requires" and required == 0:
            return [f"must declare a receptacle for at least one of: {names}"]
        if self.role == "any" and provided + required == 0:
            return [f"must expose or require at least one of: {names}"]
        return []


class ConditionalRule(Rule):
    """Apply *then_rules* only when *condition* holds for the component.

    Used for the Router CF's IClassifier rule: *if* a plug-in exposes
    IClassifier it must also satisfy the filter-semantics requirements.
    """

    def __init__(
        self,
        condition: Callable[[Component], bool],
        then_rules: list[Rule],
        *,
        name: str = "conditional",
    ) -> None:
        self.condition = condition
        self.then_rules = list(then_rules)
        self.name = name

    def check(self, component: Component) -> list[str]:
        if not self.condition(component):
            return []
        failures: list[str] = []
        for rule in self.then_rules:
            failures.extend(
                f"[{self.name}] {failure}" for failure in rule.check(component)
            )
        return failures


class PredicateRule(Rule):
    """Wrap an arbitrary predicate; fails with *message* when it returns
    False."""

    def __init__(
        self, name: str, predicate: Callable[[Component], bool], message: str
    ) -> None:
        self.name = name
        self.predicate = predicate
        self.message = message

    def check(self, component: Component) -> list[str]:
        if self.predicate(component):
            return []
        return [self.message]


class InterfaceNamePattern(Rule):
    """Exposed instances of *itype* must have names with the given prefix.

    CFs use naming conventions to address interface instances in filter
    specifications (e.g. outgoing ports named ``out-...``); this rule makes
    the convention checkable.
    """

    def __init__(self, itype: type[Interface], prefix: str) -> None:
        self.itype = itype
        self.prefix = prefix
        self.name = f"naming-{itype.interface_name()}-{prefix}"

    def check(self, component: Component) -> list[str]:
        failures = []
        for ref in component.interfaces_of_type(self.itype):
            if not ref.name.startswith(self.prefix):
                failures.append(
                    f"interface instance {ref.name!r} of type "
                    f"{self.itype.interface_name()} must be named "
                    f"{self.prefix}*"
                )
        return failures


def check_rules(rules: list[Rule], component: Component) -> list[str]:
    """Run every rule against *component*, collecting all failures."""
    failures: list[str] = []
    for rule in rules:
        failures.extend(rule.check(component))
    return failures


def explain_rules(rules: list, subject: object, *args: object) -> list[Violation]:
    """Run every rule against *subject*, collecting typed violations.

    Like :func:`check_rules` but each failure is returned as a
    :class:`Violation` naming the rule that produced it.  *subject* (and
    any extra ``*args``) are passed straight to each rule's ``check`` —
    the rule set decides what it governs: CF rules check components,
    adaptation rules check (action, system-view) pairs.
    """
    violations: list[Violation] = []
    for rule in rules:
        violations.extend(
            Violation(rule=rule.name, reason=failure)
            for failure in rule.check(subject, *args)
        )
    return violations
