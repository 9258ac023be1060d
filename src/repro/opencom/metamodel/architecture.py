"""The architecture meta-model: structural reflection over a capsule.

This is OpenCOM's causally-connected self-representation of "what is
plugged into what".  It maintains a component/binding graph that is updated
on every instantiate/destroy/bind/unbind, and offers:

- graph queries (neighbours, paths, reachability, topology export);
- consistency analysis — the paper's claim that a node's software can be
  analysed "as a single composite ... e.g. for consistency or integrity";
- safe dynamic reconfiguration: :meth:`replace_component` performs the
  quiesce → unbind → swap → rebind → resume sequence that underpins the
  24x7-operation story, preserving the old component's connections and
  (optionally) migrating its state;
- the two-phase kernel every other reconfiguration runs through:
  :class:`ActionSet` (shard recovery, elastic resize, capsule upgrade,
  and whatever a distributed round registers).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.opencom.errors import QuiesceTimeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.opencom.binding import Binding
    from repro.opencom.capsule import Capsule
    from repro.opencom.component import Component


@dataclass
class GraphView:
    """Immutable snapshot of a capsule's architecture.

    ``nodes`` maps component name to a description dict; ``edges`` is a list
    of binding description dicts (see ``Binding.describe``).
    """

    capsule: str
    nodes: dict[str, dict[str, Any]]
    edges: list[dict[str, Any]] = field(default_factory=list)

    def successors(self, component_name: str) -> list[str]:
        """Component names reached by outgoing bindings (via receptacles)."""
        return sorted(
            {e["target"] for e in self.edges if e["source"] == component_name}
        )

    def predecessors(self, component_name: str) -> list[str]:
        """Component names with bindings into *component_name*."""
        return sorted(
            {e["source"] for e in self.edges if e["target"] == component_name}
        )

    def reachable_from(self, component_name: str) -> set[str]:
        """All components reachable along binding direction."""
        seen: set[str] = set()
        frontier = [component_name]
        while frontier:
            current = frontier.pop()
            for nxt in self.successors(current):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def find_path(self, source: str, target: str) -> list[str] | None:
        """Shortest component path along bindings, or None."""
        if source == target:
            return [source]
        parents: dict[str, str] = {}
        frontier = [source]
        seen = {source}
        while frontier:
            nxt_frontier: list[str] = []
            for current in frontier:
                for nxt in self.successors(current):
                    if nxt in seen:
                        continue
                    parents[nxt] = current
                    if nxt == target:
                        path = [target]
                        while path[-1] != source:
                            path.append(parents[path[-1]])
                        return list(reversed(path))
                    seen.add(nxt)
                    nxt_frontier.append(nxt)
            frontier = nxt_frontier
        return None

    def cycles(self) -> list[list[str]]:
        """Elementary cycles in the binding graph (DFS back-edge walk).

        Packet-processing graphs are normally acyclic; cycles are reported
        by the consistency checker as warnings.
        """
        colour: dict[str, int] = {n: 0 for n in self.nodes}
        stack: list[str] = []
        found: list[list[str]] = []

        def visit(node: str) -> None:
            colour[node] = 1
            stack.append(node)
            for succ in self.successors(node):
                if colour.get(succ, 0) == 0:
                    visit(succ)
                elif colour.get(succ) == 1:
                    start = stack.index(succ)
                    found.append(stack[start:] + [succ])
            stack.pop()
            colour[node] = 2

        for node in self.nodes:
            if colour[node] == 0:
                visit(node)
        return found


class ArchitectureMetaModel:
    """Live structural reflection for one capsule."""

    def __init__(self, capsule: "Capsule") -> None:
        self.capsule = capsule
        #: Monotonic structure version; bumped on every structural change.
        self.version = 0

    # -- change notification (called by capsule/component) ---------------------

    def component_added(self, component: "Component") -> None:
        self.version += 1

    def component_removed(self, component: "Component") -> None:
        self.version += 1

    def component_changed(self, component: "Component") -> None:
        self.version += 1

    def binding_added(self, binding: "Binding") -> None:
        self.version += 1

    def binding_removed(self, binding: "Binding") -> None:
        self.version += 1

    # -- inspection --------------------------------------------------------------

    def snapshot(self) -> GraphView:
        """Export the current architecture as an immutable graph view."""
        nodes = {
            name: {
                "type": type(comp).__name__,
                "state": comp.state,
                "interfaces": comp.enum_interfaces(),
                "receptacles": comp.enum_receptacles(),
            }
            for name, comp in self.capsule.components().items()
        }
        edges = [b.describe() for b in self.capsule.bindings()]
        return GraphView(self.capsule.name, nodes, edges)

    def iter_components(self) -> Iterator["Component"]:
        """Iterate hosted components."""
        return iter(self.capsule)

    def check_consistency(self) -> list[str]:
        """Analyse the capsule's software as a single composite.

        Returns a list of problems (empty means consistent):

        - unsatisfied receptacle arity on running components;
        - bindings whose endpoints are not hosted (dangling);
        - components in the ``dead`` state still registered.
        Cycles are reported as warnings prefixed ``"warning:"``.
        """
        problems: list[str] = []
        components = self.capsule.components()
        for name, comp in components.items():
            if comp.state == "dead":
                problems.append(f"component {name} is dead but still registered")
            for rname, receptacle in comp.receptacles().items():
                if comp.state == "running" and not receptacle.satisfied():
                    problems.append(
                        f"receptacle {name}.{rname} unsatisfied: "
                        f"{len(receptacle.connections())} < "
                        f"{receptacle.min_connections}"
                    )
        hosted = set(components.values())
        for binding in self.capsule.bindings():
            if binding.source_component not in hosted:
                problems.append(
                    f"binding #{binding.binding_id} source "
                    f"{binding.source_component.name} not hosted"
                )
            if binding.kind == "local" and binding.target_component not in hosted:
                problems.append(
                    f"binding #{binding.binding_id} target "
                    f"{binding.target_component.name} not hosted"
                )
        for cycle in self.snapshot().cycles():
            problems.append("warning: binding cycle " + " -> ".join(cycle))
        return problems

    # -- reconfiguration -----------------------------------------------------------

    def replace_component(
        self,
        old: "Component | str",
        factory: Callable[[], "Component"],
        *,
        name: str | None = None,
        transfer_state: Callable[["Component", "Component"], None] | None = None,
        principal: str = "system",
    ) -> "Component":
        """Atomically swap *old* for a new component, preserving topology.

        The quiesce → swap → resume sequence:

        1. record every binding touching *old* (both directions);
        2. shut *old* down (quiesce: a stopped component no longer accepts
           lifecycle-managed work);
        3. unbind all recorded bindings;
        4. instantiate the replacement, run ``transfer_state(old, new)``;
        5. rebind the recorded topology onto the replacement, matching
           interface and receptacle *names* (the replacement must expose a
           compatible shape, otherwise the swap is rolled back);
        6. start the replacement and destroy *old*.

        Returns the replacement component.  On failure the original
        component and all its bindings are restored before the error is
        re-raised, so a failed swap never leaves the capsule inconsistent.
        """
        capsule = self.capsule
        old_component = capsule.component(old) if isinstance(old, str) else old
        records = [self._record_binding(b) for b in capsule.bindings_of(old_component)]
        was_running = old_component.state == "running"
        if was_running:
            old_component.shutdown()
        for record in records:
            capsule.unbind(record["binding"], principal=principal)

        new_name = name if name is not None else old_component.name + "'"
        try:
            replacement = capsule.instantiate(factory, new_name)
            if transfer_state is not None:
                transfer_state(old_component, replacement)
            self._rebind_records(records, old_component, replacement, principal)
        except Exception:
            # Roll back: re-establish the original topology and state.
            if new_name in capsule:
                maybe = capsule.component(new_name)
                for binding in capsule.bindings_of(maybe):
                    capsule.unbind(binding, principal=principal)
                capsule.destroy(maybe)
            self._rebind_records(records, old_component, old_component, principal)
            if was_running:
                old_component.startup()
            raise
        if was_running:
            replacement.startup()
        capsule.destroy(old_component)
        return replacement

    def _record_binding(self, binding: "Binding") -> dict[str, Any]:
        return {
            "binding": binding,
            "source": binding.source_component,
            "receptacle_name": binding.receptacle.name,
            "connection_name": binding.connection_name,
            "target_component": binding.target_component,
            "target_interface": binding.target.name,
            "principal": "system",
        }

    def _rebind_records(
        self,
        records: list[dict[str, Any]],
        old: "Component",
        substitute: "Component",
        principal: str,
    ) -> None:
        for record in records:
            source = record["source"]
            target_component = record["target_component"]
            if source is old:
                source = substitute
            if target_component is old:
                target_component = substitute
            receptacle = source.receptacle(record["receptacle_name"])
            target = target_component.interface(record["target_interface"])
            self.capsule.bind(
                receptacle,
                target,
                connection_name=record["connection_name"],
                principal=principal,
            )

    def quiesce_region(
        self,
        components: list["Component"],
        *,
        drain: Callable[[], bool] | None = None,
        max_rounds: int = 1000,
    ) -> None:
        """Quiesce a region prior to reconfiguration.

        Components in the region are shut down; when a ``drain`` predicate
        is given it is polled (up to *max_rounds* times) until it reports
        the region has no in-flight work.  Raises
        :class:`~repro.opencom.errors.QuiesceTimeout` when draining fails.
        """
        if drain is not None:
            for _ in range(max_rounds):
                if drain():
                    break
            else:
                raise QuiesceTimeout(
                    f"region of {len(components)} component(s) failed to drain "
                    f"after {max_rounds} rounds"
                )
        for component in components:
            if component.state == "running":
                component.shutdown()

    def resume_region(self, components: list["Component"]) -> None:
        """Restart a previously quiesced region."""
        for component in components:
            if component.state == "stopped":
                component.startup()

    def export_dot(self) -> str:
        """Export the architecture as Graphviz DOT (diagnostics/docs)."""
        view = self.snapshot()
        lines = [f'digraph "{view.capsule}" {{']
        for name, node in sorted(view.nodes.items()):
            lines.append(f'  "{name}" [label="{name}\\n({node["type"]})"];')
        for edge in view.edges:
            label = f'{edge["receptacle"]}->{edge["interface"]}'
            lines.append(
                f'  "{edge["source"]}" -> "{edge["target"]}" [label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines)


@dataclass
class ActionSet:
    """One reconfiguration as quiesce/apply/resume/rollback callables over
    a parameter dict, and the only driver of their sequence.

    ``quiesce`` prepares the target (parks, drains) and returns False to
    refuse; ``apply`` performs the change; ``resume`` reopens; the
    optional ``rollback`` undoes a prepared round.  A local caller uses
    :meth:`run`; a distributed round
    (:class:`repro.coordination.reconfig.ReconfigParticipant`) calls
    ``quiesce`` at prepare and :meth:`commit` or :meth:`abort` once the
    votes are in.  On every path past quiesce ``resume`` runs exactly
    once, even when rollback raises.
    """

    quiesce: Callable[[dict], bool]
    apply: Callable[[dict], None]
    resume: Callable[[dict], None]
    rollback: Callable[[dict], None] | None = None

    def run(self, params: dict) -> bool:
        """Quiesce, then :meth:`commit`; False when quiesce refuses."""
        if not self.quiesce(params):
            return False
        self.commit(params)
        return True

    def commit(self, params: dict) -> None:
        """Apply, then resume; if apply raises, :meth:`abort` and
        re-raise."""
        try:
            self.apply(params)
        except Exception:
            self.abort(params)
            raise
        self.resume(params)

    def abort(self, params: dict) -> None:
        """Roll back (when the set has a rollback), then resume."""
        try:
            if self.rollback is not None:
                self.rollback(params)
        finally:
            self.resume(params)
