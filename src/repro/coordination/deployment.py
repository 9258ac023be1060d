"""Remote deployment and managed software evolution (stratum 4).

The paper's conclusions promise "common support such as dynamic remote
instantiation, and standard meta-models" and "managed software evolution".
This module provides both over the signaling layer:

- :class:`DeploymentAgent` — per-node service that instantiates registered
  component types on request, binds them into the node's architecture,
  hot-upgrades running instances to newer registered versions, and answers
  introspection queries (the "standard meta-models" made remote);
- :class:`DeploymentManager` — operator-side façade: deploy / upgrade /
  query across many nodes with correlated replies;
- :class:`StagedRollout` — canary-gated fleet evolution: upgrade one
  capsule through a two-phase reconfiguration round, health-check it,
  then proceed across the fleet or roll the canary back.

Component *code* distribution is modelled by the chained
:class:`~repro.opencom.registry.ComponentRegistry`: a node-local registry
falls back to the network-wide one, so "shipping" a new version means
registering it network-wide and asking nodes to upgrade — exactly the
evolution story of section 2.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from typing import Any

from repro.coordination.reconfig import ReconfigCoordinator, ReconfigRound
from repro.coordination.signaling import SignalingAgent
from repro.netsim.node import Node
from repro.opencom.errors import OpenComError
from repro.opencom.metamodel.interface_meta import describe_component
from repro.opencom.registry import ComponentRegistry

_REQUEST_IDS = itertools.count(1)


class DeploymentError(OpenComError):
    """Remote deployment/upgrade failure."""


class DeploymentAborted(DeploymentError):
    """A deployment request was abandoned rather than answered: the
    reliable channel exhausted its retransmissions, or the caller's
    round deadline expired with no reply.  Carries the synthesized
    abort reply as :attr:`reply`."""

    def __init__(self, reply: dict) -> None:
        super().__init__(reply.get("error", "deployment request aborted"))
        self.reply = reply


class DeploymentAgent:
    """Per-node deployment service."""

    def __init__(
        self,
        signaling: SignalingAgent,
        registry: ComponentRegistry,
    ) -> None:
        self.signaling = signaling
        self.node: Node = signaling.node
        self.registry = registry
        self.log: list[str] = []
        signaling.on("deploy.instantiate", self._on_instantiate)
        signaling.on("deploy.upgrade", self._on_upgrade)
        signaling.on("deploy.query", self._on_query)
        signaling.on("deploy.destroy", self._on_destroy)

    # -- handlers -----------------------------------------------------------------

    def _reply(self, message: dict, **fields: Any) -> None:
        self.signaling.send_reliable(
            message["from"], "deploy.reply", request=message["request"], **fields
        )

    def _on_instantiate(self, message: dict, sender: str) -> None:
        type_name = message["component_type"]
        name = message["name"]
        version = message.get("version")
        try:
            entry = self.registry.lookup(type_name, version)
            instance = entry.factory()
            self.node.capsule.adopt(instance, name)
            if message.get("start", True):
                instance.startup()
            self.log.append(f"instantiate {name} ({type_name} {entry.version})")
            self._reply(
                message, ok=True, name=name, version=entry.version,
                node=self.node.name,
            )
        except Exception as exc:  # noqa: BLE001 - reported to the requester
            self.log.append(f"instantiate {name} failed: {exc!r}")
            self._reply(message, ok=False, error=repr(exc), node=self.node.name)

    def _on_upgrade(self, message: dict, sender: str) -> None:
        name = message["name"]
        type_name = message["component_type"]
        version = message.get("version")
        try:
            entry = self.registry.lookup(type_name, version)
            old = self.node.capsule.component(name)
            replacement = self.node.capsule.architecture.replace_component(
                old,
                entry.factory,
                transfer_state=_declared_state_transfer,
            )
            self.node.capsule.rename(replacement, name)
            self.log.append(f"upgrade {name} -> {type_name} {entry.version}")
            self._reply(
                message, ok=True, name=name, version=entry.version,
                node=self.node.name,
            )
        except Exception as exc:  # noqa: BLE001 - reported to the requester
            self.log.append(f"upgrade {name} failed: {exc!r}")
            self._reply(message, ok=False, error=repr(exc), node=self.node.name)

    def _on_query(self, message: dict, sender: str) -> None:
        name = message.get("name")
        if name:
            try:
                component = self.node.capsule.component(name)
                self._reply(
                    message, ok=True, node=self.node.name,
                    description=describe_component(component),
                )
            except OpenComError as exc:
                self._reply(message, ok=False, error=str(exc), node=self.node.name)
            return
        inventory = [
            {"name": component_name, "type": type(component).__name__,
             "state": component.state}
            for component_name, component in sorted(
                self.node.capsule.components().items()
            )
        ]
        self._reply(message, ok=True, node=self.node.name, inventory=inventory)

    def _on_destroy(self, message: dict, sender: str) -> None:
        name = message["name"]
        try:
            component = self.node.capsule.component(name)
            for binding in self.node.capsule.bindings_of(component):
                self.node.capsule.unbind(binding)
            self.node.capsule.destroy(component)
            self.log.append(f"destroy {name}")
            self._reply(message, ok=True, node=self.node.name)
        except Exception as exc:  # noqa: BLE001 - reported to the requester
            self._reply(message, ok=False, error=repr(exc), node=self.node.name)


def _declared_state_transfer(old: Any, new: Any) -> None:
    for attr in getattr(old, "STATE_ATTRS", ()):
        if hasattr(old, attr):
            setattr(new, attr, getattr(old, attr))


class DeploymentManager:
    """Operator-side deployment façade.

    Replies arrive asynchronously (they cross the simulated network); they
    are collected in :attr:`replies` keyed by request id.  Drive the
    engine, then inspect.  Both directions ride ``send_reliable``, so a
    lossy network costs retransmits, not lost requests; a request whose
    retransmissions are exhausted — or whose *deadline* expires with no
    reply — resolves to a synthesized **typed abort** reply
    (``aborted: True``), which :meth:`result_for` raises as
    :class:`DeploymentAborted`.  First result wins: a reply that limps
    in after the abort cannot un-abort the request.
    """

    def __init__(self, signaling: SignalingAgent) -> None:
        self.signaling = signaling
        self.replies: dict[int, dict] = {}
        signaling.on("deploy.reply", self._on_reply)

    def _on_reply(self, message: dict, sender: str) -> None:
        if message["request"] in self.replies:
            return
        self.replies[message["request"]] = message

    def _request(
        self,
        node: str,
        message_type: str,
        *,
        deadline: float | None = None,
        **fields: Any,
    ) -> int:
        request = next(_REQUEST_IDS)

        def _abort(reason: str) -> None:
            if request in self.replies:
                return
            self.replies[request] = {
                "ok": False,
                "aborted": True,
                "error": reason,
                "node": node,
                "request": request,
            }

        self.signaling.send_reliable(
            node,
            message_type,
            request=request,
            on_result=lambda delivered: None if delivered else _abort(
                f"{message_type} to {node!r} undeliverable (retries exhausted)"
            ),
            **fields,
        )
        if deadline is not None:
            if deadline <= 0:
                raise DeploymentError(
                    f"deadline must be positive, got {deadline}"
                )
            self.signaling.topology.engine.schedule(
                deadline,
                lambda: _abort(
                    f"{message_type} to {node!r}: no reply within {deadline}s"
                ),
            )
        return request

    # -- operations -----------------------------------------------------------------

    def instantiate(
        self,
        node: str,
        component_type: str,
        name: str,
        *,
        version: str | None = None,
        start: bool = True,
        deadline: float | None = None,
    ) -> int:
        """Ask *node* to instantiate a registered type; returns request id."""
        return self._request(
            node, "deploy.instantiate", deadline=deadline,
            component_type=component_type, name=name, version=version,
            start=start,
        )

    def upgrade(
        self,
        node: str,
        name: str,
        component_type: str,
        *,
        version: str | None = None,
        deadline: float | None = None,
    ) -> int:
        """Ask *node* to hot-upgrade a running instance to a (newer)
        registered version, preserving bindings and declared state."""
        return self._request(
            node, "deploy.upgrade", deadline=deadline,
            name=name, component_type=component_type, version=version,
        )

    def query(
        self, node: str, name: str | None = None, *, deadline: float | None = None
    ) -> int:
        """Ask *node* for its inventory, or one component's description."""
        return self._request(node, "deploy.query", deadline=deadline, name=name)

    def destroy(
        self, node: str, name: str, *, deadline: float | None = None
    ) -> int:
        """Ask *node* to unbind and destroy a component."""
        return self._request(node, "deploy.destroy", deadline=deadline, name=name)

    def reply_for(self, request: int) -> dict:
        """The reply for a request (raises until it has arrived)."""
        try:
            return self.replies[request]
        except KeyError:
            raise DeploymentError(
                f"no reply for request {request} yet (run the engine?)"
            ) from None

    def result_for(self, request: int) -> dict:
        """Like :meth:`reply_for`, but a synthesized abort — retries
        exhausted or deadline expired — raises :class:`DeploymentAborted`
        instead of masquerading as an ordinary failure reply."""
        reply = self.reply_for(request)
        if reply.get("aborted"):
            raise DeploymentAborted(reply)
        return reply

    def rollout(
        self,
        nodes: list[str],
        name: str,
        component_type: str,
        *,
        version: str | None = None,
        deadline: float | None = None,
    ) -> dict[str, int]:
        """Fleet-wide upgrade: one upgrade request per node."""
        return {
            node: self.upgrade(
                node, name, component_type, version=version, deadline=deadline
            )
            for node in nodes
        }


class StagedRollout:
    """Canary-gated rollout of a new datapath version across a capsule
    fleet, riding the two-phase reconfiguration protocol.

    One capsule (the *canary*, first in the fleet by default) is taken
    through a ``capsule-upgrade`` round first: the participant's action
    set quiesces ingress, drains the running datapath through the PR 6/7
    quiesce machinery, swaps in the new pipeline version, and re-steers
    parked frames (see
    :meth:`~repro.router.fleet.CapsuleNode.upgrade_action_set`).  If
    the round aborts — the capsule refused to quiesce, the new version
    failed to build, the deadline expired mid-partition — the rollout
    stops with the fleet untouched.  If it commits, *health_check* probes
    the canary; a failing probe triggers a revert round that re-installs
    the previous version, again leaving the fleet as it was.  Only a
    healthy canary lets the remaining capsules upgrade, one round each.
    """

    def __init__(
        self,
        coordinator: ReconfigCoordinator,
        *,
        capsules: list[str] | Callable[[], list[str]],
        version_of: Callable[[str], str],
        kind: str = "capsule-upgrade",
        deadline: float | None = 1.0,
        health_check: Callable[[str], bool] | None = None,
    ) -> None:
        if not callable(capsules) and not capsules:
            raise DeploymentError("a rollout needs at least one capsule")
        self.coordinator = coordinator
        self.engine = coordinator.signaling.topology.engine
        #: Static member list, or a callable returning the *current*
        #: members — so a fleet that loses a node between rollouts does
        #: not keep targeting the corpse.
        self._capsules = capsules if callable(capsules) else list(capsules)
        self.version_of = version_of
        self.kind = kind
        self.deadline = deadline
        #: Default canary probe; ``run(health_check=...)`` overrides it.
        self.health_check = health_check
        self.history: list[dict] = []

    @property
    def capsules(self) -> list[str]:
        """The rollout's current targets (resolved per access when
        membership is dynamic)."""
        members = self._capsules() if callable(self._capsules) else self._capsules
        if not members:
            raise DeploymentError("a rollout needs at least one capsule")
        return list(members)

    def _round(self, capsule: str, version: str) -> ReconfigRound:
        round_ = self.coordinator.start(
            self.kind, [capsule], {"version": version}, deadline=self.deadline
        )
        self.engine.run()
        return round_

    def run(
        self,
        version: str,
        *,
        health_check: Callable[[str], bool] | None = None,
        canary: str | None = None,
    ) -> dict:
        """Roll *version* out.  Returns a record whose ``status`` is
        ``completed`` (whole fleet upgraded), ``rolled-back`` (canary
        upgraded but failed *health_check*; previous version restored)
        or ``aborted`` (an upgrade round refused or timed out).

        *health_check* overrides the instance default for this run;
        with neither set, the canary gates on version consistency alone
        (the round committed and ``version_of`` reports the new
        version — already enforced above the probe)."""
        if health_check is None:
            health_check = self.health_check or (lambda capsule: True)
        capsules = self.capsules  # one snapshot per run
        canary = canary if canary is not None else capsules[0]
        if canary not in capsules:
            raise DeploymentError(f"canary {canary!r} is not in the fleet")
        previous = {capsule: self.version_of(capsule) for capsule in capsules}
        record: dict[str, Any] = {
            "version": version,
            "canary": canary,
            "previous": previous,
            "rounds": [],
            "status": "running",
        }
        self.history.append(record)

        canary_round = self._round(canary, version)
        record["rounds"].append((canary, canary_round.status))
        if canary_round.status != "committed" or self.version_of(canary) != version:
            record["status"] = "aborted"
            return record
        if not health_check(canary):
            revert = self._round(canary, previous[canary])
            record["rounds"].append((canary, revert.status))
            record["status"] = "rolled-back"
            return record
        for capsule in capsules:
            if capsule == canary:
                continue
            round_ = self._round(capsule, version)
            record["rounds"].append((capsule, round_.status))
            if round_.status != "committed" or self.version_of(capsule) != version:
                record["status"] = "aborted"
                return record
        record["status"] = "completed"
        return record


def deploy_agents(
    agents: dict[str, SignalingAgent],
    registry: ComponentRegistry,
) -> dict[str, DeploymentAgent]:
    """Attach a deployment agent (with a node-local registry chained onto
    *registry*) to every signaling agent."""
    return {
        name: DeploymentAgent(agent, ComponentRegistry(parent=registry))
        for name, agent in agents.items()
    }
