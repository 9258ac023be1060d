"""Distributed reconfiguration: coordinated quiesce-and-swap (stratum 4).

The paper's coordination stratum performs "distributed coordination and
(re)configuration of the lower strata".  This module provides a two-phase
protocol over signaling:

- the coordinator sends ``reconfig.prepare`` to every participant; each
  participant quiesces the named local target (via a registered *action
  set*) and votes;
- on unanimous yes the coordinator sends ``reconfig.commit`` (apply the
  change, resume); any no (or missing vote by the engine-time deadline)
  triggers ``reconfig.abort`` (resume unchanged).

Action sets bind the protocol to real local work: each participating node
registers an :class:`~repro.opencom.metamodel.ActionSet` per kind —
typically closing an :class:`~repro.opencom.metamodel.interception.AdmissionGate`,
calling ``architecture.replace_component``, and reopening — and the
participant resolves a prepared round through the set's own
``commit``/``abort``.  The protocol therefore drives exactly the same
kernel as a local ``ActionSet.run``, but network-wide — the "evolution
of deployed software" story.

Failure model
-------------
Every protocol message travels ``send_reliable`` (at-least-once with
engine-time retransmits and receiver-side dedupe — see
:mod:`repro.coordination.signaling`), so a lossy or transiently
partitioned network costs retransmits, not correctness.  A partition
that outlives every retransmit is resolved by the coordinator's
*deadline*: a round started with ``deadline=`` aborts when any vote is
still missing at that engine time, and the abort is itself delivered
reliably, so prepared participants roll back and resume instead of
holding their targets quiesced forever.  Every round therefore
terminates in ``committed`` or ``aborted`` — the invariant the R1 fault
bench gates on.  ``participant.register("shard-recovery",
datapath.recovery_action_set())`` wires the sharded datapath's
drain-and-re-steer failover into this protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.coordination.signaling import SignalingAgent
from repro.opencom.errors import OpenComError
from repro.opencom.metamodel import ActionSet

_ROUND_IDS = itertools.count(1)


class ReconfigError(OpenComError):
    """Reconfiguration protocol failure."""


@dataclass
class ReconfigRound:
    """Coordinator-side record of one two-phase round."""

    round_id: int
    kind: str
    participants: list[str]
    parameters: dict[str, Any]
    status: str = "preparing"  # preparing | committed | aborted
    votes: dict[str, bool] = field(default_factory=dict)
    events: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True once the round has resolved either way."""
        return self.status in ("committed", "aborted")


class ReconfigCoordinator:
    """Drives two-phase reconfiguration rounds from one node."""

    def __init__(self, signaling: SignalingAgent) -> None:
        self.signaling = signaling
        self.rounds: dict[int, ReconfigRound] = {}
        signaling.on("reconfig.vote", self._on_vote)

    def start(
        self,
        kind: str,
        participants: list[str],
        parameters: dict[str, Any] | None = None,
        *,
        deadline: float | None = None,
    ) -> ReconfigRound:
        """Begin a round; resolution happens as the engine delivers votes.

        *deadline* (virtual seconds from now) arms the missing-vote
        abort: if the round is still unresolved when it expires — votes
        lost beyond retransmission, a partitioned participant, a crashed
        quiesce that never answered — the coordinator aborts, reliably
        telling every participant to roll back and resume.  Without a
        deadline the caller owns stall policy (:meth:`abort_stalled`),
        which is how the pre-existing tests drive it.
        """
        if not participants:
            raise ReconfigError("a round needs at least one participant")
        round_ = ReconfigRound(
            round_id=next(_ROUND_IDS),
            kind=kind,
            participants=list(participants),
            parameters=dict(parameters or {}),
        )
        self.rounds[round_.round_id] = round_
        round_.events.append("prepare-sent")
        for participant in participants:
            self.signaling.send_reliable(
                participant,
                "reconfig.prepare",
                round=round_.round_id,
                kind=kind,
                parameters=round_.parameters,
                coordinator=self.signaling.node.name,
            )
        if deadline is not None:
            if deadline <= 0:
                raise ReconfigError(f"deadline must be positive, got {deadline}")
            self.signaling.topology.engine.schedule(
                deadline, lambda: self._on_deadline(round_)
            )
        return round_

    def _on_deadline(self, round_: ReconfigRound) -> None:
        if round_.complete:
            return
        missing = sorted(set(round_.participants) - set(round_.votes))
        round_.events.append(f"deadline-expired (missing votes: {missing})")
        self._finish(round_, commit=False)

    def _on_vote(self, message: dict, sender: str) -> None:
        round_ = self.rounds.get(message["round"])
        if round_ is None or round_.complete:
            return
        round_.votes[sender] = bool(message["yes"])
        round_.events.append(f"vote {sender}: {message['yes']}")
        if not message["yes"]:
            self._finish(round_, commit=False)
            return
        if set(round_.votes) >= set(round_.participants):
            self._finish(round_, commit=True)

    def _finish(self, round_: ReconfigRound, *, commit: bool) -> None:
        round_.status = "committed" if commit else "aborted"
        verb = "commit" if commit else "abort"
        round_.events.append(verb)
        for participant in round_.participants:
            self.signaling.send_reliable(
                participant,
                f"reconfig.{verb}",
                round=round_.round_id,
                kind=round_.kind,
                parameters=round_.parameters,
            )

    def abort_stalled(self, round_: ReconfigRound) -> None:
        """Manually abort a round that never gathered all votes (deadline
        policy is the caller's: virtual time is theirs to manage)."""
        if not round_.complete:
            self._finish(round_, commit=False)


class ReconfigParticipant:
    """Per-node participant: executes registered action sets."""

    def __init__(self, signaling: SignalingAgent) -> None:
        self.signaling = signaling
        self._actions: dict[str, ActionSet] = {}
        self._prepared: dict[int, dict] = {}
        self.log: list[str] = []
        signaling.on("reconfig.prepare", self._on_prepare)
        signaling.on("reconfig.commit", self._on_commit)
        signaling.on("reconfig.abort", self._on_abort)

    def register(self, kind: str, actions: ActionSet) -> None:
        """Register the local action set for one reconfiguration kind."""
        if kind in self._actions:
            raise ReconfigError(f"actions for kind {kind!r} already registered")
        self._actions[kind] = actions

    def _on_prepare(self, message: dict, sender: str) -> None:
        kind = message["kind"]
        round_id = message["round"]
        actions = self._actions.get(kind)
        if actions is None:
            self.log.append(f"prepare {round_id}: unknown kind {kind}")
            self._vote(message, False)
            return
        try:
            ready = actions.quiesce(message["parameters"])
        except Exception as exc:  # noqa: BLE001 - vote no instead of dying
            self.log.append(f"prepare {round_id}: quiesce failed: {exc!r}")
            self._vote(message, False)
            return
        if ready:
            self._prepared[round_id] = message
            self.log.append(f"prepare {round_id}: quiesced")
        else:
            self.log.append(f"prepare {round_id}: refused")
        self._vote(message, ready)

    def _on_commit(self, message: dict, sender: str) -> None:
        round_id = message["round"]
        if self._prepared.pop(round_id, None) is None:
            return
        actions = self._actions[message["kind"]]
        try:
            actions.commit(message["parameters"])
        except Exception as exc:  # noqa: BLE001 - commit rolled back and resumed
            self.log.append(f"commit {round_id}: apply failed: {exc!r}")
            if actions.rollback is not None:
                self.log.append(f"commit {round_id}: rolled back")
        else:
            self.log.append(f"commit {round_id}: applied")
        self.log.append(f"commit {round_id}: resumed")

    def _on_abort(self, message: dict, sender: str) -> None:
        round_id = message["round"]
        if self._prepared.pop(round_id, None) is None:
            return
        actions = self._actions[message["kind"]]
        actions.abort(message["parameters"])
        if actions.rollback is not None:
            self.log.append(f"abort {round_id}: rolled back")
        self.log.append(f"abort {round_id}: resumed unchanged")

    def _vote(self, message: dict, yes: bool) -> None:
        self.signaling.send_reliable(
            message["coordinator"],
            "reconfig.vote",
            round=message["round"],
            yes=yes,
        )
