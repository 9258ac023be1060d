"""Multi-capsule fleet: the sharded datapath replicated across nodes.

The single-box datapath (:func:`~repro.router.pipeline.
build_sharded_forwarding_datapath`) runs N worker shards behind one
RSS steering stage on one machine.  This module lifts that design one
level: a **fleet** of capsule nodes, each hosting its own complete
sharded datapath, behind an ingress **edge** node that steers flows with
two-level consistent hashing —

- outer level: :class:`~repro.osbase.sharding.HashRing` maps the flow
  hash to a *capsule* (``≤1-home-move`` under membership change, the
  fleet-level twin of the bucket-table bound);
- inner level: the chosen capsule's existing
  :class:`~repro.osbase.sharding.RssSteering` bucket table maps the same
  flow hash to a *shard*.

Both levels consume the representation-stable
:func:`~repro.netsim.wire.flow_hash_of`, so raw wire bytes, a
materialised ``Packet`` and a zero-copy ``WirePacket`` of one flow agree
on capsule *and* shard.  Frames cross real
:class:`~repro.netsim.link.Link` objects between edge and capsules —
serialisation delay, seeded loss and bounded backlog included — so the
fleet inherits the network's failure model instead of assuming a
backplane.

The seam is :class:`CapsuleNode`: one self-contained datapath unit bound
to a ``netsim`` node, owning its pools, TX handling and compile /
decompile hooks, plus the quiesce / swap / resume action set
(:meth:`CapsuleNode.upgrade_action_set`) that lets the stratum-4
two-phase protocol stage pipeline upgrades across the fleet
(:class:`~repro.coordination.deployment.StagedRollout`) and the kill
path (:meth:`CapsuleNode.kill`) that underlies node-failure failover.
Admission control lives at the edge
(:class:`~repro.coordination.rsvp.EdgeAdmission`): a new flow reserves
against the fleet's aggregate capacity curve
(:class:`~repro.ixp.placement.FleetPlacement`) before the first frame is
steered.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.netsim.node import Node
from repro.netsim.topology import Topology
from repro.netsim.wire import PacketError, WirePacket, flow_hash_of
from repro.opencom.errors import OpenComError
from repro.opencom.metamodel import ActionSet
from repro.osbase.buffers import release_dropped
from repro.osbase.sharding import HashRing


class FleetError(OpenComError):
    """Invalid fleet operation."""


class CapsuleNode:
    """One fleet member: a complete sharded datapath bound to a node.

    *build* is the version seam — ``build(version)`` returns a fresh
    :class:`~repro.osbase.sharding.ShardedDatapath` (with its own thread
    manager, pools and TX handling) for that pipeline version.  The node
    forwards every arriving frame into the *current* datapath's steering
    stage; :meth:`install` swaps versions by building the replacement
    **first** (a failed build leaves the running version untouched) and
    then draining the old one through its own engines.

    Three ingress modes cover the fleet protocols: alive (steer),
    quiesced (park in arrival order — an upgrade round is in flight) and
    dead (count and release — the node was killed, the ring has already
    re-homed its flows).
    """

    def __init__(
        self,
        node: Node,
        build: Callable[[str], Any],
        *,
        version: str = "v1",
    ) -> None:
        self.node = node
        self.build = build
        self.version: str = ""
        self.datapath: Any = None
        self.alive = True
        #: Drained predecessors, oldest first (their stats stay readable).
        self.retired: list[Any] = []
        self._quiesced = False
        self._parked: list[Any] = []
        self._upgrade_prev: str | None = None
        self.counters = {
            "received": 0,
            "steered": 0,
            "refused": 0,
            "parked": 0,
            "dead_drops": 0,
            "abandoned": 0,
        }
        self.install(version)
        node.set_packet_handler(self._on_frame)

    @property
    def name(self) -> str:
        """The hosting node's name — the fleet's member key."""
        return self.node.name

    # -- datapath lifecycle -------------------------------------------------------

    def install(self, version: str) -> Any:
        """Swap to *version*: build the replacement, then drain and
        retire the incumbent.  Build-before-teardown means a factory
        failure (a broken new version) propagates with the current
        datapath still running."""
        if not self.alive:
            raise FleetError(f"capsule {self.name} is dead")
        replacement = self.build(version)
        if self.datapath is not None:
            self.datapath.shutdown(drain=True)
            self.retired.append(self.datapath)
        self.datapath = replacement
        self.version = version
        return replacement

    def pump(self, **kwargs: Any) -> int:
        """Drain this capsule's datapath (see
        :meth:`~repro.osbase.sharding.ShardedDatapath.pump`)."""
        if not self.alive:
            return 0
        return self.datapath.pump(**kwargs)

    def kill(self) -> int:
        """Node failure: stop accepting, release every parked and
        backlogged frame (pooled ingest buffers return to their slices,
        so the acquired == released audit still balances), and stop the
        workers.  Returns frames abandoned — honest drops; the fleet
        re-homes the capsule's hash arc for *future* frames."""
        if not self.alive:
            return 0
        self.alive = False
        self._quiesced = False
        abandoned = 0
        for frame in self._parked:
            release_dropped(frame)
            abandoned += 1
        self._parked = []
        abandoned += self.datapath.abandon(release_dropped)
        self.counters["abandoned"] += abandoned
        return abandoned

    # -- ingress ------------------------------------------------------------------

    def _on_frame(self, frame: Any, port: str) -> None:
        if not self.alive:
            self.counters["dead_drops"] += 1
            release_dropped(frame)
            return
        if self._quiesced:
            self._parked.append(frame)
            self.counters["parked"] += 1
            return
        self._steer(frame)

    def _steer(self, frame: Any) -> None:
        self.counters["received"] += 1
        if self.datapath.steer(frame) is None:
            self.counters["refused"] += 1
            release_dropped(frame)
        else:
            self.counters["steered"] += 1

    # -- staged upgrade -----------------------------------------------------------

    def _unquiesce(self) -> None:
        self._quiesced = False
        parked, self._parked = self._parked, []
        for frame in parked:
            self._steer(frame)

    def upgrade_action_set(self) -> ActionSet:
        """The staged pipeline upgrade as an action set, registered for
        ``capsule-upgrade`` rounds by :func:`build_capsule_fleet`.

        Quiesce parks ingress at the node boundary and drains the
        running datapath to empty; apply installs the round's
        ``{"version": ...}``; resume re-steers the parked frames in
        arrival order into whichever datapath survived; rollback
        re-installs the pre-round version.  A quiesce that cannot drain
        refuses — and undoes its own parking first, because the protocol
        never rolls back a participant whose quiesce said no.
        """

        def quiesce(params: dict) -> bool:
            version = params.get("version")
            if not self.alive or self._quiesced:
                return False
            if not isinstance(version, str) or not version:
                return False
            self._quiesced = True
            self._upgrade_prev = self.version
            self.datapath.pump()
            if self.datapath.total_backlog() > 0:
                self._unquiesce()
                return False
            return True

        def apply(params: dict) -> None:
            self.install(params["version"])

        def resume(params: dict) -> None:
            self._unquiesce()

        def rollback(params: dict) -> None:
            if self._upgrade_prev is not None and self.version != self._upgrade_prev:
                self.install(self._upgrade_prev)

        return ActionSet(quiesce, apply, resume, rollback)

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict:
        """Node-level counters plus the live datapath's own stats."""
        return {
            "capsule": self.name,
            "version": self.version,
            "alive": self.alive,
            **self.counters,
            "datapath": self.datapath.stats() if self.alive else None,
        }


class CapsuleFleet:
    """The fleet: an edge steering tier over capsule nodes.

    :meth:`ingest` is the edge datapath — flow hash → ring → capsule →
    real link.  :meth:`open_flow` / :meth:`close_flow` are the admission
    path.  :meth:`kill` is node-failure failover: the dead member's hash
    arc moves to its ring successors (every surviving capsule's arc is
    untouched, so each flow's home moves at most once), its edge
    reservations are torn down immediately and its admitted flows are
    re-admitted toward their new homes.
    """

    def __init__(
        self,
        topology: Topology,
        capsules: dict[str, CapsuleNode],
        *,
        edge: str = "edge",
        replicas: int = 96,
        admission: Any = None,
        placement: Any = None,
        enforce_admission: bool = False,
    ) -> None:
        if not capsules:
            raise FleetError("a fleet needs at least one capsule")
        self.topology = topology
        self.engine = topology.engine
        self.edge = topology.node(edge)
        self.capsules = dict(capsules)
        #: Killed members, kept for post-mortem stats and pool audits.
        self.dead: dict[str, CapsuleNode] = {}
        self.ring = HashRing(list(self.capsules), replicas=replicas)
        self.admission = admission
        self.placement = placement
        self.enforce_admission = enforce_admission
        self.kills: list[dict] = []
        self.counters = {
            "ingested": 0,
            "forwarded": 0,
            "malformed": 0,
            "link_refused": 0,
            "unadmitted": 0,
        }
        self.edge.set_packet_handler(lambda frame, port: self.ingest(frame))

    # -- two-level steering -------------------------------------------------------

    def home_of(self, frame: Any) -> tuple[str, int]:
        """Where *frame*'s flow lives: ``(capsule name, shard index)``.
        Pure — both levels hash without side effects."""
        flow = flow_hash_of(frame)
        capsule = self.ring.lookup(flow)
        return capsule, self.capsules[capsule].datapath.steering.shard_of(frame)

    def ingest(self, frame: Any) -> bool:
        """Edge ingress: materialise the frame onto the wire, hash,
        (optionally) check admission, forward over the real link toward
        the flow's home capsule.  Returns True when the link accepted
        the frame.

        Raw bytes and materialised ``Packet`` objects become a
        :class:`~repro.netsim.wire.WirePacket` here (links model
        serialisation delay from ``size_bytes``); a ``WirePacket``
        passes through zero-copy.
        """
        try:
            frame = WirePacket.ingest(frame)
            flow = flow_hash_of(frame)
        except PacketError:
            self.counters["malformed"] += 1
            release_dropped(frame)
            return False
        self.counters["ingested"] += 1
        if (
            self.enforce_admission
            and self.admission is not None
            and not self.admission.is_admitted(flow)
        ):
            self.counters["unadmitted"] += 1
            release_dropped(frame)
            return False
        capsule = self.ring.lookup(flow)
        if self.edge.send_to_neighbor(capsule, frame):
            self.counters["forwarded"] += 1
            return True
        self.counters["link_refused"] += 1
        return False

    # -- admission ----------------------------------------------------------------

    def open_flow(self, frame: Any, rate: float) -> str:
        """Reserve capacity for *frame*'s flow toward its home capsule
        before any of its frames are steered.  Returns the admission
        verdict (``admitted`` / ``queued`` / ``rejected``)."""
        if self.admission is None:
            raise FleetError("fleet has no admission controller")
        flow = flow_hash_of(frame)
        return self.admission.admit(flow, self.ring.lookup(flow), rate)

    def close_flow(self, frame: Any) -> bool:
        """The flow finished: release its reservation (queued flows get
        their retry)."""
        if self.admission is None:
            raise FleetError("fleet has no admission controller")
        return self.admission.complete(flow_hash_of(frame))

    # -- drive --------------------------------------------------------------------

    def pump(self, *, max_rounds: int = 256) -> int:
        """Run the whole fleet to quiescence: deliver in-flight frames
        (the netsim engine — links, signaling retries), then drain every
        capsule's backlog through its own workers, until neither side
        has work.  Returns total datapath steps."""
        steps = 0
        for _ in range(max_rounds):
            moved = self.engine.run()
            for capsule in self.capsules.values():
                if capsule.alive and capsule.datapath.total_backlog() > 0:
                    steps += capsule.pump()
                    moved += 1
            if moved == 0:
                break
        return steps

    # -- failover -----------------------------------------------------------------

    def kill(self, name: str) -> dict:
        """Node failure for capsule *name*.

        Order matters: the ring arc is reassigned first (future frames
        re-home, each flow moving at most once — removal only deletes
        the dead member's points), then the node abandons its backlog
        (pooled buffers released, audit balanced), then the edge tears
        down the dead capsule's reservations — no TTL wait — shrinks the
        admission pool to the survivors' capacity curve, and re-admits
        the orphaned flows toward their new homes.
        """
        capsule = self.capsules.get(name)
        if capsule is None:
            raise FleetError(f"unknown or already dead capsule {name!r}")
        if len(self.capsules) == 1:
            raise FleetError("cannot kill the last capsule")
        del self.capsules[name]
        self.dead[name] = capsule
        self.ring.remove(name)
        abandoned = capsule.kill()
        new_aggregate = None
        if self.placement is not None and name in self.placement.members():
            self.placement.remove(name)
            new_aggregate = self.placement.aggregate_pps()
        released = 0
        readmitted: list[tuple[Any, str]] = []
        if self.admission is not None:
            orphans = self.admission.on_capsule_killed(
                name, new_aggregate=new_aggregate
            )
            released = len(orphans)
            for flow, rate in orphans:
                verdict = self.admission.admit(flow, self.ring.lookup(flow), rate)
                readmitted.append((flow, verdict))
        record = {
            "capsule": name,
            "abandoned": abandoned,
            "reservations_released": released,
            "readmitted": readmitted,
        }
        self.kills.append(record)
        return record

    # -- introspection ------------------------------------------------------------

    def members(self) -> list[str]:
        """Live capsule names, insertion order."""
        return list(self.capsules)

    def version_of(self, name: str) -> str:
        """The pipeline version capsule *name* is running — the
        :class:`~repro.coordination.deployment.StagedRollout` probe."""
        try:
            return self.capsules[name].version
        except KeyError:
            raise FleetError(f"unknown or dead capsule {name!r}") from None

    def versions(self) -> dict[str, str]:
        """Live member → running pipeline version."""
        return {name: capsule.version for name, capsule in self.capsules.items()}

    def stats(self) -> dict:
        """Edge counters, ring shares, per-capsule stats, kill records."""
        return {
            "edge": dict(self.counters),
            "members": self.members(),
            "arc_shares": self.ring.arc_shares(),
            "capsules": [capsule.stats() for capsule in self.capsules.values()],
            "dead": sorted(self.dead),
            "kills": list(self.kills),
        }


def build_capsule_fleet(
    capsules: int,
    *,
    routes: dict[str, str],
    shards: int = 2,
    version: str = "v1",
    replicas: int = 96,
    fused: bool = True,
    compiled: bool = False,
    validate_checksums: bool = True,
    tx_handler: Callable[[str, int], Any] | None = None,
    datapath_factory: Callable[[str, str], Any] | None = None,
    enforce_admission: bool = False,
    queue_limit: int = 8,
    soft_state_ttl: float | None = None,
    rollout_deadline: float | None = 1.0,
    engine: Any = None,
    batch: int = 32,
    pool_buffers: int = 256,
    rx_ring_size: int | None = None,
    buckets: int | None = None,
    supervise: bool = True,
    **link_kwargs: Any,
) -> CapsuleFleet:
    """Assemble a complete fleet over a fresh star topology.

    Per capsule node: a :class:`CapsuleNode` hosting its own sharded
    forwarding datapath (independent thread manager and virtual clock —
    capsules are separate machines), an RSVP agent whose bandwidth pool
    is sized from that capsule's placement capacity curve, and a
    reconfiguration participant with the ``capsule-upgrade`` action set
    registered.  At the edge: signaling, an RSVP agent whose pool is the
    fleet's **aggregate** capacity
    (:meth:`~repro.ixp.placement.FleetPlacement.aggregate_pps`), the
    :class:`~repro.coordination.rsvp.EdgeAdmission` controller, the
    reconfiguration coordinator and a ready-to-run
    :class:`~repro.coordination.deployment.StagedRollout` (as
    ``fleet.rollout``).

    *tx_handler* is ``(capsule_name, shard_index) -> frame consumer`` —
    the fleet-aware generalisation of the single-box factory.
    *datapath_factory* (``(capsule_name, version) -> datapath``)
    overrides the default assembly entirely, which is how a bench stages
    a deliberately broken ``v2``.  *link_kwargs* (loss, latency,
    bandwidth, backlog) apply to every edge→capsule link.
    """
    from repro.coordination.deployment import StagedRollout
    from repro.coordination.reconfig import ReconfigCoordinator, ReconfigParticipant
    from repro.coordination.rsvp import EdgeAdmission, RsvpAgent
    from repro.coordination.signaling import attach_agents
    from repro.ixp.placement import FleetPlacement
    from repro.osbase.clock import VirtualClock
    from repro.osbase.scheduler import RoundRobinScheduler, ThreadManagerCF
    from repro.router.pipeline import build_sharded_forwarding_datapath

    if capsules < 1:
        raise FleetError(f"capsules must be >= 1, got {capsules}")
    names = [f"cap{i}" for i in range(capsules)]
    topology = Topology.fleet(capsules, engine=engine, **link_kwargs)
    agents = attach_agents(topology)

    placement = FleetPlacement()
    for name in names:
        placement.add(name, shards=shards)

    rsvp = {
        "edge": RsvpAgent(
            agents["edge"],
            bandwidth_capacity=placement.aggregate_pps(),
            soft_state_ttl=soft_state_ttl,
        )
    }
    for name in names:
        rsvp[name] = RsvpAgent(
            agents[name],
            bandwidth_capacity=placement.capacity_of(name),
            soft_state_ttl=soft_state_ttl,
        )
    admission = EdgeAdmission(rsvp["edge"], queue_limit=queue_limit)

    if datapath_factory is None:

        def datapath_factory(name: str, dp_version: str) -> Any:
            threads = ThreadManagerCF(
                VirtualClock(), scheduler=RoundRobinScheduler()
            )
            return build_sharded_forwarding_datapath(
                routes=routes,
                shards=shards,
                threads=threads,
                batch=batch,
                fused=fused,
                compiled=compiled,
                validate_checksums=validate_checksums,
                tx_handler=(
                    None
                    if tx_handler is None
                    else (lambda index, _name=name: tx_handler(_name, index))
                ),
                supervise=supervise,
                pool_buffers=pool_buffers,
                rx_ring_size=rx_ring_size,
                buckets=buckets,
                name=f"{name}-dp-{dp_version}",
            )

    nodes = {
        name: CapsuleNode(
            topology.node(name),
            build=(lambda dp_version, _name=name: datapath_factory(_name, dp_version)),
            version=version,
        )
        for name in names
    }

    coordinator = ReconfigCoordinator(agents["edge"])
    participants: dict[str, Any] = {}
    for name in names:
        participant = ReconfigParticipant(agents[name])
        participant.register("capsule-upgrade", nodes[name].upgrade_action_set())
        participants[name] = participant

    fleet = CapsuleFleet(
        topology,
        nodes,
        replicas=replicas,
        admission=admission,
        placement=placement,
        enforce_admission=enforce_admission,
    )
    fleet.signaling = agents
    fleet.rsvp = rsvp
    fleet.coordinator = coordinator
    fleet.participants = participants
    fleet.rollout = StagedRollout(
        coordinator,
        # Live membership: a rollout issued after a node kill targets
        # the survivors, not the corpse.
        capsules=fleet.members,
        version_of=fleet.version_of,
        deadline=rollout_deadline,
        # Default canary probe: the capsule survived the swap and its
        # new datapath's workers can still take work.  ``run(
        # health_check=...)`` overrides it per rollout.
        health_check=lambda name: (
            nodes[name].alive
            and not (stats := nodes[name].datapath.stats())["dead_workers"]
            and not stats["stopping"]
        ),
    )
    return fleet
