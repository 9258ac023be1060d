"""Pipeline assembly: standard router data paths from the component
library, including the exact Figure-3 composite.

These builders return a :class:`RouterPipeline` handle exposing the entry
push interface, the per-stage components, and a ``service`` pump for the
pull-side (queues → link scheduler) half of the path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any

from repro.cf.composite import CompositeComponent
from repro.cf.constraints import acyclic
from repro.opencom.capsule import Capsule
from repro.opencom.component import Component
from repro.osbase.clock import VirtualClock
from repro.router.components.classifier import Classifier
from repro.router.components.forwarding import Forwarder, Stride8LpmTable
from repro.router.components.headerproc import (
    IPv4HeaderProcessor,
    IPv6HeaderProcessor,
    ProtocolRecognizer,
)
from repro.router.components.meters import CollectorSink
from repro.router.components.queues import FifoQueue
from repro.router.components.scheduling import PriorityLinkScheduler
from repro.router.router_cf import RouterCF


class DrainExhausted(RuntimeWarning):
    """``drain`` hit its round limit with packets still being serviced."""


@dataclass
class RouterPipeline:
    """Handle over an assembled data path."""

    capsule: Capsule
    cf: RouterCF
    entry: Component
    stages: dict[str, Component] = field(default_factory=dict)
    scheduler: Component | None = None
    composite: CompositeComponent | None = None
    #: Per-hop TX adapters (when the pipeline egresses through NICs);
    #: :meth:`flush_tx` drains their wire side so pooled buffers recycle.
    tx_adapters: dict[str, Component] = field(default_factory=dict)
    #: Cached entry vtable (the push interfaces never change identity for
    #: the life of a pipeline handle, so the lookup is paid once).
    _entry_vtable: Any = field(default=None, init=False, repr=False, compare=False)
    #: Active compiled-chain plan (see :meth:`compile`); ``None`` while
    #: the pipeline dispatches interpreted.
    _compiled_plan: Any = field(default=None, init=False, repr=False, compare=False)

    def _vtable(self) -> Any:
        vtable = self._entry_vtable
        if vtable is None:
            vtable = self._entry_vtable = self.entry.interface("in0").vtable
        return vtable

    def push(self, packet: Any) -> None:
        """Inject one packet at the pipeline entry."""
        self._vtable().invoke("push", packet)

    def push_batch(self, packets: list) -> None:
        """Inject a whole batch at the pipeline entry.

        Batches travel the component graph as batches (each stage's
        ``push_batch``), subject to the usual interception guarantee: an
        interceptor on any stage's ``in0`` sees per-packet calls.  When a
        compiled chain is installed the batch enters through its handle
        instead — same contract: any interceptor appearing in the region
        revokes the handle, which then transparently dispatches through
        the (interposed) entry vtable.
        """
        plan = self._compiled_plan
        if plan is not None:
            plan.handle(packets)
            return
        self._vtable().invoke_batch("push", packets)

    # -- compiled hot path (see repro.opencom.compile) ---------------------

    def compile(self, *, strict: bool = True, fusion_plan: Any = None) -> Any:
        """Compile the push chain into one specialised per-batch callable.

        Replaces any previous compiled plan.  With ``strict=False`` a
        region that cannot be compiled (interceptors present) returns
        ``None`` and the pipeline stays interpreted — the form the
        sharded datapath uses when rebuilding after resize/recovery.
        """
        from repro.opencom.compile import CompileError, compile_push_chain

        self.decompile()
        try:
            plan = compile_push_chain(
                self.entry, interface="in0", method="push",
                fusion_plan=fusion_plan,
            )
        except CompileError:
            if strict:
                raise
            return None
        self._compiled_plan = plan
        return plan

    def decompile(self) -> None:
        """Tear down the compiled chain (idempotent); dispatch reverts to
        the interpreted entry vtable."""
        plan = self._compiled_plan
        if plan is not None:
            self._compiled_plan = None
            plan.revert()

    @property
    def compiled_plan(self) -> Any:
        """The installed :class:`~repro.opencom.compile.CompilationPlan`
        (possibly revoked), or ``None`` when interpreted."""
        return self._compiled_plan

    @property
    def compiled_active(self) -> bool:
        """True while an unrevoked compiled chain handles ``push_batch``."""
        plan = self._compiled_plan
        return plan is not None and plan.active

    def service(self, budget: int = 64) -> int:
        """Pump the pull side (scheduler) for up to *budget* packets.

        The whole round is batched end to end: the scheduler draws its
        budget through the queues' ``pull_batch`` port handles and hands
        the serviced list downstream as one ``push_batch``, so with the
        push side already batched no crossing in the pipeline is paid
        per packet.  Interceptors on any ``pull``/``push`` slot still see
        per-packet calls (the vtable degrades batch dispatch on
        interception).
        """
        if self.scheduler is None:
            return 0
        return self.scheduler.service(budget)

    def drain(self, *, max_rounds: int = 10_000, budget: int = 64) -> int:
        """Service until the scheduler finds nothing more; returns packets
        serviced.

        If every one of *max_rounds* rounds still found packets, one extra
        probe round decides whether the queues really hold more: if so, a
        :class:`DrainExhausted` warning reports the partial count instead
        of letting it masquerade as a full drain.  (The probe's packets
        are included in the returned total.)
        """
        total = 0
        for _ in range(max_rounds):
            serviced = self.service(budget)
            total += serviced
            if serviced == 0:
                return total
        probe = self.service(budget)
        total += probe
        if probe:
            warnings.warn(
                f"drain stopped after max_rounds={max_rounds} with packets "
                f"still queued ({total} serviced so far)",
                DrainExhausted,
                stacklevel=2,
            )
        return total

    def flush_tx(
        self,
        *,
        budget: int | None = None,
        handler: Any = None,
    ) -> int:
        """Drain every TX adapter's wire side; returns frames drained.

        This is the release half of the pooled buffer lifecycle: each
        drained frame has left the simulated machine, so its buffer goes
        back to the pool it was acquired from at NIC ingress.  A
        *handler* takes ownership of each frame instead (and must
        release it when done) — how the sharded benchmarks record
        per-flow egress order before recycling.  A pipeline without TX
        adapters returns 0.
        """
        total = 0
        for adapter in self.tx_adapters.values():
            total += adapter.drain_wire(budget=budget, handler=handler)
        return total

    def swap_stage(
        self,
        stage: str,
        factory: Any,
        *,
        new_name: str | None = None,
        transfer_state: Any = None,
    ) -> Component:
        """Hot-swap one named stage through the architecture meta-model.

        The capsule's :meth:`~repro.opencom.metamodel.architecture.
        ArchitectureMetaModel.replace_component` does the quiesce →
        unbind → swap → rebind → resume sequence (rolled back on
        failure); this wrapper keeps the pipeline handle causally
        connected: a live compiled chain is torn down first (a vtable
        mutation must never race a specialised region — the caller
        recompiles once the swap settles), the ``stages`` map and the
        ``entry``/``scheduler`` handles follow the replacement, and CF
        plug-in membership transfers from the old component to the new.

        *transfer_state* defaults to
        :func:`~repro.cf.constraints.component_state_transfer`, so a
        queue swap carries its backlog across (``STATE_ATTRS``).
        """
        from repro.cf.constraints import component_state_transfer

        if stage not in self.stages:
            raise KeyError(f"pipeline has no stage {stage!r}")
        old = self.stages[stage]
        self.decompile()
        replacement = self.capsule.architecture.replace_component(
            old,
            factory,
            name=new_name,
            transfer_state=(
                component_state_transfer
                if transfer_state is None
                else transfer_state
            ),
        )
        self.stages[stage] = replacement
        if old is self.entry:
            self.entry = replacement
            self._entry_vtable = None
        if old is self.scheduler:
            self.scheduler = replacement
        if self.cf.plugins().get(old.name) is old:
            self.cf.eject(old.name)
            self.cf.accept(replacement)
        return replacement

    def stage_stats(self) -> dict[str, dict[str, int]]:
        """Counters of every stage, keyed by stage name."""
        stats = {}
        for name, stage in self.stages.items():
            stage_stats = getattr(stage, "stats", None)
            stats[name] = stage_stats() if callable(stage_stats) else {}
        return stats


def build_figure3_composite(
    capsule: Capsule,
    *,
    name: str = "gateway",
    queue_capacity: int = 256,
    classes: tuple[str, ...] = ("expedited", "best-effort"),
) -> tuple[CompositeComponent, RouterPipeline]:
    """Assemble the composite of Figure 3 inside *capsule*.

    Topology (all constituents conforming to the Router CF, managed by the
    composite's controller, internal topology kept acyclic by a
    controller-installed constraint)::

        protocol-recogniser --ipv4--> ipv4-processor -\\
                            --ipv6--> ipv6-processor --+--> classifier
        classifier --<class>--> queue:<class>  (one queueing gateway per class)
        link-scheduler  <--pull-- queues; pushes --> forward-sink

    The composite exports the recogniser's ``in0`` as ``input`` and the
    classifier's IClassifier as ``classifier`` ("Access to IClassifier
    interfaces" in the figure).
    """
    cf = RouterCF()
    capsule.adopt(cf, f"{name}-cf")
    composite = capsule.instantiate(lambda: CompositeComponent(capsule), name)

    recogniser = composite.add_member(ProtocolRecognizer, "protocol-recogniser")
    v4 = composite.add_member(IPv4HeaderProcessor, "ipv4-processor")
    v6 = composite.add_member(IPv6HeaderProcessor, "ipv6-processor")
    classifier = composite.add_member(
        lambda: Classifier(default_output=classes[-1]), "classifier"
    )
    queues: dict[str, Component] = {}
    for klass in classes:
        queues[klass] = composite.add_member(
            lambda: FifoQueue(queue_capacity), f"queue:{klass}"
        )
    scheduler = composite.add_member(
        lambda: PriorityLinkScheduler(list(classes)), "link-scheduler"
    )
    sink = composite.add_member(CollectorSink, "forward-sink")

    composite.bind_internal(
        "protocol-recogniser", "out", "ipv4-processor", "in0",
        connection_name=ProtocolRecognizer.OUT_V4,
    )
    composite.bind_internal(
        "protocol-recogniser", "out", "ipv6-processor", "in0",
        connection_name=ProtocolRecognizer.OUT_V6,
    )
    composite.bind_internal("ipv4-processor", "out", "classifier", "in0")
    composite.bind_internal("ipv6-processor", "out", "classifier", "in0")
    for klass in classes:
        composite.bind_internal(
            "classifier", "out", f"queue:{klass}", "in0", connection_name=klass
        )
        composite.bind_internal(
            "link-scheduler", "inputs", f"queue:{klass}", "pull0",
            connection_name=klass,
        )
    composite.bind_internal("link-scheduler", "out", "forward-sink", "in0")

    composite.controller.add_constraint("acyclic", acyclic())
    composite.export("input", "protocol-recogniser", "in0")
    composite.export("classifier", "classifier", "classifier")
    cf.accept(composite)

    pipeline = RouterPipeline(
        capsule=capsule,
        cf=cf,
        entry=recogniser,
        stages={
            "recogniser": recogniser,
            "ipv4": v4,
            "ipv6": v6,
            "classifier": classifier,
            **{f"queue:{k}": q for k, q in queues.items()},
            "scheduler": scheduler,
            "sink": sink,
        },
        scheduler=scheduler,
        composite=composite,
    )
    return composite, pipeline


def build_forwarding_pipeline(
    capsule: Capsule,
    *,
    routes: dict[str, str] | Stride8LpmTable,
    next_hop_sinks: dict[str, Component] | None = None,
    tx_nics: dict[str, Any] | None = None,
    clock: VirtualClock | None = None,
    queue_capacity: int = 256,
    validate_checksums: bool = True,
    compiled: bool = False,
) -> RouterPipeline:
    """A flat (non-composite) IPv4 forwarding path used by the data-path
    benchmarks: recogniser → v4 processor → forwarder → per-hop sinks.

    ``routes`` is a prefix → next-hop mapping, or a
    :class:`Stride8LpmTable` the forwarder adopts by reference (a FIB
    several pipelines share).  ``next_hop_sinks`` maps next-hop names to
    sink components (created as :class:`CollectorSink` when omitted).
    ``tx_nics`` maps next-hop names to stratum-1
    :class:`~repro.osbase.nic.Nic` instances instead: those hops
    terminate in a
    :class:`~repro.router.components.nicadapters.TransmitAdapter`
    (registered in ``pipeline.tx_adapters``), so
    :meth:`RouterPipeline.flush_tx` closes the pooled buffer lifecycle
    through the TX rings.

    ``compiled`` installs the specialised per-batch chain over the
    assembled path; any interceptor appearing in the region revokes it
    back to interpreted dispatch.
    """
    from repro.router.components.nicadapters import TransmitAdapter

    cf = RouterCF()
    capsule.adopt(cf, "router-cf")
    recogniser = capsule.instantiate(ProtocolRecognizer, "recogniser")
    v4 = capsule.instantiate(
        lambda: IPv4HeaderProcessor(validate_checksum=validate_checksums), "ipv4"
    )
    v6 = capsule.instantiate(IPv6HeaderProcessor, "ipv6")
    forwarder = capsule.instantiate(Forwarder, "forwarder")
    if isinstance(routes, Stride8LpmTable):
        forwarder.table = routes
    else:
        forwarder.load_routes(routes)

    hops = sorted(forwarder.table.values())
    sinks: dict[str, Component] = {}
    tx_adapters: dict[str, Component] = {}
    for hop in hops:
        if tx_nics and hop in tx_nics:
            adapter = capsule.instantiate(
                lambda nic=tx_nics[hop]: TransmitAdapter(nic), f"tx:{hop}"
            )
            sinks[hop] = adapter
            tx_adapters[hop] = adapter
        elif next_hop_sinks and hop in next_hop_sinks:
            sinks[hop] = next_hop_sinks[hop]
        else:
            sinks[hop] = capsule.instantiate(CollectorSink, f"sink:{hop}")

    capsule.bind(
        recogniser.receptacle("out"), v4.interface("in0"),
        connection_name=ProtocolRecognizer.OUT_V4,
    )
    capsule.bind(
        recogniser.receptacle("out"), v6.interface("in0"),
        connection_name=ProtocolRecognizer.OUT_V6,
    )
    capsule.bind(v4.receptacle("out"), forwarder.interface("in0"))
    capsule.bind(v6.receptacle("out"), forwarder.interface("in0"))
    for hop, sink in sinks.items():
        capsule.bind(
            forwarder.receptacle("out"), sink.interface("in0"), connection_name=hop
        )

    for component in (recogniser, v4, v6, forwarder):
        cf.accept(component)

    pipeline = RouterPipeline(
        capsule=capsule,
        cf=cf,
        entry=recogniser,
        stages={
            "recogniser": recogniser,
            "ipv4": v4,
            "ipv6": v6,
            "forwarder": forwarder,
            **{f"sink:{hop}": sink for hop, sink in sinks.items()},
        },
        tx_adapters=tx_adapters,
    )
    if compiled:
        pipeline.compile()
    return pipeline


def build_sharded_forwarding_datapath(
    *,
    routes: dict[str, str],
    shards: int,
    threads: Any,
    pools: list | None = None,
    batch: int = 32,
    rx_ring_size: int | None = None,
    tx_ring_size: int | None = None,
    fused: bool = False,
    compiled: bool = False,
    validate_checksums: bool = True,
    tx_handler: Any = None,
    supervise: bool = True,
    steal_watermark: int | None = None,
    buffer_size: int = 2048,
    pool_buffers: int = 256,
    exhaustion_policy: str = "drop-newest",
    buckets: int | None = None,
    locality: Any = None,
    name: str = "sharded-datapath",
):
    """Assemble the sharded multi-worker forwarding datapath: *shards*
    share-nothing copies of the flat forwarding pipeline behind one
    RSS-style flow-hash steering stage, as cooperative workers under the
    thread-management CF *threads* (which must have a scheduler
    installed).

    Per shard: its own :class:`~repro.opencom.capsule.Capsule` (worker
    isolation mirrors the paper's capsule boundaries), an RX
    :class:`~repro.osbase.nic.Nic` bound to that shard's private pool
    slice, a :func:`build_forwarding_pipeline` with per-hop TX NICs, and
    a flush that drains those TX rings back to the shard's pool.  The
    FIB is shared: *routes* is loaded once into one
    :class:`Stride8LpmTable` that every shard's ``Forwarder`` references
    (grown shards too), so it is box-wide — a route changed through any
    shard's forwarder changes every shard's next lookup.
    *pools* supplies the slices (length must equal *shards* — typically
    :func:`~repro.osbase.buffers.carve_shard_pools`); when omitted, a
    fresh budget of *pool_buffers* × *buffer_size*-byte buffers is
    carved here under *exhaustion_policy*.

    *tx_handler* is an optional factory ``shard_index -> frame
    consumer``; the consumer takes ownership of each egressing frame
    (release it when done) — how C15 records per-flow egress order.
    Returns the :class:`~repro.osbase.sharding.ShardedDatapath`; each
    shard's pipeline rides along as ``shard.engine``.

    The datapath is built *elastic*: the per-shard assembly doubles as
    its ``shard_factory``, so ``resize(n)`` can grow the fleet with
    identically-shaped pipelines at run time (the factory is re-invoked
    with the grown index and its fresh pool slice; *tx_handler* is
    called again for each grown shard).  *buckets* sizes the RSS
    indirection table (default: one bucket per initial shard — the
    historical ``hash % N`` steering; elastic deployments want several
    buckets per shard so a resize moves few flows).  *locality* is an
    optional ``(thief, victim) -> penalty`` steal cost model, typically
    :meth:`repro.ixp.placement.ShardPlacement.locality_penalty`.

    *name* identifies this datapath (and prefixes its shard capsules and
    worker threads) — a fleet of capsule nodes builds one datapath per
    node, so nothing here may assume it is the only datapath in the
    process.
    """
    from repro.netsim.wire import PacketError, flow_hash_of
    from repro.opencom.fusion import fuse_pipeline
    from repro.osbase.buffers import carve_shard_pools
    from repro.osbase.nic import Nic
    from repro.osbase.sharding import Shard, ShardedDatapath, ShardingError

    if shards < 1:
        raise ShardingError(f"shards must be >= 1, got {shards}")
    if pools is None:
        pools = carve_shard_pools(
            buffer_size, pool_buffers, shards, exhaustion_policy=exhaustion_policy
        )
    if len(pools) != shards:
        raise ShardingError(
            f"need one pool slice per shard: {len(pools)} pools for {shards} shards"
        )
    rx_ring = rx_ring_size if rx_ring_size is not None else 8 * batch
    tx_ring = tx_ring_size if tx_ring_size is not None else 4 * batch
    hops = sorted(set(routes.values()))
    fib = Stride8LpmTable()
    fib.load(routes)

    def make_shard(index: int, pool: Any) -> Shard:
        capsule = Capsule(f"{name}:shard{index}")
        pipeline = build_forwarding_pipeline(
            capsule,
            routes=fib,
            tx_nics={hop: Nic(tx_ring_size=tx_ring) for hop in hops},
            validate_checksums=validate_checksums,
        )
        fusion_plan = None
        if fused:
            fusion_plan = fuse_pipeline(list(capsule.components().values()))
        if compiled:
            pipeline.compile(fusion_plan=fusion_plan)
        handler = tx_handler(index) if tx_handler is not None else None
        return Shard(
            index,
            nic=Nic(rx_ring_size=rx_ring, pool=pool),
            pool=pool,
            push_batch=pipeline.push_batch,
            flush=lambda p=pipeline, h=handler: p.flush_tx(handler=h),
            engine=pipeline,
            # Reconfiguration hooks: the sharded datapath de-specialises
            # every shard while a resize/recovery round is in flight and
            # rebuilds the compiled chain on commit/rollback.
            decompile=pipeline.decompile,
            recompile=(
                (lambda p=pipeline: p.compile(strict=False)) if compiled else None
            ),
        )

    built = [make_shard(index, pools[index]) for index in range(shards)]
    return ShardedDatapath(
        built,
        threads=threads,
        hash_fn=flow_hash_of,
        batch=batch,
        steal_watermark=steal_watermark,
        supervise=supervise,
        # Frames the hash cannot parse are counted malformed refusals,
        # matching the NIC's own malformed-drop policy.
        reject=(PacketError,),
        buckets=buckets,
        # The same assembly grows the fleet at run time (elastic resize).
        shard_factory=make_shard,
        locality=locality,
        name=name,
    )
