"""Edge admission tier: a swappable classify → queue → schedule stage in
front of a sharded datapath.

The multi-capsule fleet (C18) put *static* admission control at the edge;
the adaptation stratum needs the edge itself to be reconfigurable — the
paper's queue-discipline and scheduler hot-swaps (A2, C10b) applied to
the admission path of a live fleet.  The tier is assembled as an
ordinary :class:`~repro.router.pipeline.RouterPipeline` over Router-CF
plug-ins, so every swap goes through the architecture meta-model
(:meth:`RouterPipeline.swap_stage`: quiesce → unbind → state transfer →
rebind → resume, rollback on failure) and every replacement is
re-validated by the CF's rules before it serves a packet.

Topology (flat, one capsule)::

    classifier --<class>--> queue:<class>   (one per traffic class)
    scheduler   <--pull---- queues; pushes --> injector sink
    injector sink --bytes--> inject(frames)   (e.g. ShardedDatapath.steer_batch)

Packets queue *materialised* (plain :class:`~repro.netsim.packet.Packet`,
no pool buffer held); the injector serialises to wire bytes at the last
moment, so the datapath's NIC-side pool accounting starts exactly at
injection — an admission drop never strands a pooled buffer.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Mapping
from typing import Any

from repro.netsim.packet import Packet
from repro.opencom.capsule import Capsule
from repro.opencom.component import Component, Provided
from repro.router.components.base import PushTarget
from repro.router.interfaces import IPacketPush
from repro.router.components.classifier import Classifier
from repro.router.components.scheduling import DrrScheduler
from repro.router.pipeline import RouterPipeline
from repro.router.router_cf import RouterCF


class InjectorSink(PushTarget):
    """Terminal push component: serialise packets and hand the wire bytes
    to an inject callable (typically ``ShardedDatapath.steer_batch``).

    The callable returns how many frames the downstream accepted;
    refusals are counted ``inject:refused`` (the steering layer holds
    the per-frame reasons).
    """

    PROVIDES = (Provided("in0", IPacketPush),)

    def __init__(self, inject: Callable[[list[bytes]], int]) -> None:
        super().__init__()
        self.inject = inject

    def push_batch(self, packets: list[Packet]) -> None:
        self.count("rx", len(packets))
        frames = [packet.to_bytes() for packet in packets]
        accepted = self.inject(frames)
        self.count("injected", accepted)
        if accepted < len(frames):
            self.count("inject:refused", len(frames) - accepted)


class AdmissionTier:
    """Reconfigurable admission stage over a :class:`RouterPipeline`.

    Parameters
    ----------
    capsule:
        Capsule the tier's components live in (swaps go through its
        architecture meta-model).
    inject:
        ``list[bytes] -> int`` — downstream acceptor for scheduled
        traffic; returns frames accepted.
    classes:
        Ordered mapping of traffic-class name → queue factory.  One
        queue per class; the classifier emits on the class's named
        connection and the scheduler pulls it back by the same name.
    filters:
        Filter-language specs installed on the classifier (e.g.
        ``"dport=53 -> interactive"``).
    default_class:
        Class for unmatched packets (defaults to the last *classes* key).
    scheduler_factory:
        Link-scheduler factory (default: byte-fair :class:`DrrScheduler`).
    """

    def __init__(
        self,
        capsule: Capsule,
        inject: Callable[[list[bytes]], int],
        *,
        classes: Mapping[str, Callable[[], Component]],
        filters: tuple[str, ...] = (),
        default_class: str | None = None,
        scheduler_factory: Callable[[], Component] | None = None,
        name: str = "admission",
    ) -> None:
        if not classes:
            raise ValueError("admission tier needs at least one traffic class")
        self.name = name
        self.classes = tuple(classes)
        default = default_class if default_class is not None else self.classes[-1]
        if default not in classes:
            raise ValueError(f"default class {default!r} not in classes")
        if scheduler_factory is None:
            scheduler_factory = DrrScheduler

        cf = RouterCF()
        capsule.adopt(cf, f"{name}-cf")
        classifier = capsule.instantiate(
            lambda: Classifier(default_output=default), f"{name}-classifier"
        )
        for spec in filters:
            classifier.register_filter(spec)
        queues: dict[str, Component] = {
            klass: capsule.instantiate(factory, f"{name}-queue:{klass}")
            for klass, factory in classes.items()
        }
        scheduler = capsule.instantiate(scheduler_factory, f"{name}-scheduler")
        sink = capsule.instantiate(lambda: InjectorSink(inject), f"{name}-sink")

        for klass in self.classes:
            capsule.bind(
                classifier.receptacle("out"), queues[klass].interface("in0"),
                connection_name=klass,
            )
            capsule.bind(
                scheduler.receptacle("inputs"), queues[klass].interface("pull0"),
                connection_name=klass,
            )
        capsule.bind(scheduler.receptacle("out"), sink.interface("in0"))

        for component in (classifier, *queues.values(), scheduler, sink):
            cf.accept(component)

        self.pipeline = RouterPipeline(
            capsule=capsule,
            cf=cf,
            entry=classifier,
            stages={
                "classifier": classifier,
                **{f"queue:{k}": q for k, q in queues.items()},
                "scheduler": scheduler,
                "sink": sink,
            },
            scheduler=scheduler,
        )
        self._quiesced = False
        self._versions: dict[str, int] = defaultdict(int)
        self.admitted_total = 0

    # -- data path ---------------------------------------------------------

    def push_batch(self, packets: list[Packet]) -> int:
        """Admit a batch at the classifier; returns packets offered.

        Arrivals keep flowing while the tier is quiesced — quiescence
        freezes the *pull* side only, so reconfiguration never turns the
        edge away (overflow policy, not refusal, handles the backlog).
        """
        self.admitted_total += len(packets)
        self.pipeline.push_batch(packets)
        return len(packets)

    def service(self, budget: int = 64) -> int:
        """Schedule up to *budget* packets into the injector; 0 while
        quiesced."""
        if self._quiesced:
            return 0
        return self.pipeline.service(budget)

    # -- quiescence --------------------------------------------------------

    @property
    def quiesced(self) -> bool:
        return self._quiesced

    def quiesce(self) -> None:
        """Freeze the pull side (idempotent); arrivals still queue."""
        self._quiesced = True

    def resume(self) -> None:
        self._quiesced = False

    # -- introspection -----------------------------------------------------

    def class_depth(self) -> dict[str, int]:
        """Per-class queue depth (scheduler-pending heads included, so the
        total never undercounts packets still inside the tier)."""
        depths = {
            klass: self.pipeline.stages[f"queue:{klass}"].depth
            for klass in self.classes
        }
        pending = getattr(self.pipeline.stages["scheduler"], "_pending", None)
        if pending:
            for klass in pending:
                if klass in depths:
                    depths[klass] += 1
        return depths

    def depth(self) -> int:
        """Packets currently queued inside the tier."""
        return sum(self.class_depth().values())

    def drop_total(self) -> int:
        """Packets dropped by the tier's queues (all drop reasons)."""
        total = 0
        for klass in self.classes:
            counters = self.pipeline.stages[f"queue:{klass}"].counters
            total += sum(
                count for key, count in counters.items() if key.startswith("drop:")
            )
        return total

    def injected_total(self) -> int:
        return self.pipeline.stages["sink"].counters.get("injected", 0)

    def stage_stats(self) -> dict[str, dict[str, int]]:
        return self.pipeline.stage_stats()

    def describe(self) -> dict[str, Any]:
        """Current tier shape — discipline names the policy engine and the
        bench read to know which configuration is live."""
        return {
            "classes": list(self.classes),
            "queues": {
                klass: type(self.pipeline.stages[f"queue:{klass}"]).__name__
                for klass in self.classes
            },
            "scheduler": type(self.pipeline.stages["scheduler"]).__name__,
            "quiesced": self._quiesced,
            "depth": self.depth(),
        }

    # -- reconfiguration ---------------------------------------------------

    def _next_name(self, stage: str) -> str:
        self._versions[stage] += 1
        return f"{self.name}-{stage}#v{self._versions[stage]}"

    def swap_queue(self, klass: str, factory: Callable[[], Component]) -> Component:
        """Hot-swap one class's queue discipline, backlog carried across
        (``STATE_ATTRS`` state transfer).  Purely mechanical — safety
        (quiesced port, decompiled regions) is the adaptation rule set's
        concern, enforced *before* this is ever called."""
        stage = f"queue:{klass}"
        if stage not in self.pipeline.stages:
            raise KeyError(f"no queue for class {klass!r}")
        return self.pipeline.swap_stage(
            stage, factory, new_name=self._next_name(stage)
        )

    def swap_scheduler(self, factory: Callable[[], Component]) -> Component:
        """Hot-swap the link scheduler.

        Byte-fair disciplines (DRR/WFQ) stash one pulled-but-unserved
        head packet per input in ``_pending``; those packets are
        restitched to the *front* of their queues before the swap so no
        packet is lost and per-flow FIFO survives the discipline change.
        """
        old = self.pipeline.stages["scheduler"]
        pending = getattr(old, "_pending", None)
        if pending:
            for input_name, packet in list(pending.items()):
                queue = self.pipeline.stages.get(f"queue:{input_name}")
                if queue is not None:
                    queue._queue.appendleft(packet)
            pending.clear()
        return self.pipeline.swap_stage(
            "scheduler", factory, new_name=self._next_name("scheduler")
        )
