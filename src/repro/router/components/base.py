"""Shared machinery for Router CF plug-in components.

Conventions used throughout the stratum-2 component library:

- push-style processors provide an ``IPacketPush`` interface named
  ``in0`` and emit downstream through a multi-receptacle named ``out``
  whose *connection names* are the "named outgoing interfaces" that filter
  specifications refer to;
- every component keeps a ``counters`` dict (packets seen, dropped,
  emitted, per-reason drops) so experiments read consistent statistics;
- drops are never silent: they are counted, and optionally handed to a
  dead-letter connection named ``drop`` when one is bound;
- **one body per component.**  A push component writes either
  ``process`` (per-packet logic that :class:`PushComponent` batches) or
  ``push_batch``, never both; scalar ``push(p)`` is ``push_batch([p])``,
  inherited from :class:`PushTarget`.  A pull provider writes
  ``pull_batch``; the link schedulers' scalar ``pull()`` is the first
  item of ``pull_batch(1)``.  The one exception is
  :class:`DequeSource`, whose ``pull`` stays a direct ``popleft``
  because DRR/WFQ refill their heads through it once per packet.  So
  scalar ≡ batch holds by construction; see
  :meth:`PushComponent.push_batch` for the batch protocol.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.netsim.packet import Packet
from repro.opencom.component import Component, Provided, Required
from repro.opencom.errors import ReceptacleError

# The canonical drop-path hand-back lives at stratum 1 with the pools it
# feeds (the NIC and the netsim link/node edge call it too); re-exported
# here because every stratum-2 component drops through it.
from repro.osbase.buffers import release_dropped  # noqa: F401 (re-export)
from repro.router.interfaces import IPacketPull, IPacketPush


class PacketComponent(Component):
    """Base for all packet-processing components: counter bookkeeping."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = defaultdict(int)
        super().__init__()

    def count(self, key: str, increment: int = 1) -> None:
        """Bump a named counter."""
        self.counters[key] += increment

    def stats(self) -> dict[str, int]:
        """Counter snapshot."""
        return dict(self.counters)


class PushTarget(PacketComponent):
    """Base for every ``IPacketPush`` provider: its one body is
    ``push_batch``, and :meth:`push` — defined here, once — hands it a
    batch of one.  Subclasses never write a scalar ``push``."""

    def push(self, packet: Packet) -> None:
        """IPacketPush entry point: a batch of one."""
        self.push_batch([packet])


class PushComponent(PushTarget):
    """Base for push-style processors: ``in0`` in, ``out`` fan-out.

    One body per component: a subclass writes either ``process(packet)``
    (per-packet logic; the inherited :meth:`push_batch` loops it) or its
    own :meth:`push_batch`, never both.  Scalar ``push`` is a batch of
    one (:class:`PushTarget`), so scalar ≡ batch holds by construction.
    :meth:`emit` routes to a named outgoing connection (or the sole
    connection when unambiguous), counting drops when the requested
    connection is unbound.
    """

    PROVIDES = (Provided("in0", IPacketPush),)
    RECEPTACLES = (
        Required("out", IPacketPush, min_connections=0, max_connections=None),
    )

    def push_batch(self, packets: list[Packet]) -> None:
        """Batch IPacketPush entry point: process a whole list of packets.

        Protocol (the contract every override must honour):

        - counter totals after ``push_batch(a + b)`` equal those after
          ``push_batch(a); push_batch(b)`` — so also those after
          ``for p in pkts: push(p)``, each ``push`` being a batch of one;
        - packets forwarded on any one outgoing connection leave in their
          arrival order (per-connection FIFO).  A batching component *may*
          group packets per connection, so the interleaving *across*
          different outgoing connections can differ from per-packet
          operation — exactly like a fan-out NIC queue;
        - interception is the vtable's concern, not the component's: when
          an interceptor sits on the ``in0`` slot the vtable delivers the
          batch item-by-item through the interposed closure, each item one
          ``push`` and so a batch of one.

        The default loops the subclass's ``process(packet)``; a subclass
        that amortises per-call work (bulk queue appends, grouped
        emission, shared lookups) overrides this instead and writes no
        ``process``.
        """
        self.count("rx", len(packets))
        process = self.process
        for packet in packets:
            process(packet)

    def emit(self, packet: Packet, connection: str | None = None) -> bool:
        """Send *packet* on the named outgoing connection.

        With ``connection=None`` the sole connection is used.  Unbound or
        ambiguous emission drops the packet (counted as
        ``drop:no-route``) — a mis-plumbed pipeline is observable, not
        fatal.
        """
        out = self.receptacle("out")
        if connection is None:
            ports = out.connections()
            if len(ports) == 1:
                ports[0].push(packet)
                self.count("tx")
                return True
            self.count("drop:no-route")
            release_dropped(packet)
            return False
        try:
            port = out.port(connection)
        except ReceptacleError:
            self.count("drop:no-route")
            self.count(f"drop:no-route:{connection}")
            release_dropped(packet)
            return False
        port.push(packet)
        self.count("tx")
        return True

    def emit_batch(self, packets: list[Packet], connection: str | None = None) -> bool:
        """Send a whole list of packets down one outgoing connection.

        The batch analogue of :meth:`emit`: one ``push_batch`` call on the
        port instead of a per-packet ``push``, with identical counter
        semantics (``tx``/``drop:no-route`` bumped by the batch size).
        Empty batches are a no-op.
        """
        if not packets:
            return True
        out = self.receptacle("out")
        if connection is None:
            ports = out.connections()
            if len(ports) == 1:
                ports[0].push_batch(packets)
                self.count("tx", len(packets))
                return True
            self.count("drop:no-route", len(packets))
            for packet in packets:
                release_dropped(packet)
            return False
        try:
            port = out.port(connection)
        except ReceptacleError:
            self.count("drop:no-route", len(packets))
            self.count(f"drop:no-route:{connection}", len(packets))
            for packet in packets:
                release_dropped(packet)
            return False
        port.push_batch(packets)
        self.count("tx", len(packets))
        return True

    def output_names(self) -> list[str]:
        """Names of currently bound outgoing connections."""
        return self.receptacle("out").connection_names()


class DequeSource(PacketComponent):
    """Base for ``IPacketPull`` providers serving a FIFO deque
    (``_queue``): the queues and the test feeder share this one
    ``pull``/``pull_batch`` pair.

    ``pull`` stays a direct ``popleft`` rather than ``pull_batch(1)``:
    DRR/WFQ refill a head through it once per packet.
    ``pull_batch(n)`` is exactly *n* ``pull()`` calls (same order, same
    ``tx`` total, same residual depth) with the per-packet dispatch and
    counter cost paid once.
    """

    PROVIDES = (Provided("pull0", IPacketPull),)

    def __init__(self, packets: list[Packet] | None = None) -> None:
        super().__init__()
        self._queue: deque[Packet] = deque(packets or [])

    def pull(self) -> Packet | None:
        """Dequeue the head packet (None when empty)."""
        if not self._queue:
            return None
        self.count("tx")
        return self._queue.popleft()

    def pull_batch(self, max_n: int) -> list[Packet]:
        """Dequeue up to *max_n* head packets in one call."""
        queue = self._queue
        n = min(max_n, len(queue))
        if n <= 0:
            return []
        self.count("tx", n)
        popleft = queue.popleft
        return [popleft() for _ in range(n)]

    @property
    def depth(self) -> int:
        """Packets currently queued."""
        return len(self._queue)
