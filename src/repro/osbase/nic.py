"""Network interface card model (stratum-1 hardware access).

A NIC owns bounded RX and TX rings.  The network side (a simulated link)
deposits arriving packets into the RX ring and drains the TX ring at line
rate; the host side (the router data path) drains RX and fills TX.  Ring
overflow drops packets and counts them — exactly the behaviour that makes
input-pressure experiments meaningful.

The NIC is an OpenCOM component so that "standard components that
interface to network cards" (paper, section 5) can bind to it like to
anything else.

Buffer lifecycle at the edge
----------------------------
A NIC may be *bound to a buffer pool* (:meth:`Nic.bind_pool`), closing
the paper's buffer-management loop at stratum 1: ``receive_frame`` then
materialises every arriving frame — raw wire bytes or a materialised
packet — as a :class:`~repro.netsim.wire.WirePacket` on a pooled buffer
(one acquire per packet, recorded in the
:data:`~repro.osbase.memory.DATAPATH_LEDGER`), and every NIC drop path
(RX overflow, oversize, TX-ring full) hands the buffer back via
:func:`~repro.osbase.buffers.release_dropped`.  The TX side completes the
cycle: :meth:`drain_tx` pops transmitted frames off the ring and releases
their buffers once they have "left the machine", so a warm router
forwards indefinitely with zero allocations and zero net pool-occupancy
drift (asserted by ``benchmarks/bench_c14_steady_state.py``).  Pool
exhaustion follows the pool's policy: ``drop-newest`` counts an RX drop,
``backpressure`` refuses the frame without consuming it so the sender
sees the stall.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Any

from repro.opencom.component import Component, Provided
from repro.opencom.errors import ResourceError
from repro.opencom.interfaces import Interface
from repro.osbase.buffers import release_dropped

#: ``WirePacket.ingest`` and ``PacketError``, resolved on the first pooled
#: receive (netsim sits above osbase, so the import cannot run at module
#: load) and cached — ingest is on the per-frame hot path of every
#: pooled-ingress benchmark.
_INGEST: Callable[..., Any] | None = None
_PACKET_ERROR: type[Exception] | None = None


def _wire_ingest() -> Callable[..., Any]:
    global _INGEST, _PACKET_ERROR
    if _INGEST is None:
        from repro.netsim.wire import PacketError, WirePacket

        _INGEST = WirePacket.ingest
        _PACKET_ERROR = PacketError
    return _INGEST


class INic(Interface):
    """Host-side interface of a NIC."""

    def receive_frame(self, packet) -> bool:
        """Network side: deposit a packet into RX; False when dropped."""
        ...

    def receive_batch(self, frames) -> int:
        """Network side: deposit frames in order; returns how many were
        accepted."""
        ...

    def poll_rx(self):
        """Host side: take one packet from RX (None when empty)."""
        ...

    def transmit(self, packet) -> bool:
        """Host side: queue a packet for transmission; False when dropped."""
        ...

    def transmit_batch(self, packets) -> int:
        """Host side: queue packets in order; returns how many were queued."""
        ...

    def poll_tx(self):
        """Network side: take one packet from TX (None when empty)."""
        ...


def _frame_size(frame: Any) -> int | None:
    """On-wire size of an arriving frame that is not ``bytes`` (those,
    the common arrival, are sized inline), for MTU validation.

    Wire/materialised packets report ``size_bytes``, other byte buffers
    their length; anything else is asked to serialise itself.  Returns
    None for an unsizable frame — the caller treats that as invalid
    rather than letting it default past MTU validation (the historical
    ``getattr(packet, "size_bytes", 0)`` bug).
    """
    size = getattr(frame, "size_bytes", None)
    if size is not None:
        return size
    try:
        return len(frame)
    except TypeError:
        pass
    to_bytes = getattr(frame, "to_bytes", None)
    if to_bytes is not None:
        return len(to_bytes())
    return None


class Nic(Component):
    """A NIC with bounded RX/TX rings, drop accounting, and an optional
    buffer-pool binding for pooled ingress materialisation."""

    PROVIDES = (Provided("nic", INic),)

    def __init__(
        self,
        *,
        rx_ring_size: int = 256,
        tx_ring_size: int = 256,
        mtu: int = 1500,
        pool: Any = None,
    ) -> None:
        self.rx_ring_size = rx_ring_size
        self.tx_ring_size = tx_ring_size
        self.mtu = mtu
        self._rx: deque[Any] = deque()
        self._tx: deque[Any] = deque()
        self.counters = {
            "rx_packets": 0,
            "rx_drops": 0,
            "rx_overruns": 0,
            "rx_backpressure": 0,
            "pool_exhausted_drops": 0,
            "tx_packets": 0,
            "tx_drops": 0,
            "tx_completions": 0,
            "oversize_drops": 0,
            "malformed_drops": 0,
        }
        #: Optional push-mode hook: when set, received frames are handed
        #: straight to the handler instead of queueing (interrupt-driven
        #: rather than polled operation).
        self.rx_handler: Callable[[Any], None] | None = None
        #: Optional buffer pool (``IBufferPool`` provider: a BufferPool
        #: or a BufferManagementCF) backing pooled ingress.
        self.pool: Any = pool
        super().__init__()

    def bind_pool(self, pool: Any) -> None:
        """Bind (or clear, with None) the ingress buffer pool."""
        self.pool = pool

    # -- network side ------------------------------------------------------------

    def receive_frame(self, packet: Any) -> bool:
        """Deposit an arriving packet; returns False when dropped (or,
        under a backpressure pool policy, refused without being consumed).
        The one-frame case of :meth:`receive_batch`."""
        return self.receive_batch((packet,)) == 1

    def receive_batch(self, frames: Any) -> int:
        """Deposit arriving frames in order; returns how many were
        accepted.

        Each frame gets exactly the outcome and counters it would get
        alone: an oversize or unsizable frame, a ring overrun, each pool
        exhaustion policy and a malformed frame are all counted and
        skipped, so one bad frame never unwinds the rest of the batch
        (only a ``raise``-policy pool running dry does, at that frame,
        as it always has).  The ring space is read once per batch:
        nothing drains the ring while the batch fills it.
        """
        counters = self.counters
        mtu = self.mtu
        pool = self.pool
        handler = self.rx_handler
        rx = self._rx
        ingest = (_INGEST or _wire_ingest()) if pool is not None else None
        # Push mode has no ring, so no overrun.
        space = len(frames) if handler is not None else self.rx_ring_size - len(rx)
        accepted = 0
        try:
            for frame in frames:
                size = len(frame) if type(frame) is bytes else _frame_size(frame)
                if size is None or size > mtu:
                    # Unsizable frames are malformed, not free passes past
                    # MTU validation; dropped frames hand back any pooled
                    # buffer.
                    counters["oversize_drops"] += 1
                    release_dropped(frame)
                    continue
                if accepted >= space:
                    # Ring-full is checked before the pool acquire so an
                    # overrun never burns (and immediately strands) a
                    # pooled buffer.
                    counters["rx_drops"] += 1
                    counters["rx_overruns"] += 1
                    release_dropped(frame)
                    continue
                if ingest is not None:
                    try:
                        ingested = ingest(frame, pool=pool)
                    except ResourceError:
                        # A frame within MTU but larger than any pool
                        # buffer can never be materialised: under the
                        # datapath policies it is an oversize drop (not a
                        # transient refusal — retrying could never
                        # succeed), never a mid-datapath unwind.
                        if getattr(pool, "exhaustion_policy", "raise") == "raise":
                            raise
                        counters["oversize_drops"] += 1
                        release_dropped(frame)
                        continue
                    except _PACKET_ERROR:
                        # Unparseable bytes (truncated header, unknown
                        # version, IPv4 options) are malformed input, not
                        # a datapath error: ingest has already handed the
                        # acquired buffer back, so this is a counted drop.
                        counters["rx_drops"] += 1
                        counters["malformed_drops"] += 1
                        continue
                    if ingested is None:
                        if getattr(pool, "exhaustion_policy", "raise") == "backpressure":
                            # The frame is refused, not consumed: the
                            # sender may hold it and retry, so this is not
                            # a drop.
                            counters["rx_backpressure"] += 1
                            continue
                        counters["rx_drops"] += 1
                        counters["pool_exhausted_drops"] += 1
                        release_dropped(frame)
                        continue
                    frame = ingested
                accepted += 1
                if handler is None:
                    rx.append(frame)
                else:
                    handler(frame)
        finally:
            # Also on an unwind: the frames already accepted stay counted.
            counters["rx_packets"] += accepted
        return accepted

    def poll_tx(self) -> Any | None:
        """Take one packet off the TX ring (link drain side).

        Ownership transfers to the caller: once the frame has been put on
        the wire the caller releases its buffer (or uses :meth:`drain_tx`,
        which does both).
        """
        if not self._tx:
            return None
        return self._tx.popleft()

    def drain_tx(
        self,
        handler: Callable[[Any], None] | None = None,
        *,
        budget: int | None = None,
    ) -> int:
        """Drain up to *budget* frames off the TX ring; returns the number
        drained.

        Each frame is handed to *handler* (which then owns it — e.g. a
        link's ``send_from``) or, with no handler, treated as serialised
        onto the wire: its pooled buffer is released so the pool recycles
        it for the next arrival.  This is the egress half of the
        RX→TX buffer lifecycle.  The budget defaults to the current ring
        depth, so a handler that refills the ring cannot spin the drain
        forever.
        """
        tx = self._tx
        popleft = tx.popleft
        if handler is None:
            handler = release_dropped
        limit = len(tx) if budget is None else budget
        drained = 0
        try:
            while drained < limit and tx:
                handler(popleft())
                drained += 1
        finally:  # counted once, also on an unwind
            self.counters["tx_completions"] += drained
        return drained

    # -- host side -----------------------------------------------------------------

    def poll_rx(self) -> Any | None:
        """Take one received packet (None when the RX ring is empty)."""
        if not self._rx:
            return None
        return self._rx.popleft()

    def drain_rx(self, handler: Callable[[Any], None], *, budget: int | None = None) -> int:
        """Hand up to *budget* received packets to *handler*; returns the
        number processed (NAPI-style polled processing).

        With no explicit budget the ring length at entry is the implicit
        budget, so a handler that re-enqueues to this same NIC (loopback
        or hairpin wiring) processes one ring's worth and returns instead
        of livelocking on its own refills.
        """
        rx = self._rx
        popleft = rx.popleft
        limit = len(rx) if budget is None else budget
        processed = 0
        while processed < limit and rx:  # repeats only for refills under a budget
            chunk = min(limit - processed, len(rx))
            for _ in range(chunk):
                handler(popleft())
            processed += chunk
        return processed

    def transmit(self, packet: Any) -> bool:
        """Queue a packet for transmission; False when the TX ring is full.
        The one-packet case of :meth:`transmit_batch`."""
        return self.transmit_batch((packet,)) == 1

    def transmit_batch(self, packets: Any) -> int:
        """Queue a sequence of packets in order; returns how many were
        queued.  Drop-tail per packet as one :meth:`transmit` each, with
        the ring space read once: the packets past a full ring count
        ``tx_drops`` and have their pooled buffers released (calling
        transmit hands ownership over)."""
        tx = self._tx
        sent = len(packets)
        space = self.tx_ring_size - len(tx)
        if sent <= space:
            tx.extend(packets)
            self.counters["tx_packets"] += sent
            return sent
        sent = max(space, 0)
        tx.extend(packets[:sent])
        dropped = packets[sent:]
        counters = self.counters
        counters["tx_packets"] += sent
        counters["tx_drops"] += len(dropped)
        for packet in dropped:
            release_dropped(packet)
        return sent

    # -- introspection ----------------------------------------------------------------

    @property
    def rx_depth(self) -> int:
        """Packets waiting in the RX ring."""
        return len(self._rx)

    @property
    def tx_depth(self) -> int:
        """Packets waiting in the TX ring."""
        return len(self._tx)

    def stats(self) -> dict[str, int]:
        """Counter snapshot plus current ring depths."""
        return {**self.counters, "rx_depth": self.rx_depth, "tx_depth": self.tx_depth}
