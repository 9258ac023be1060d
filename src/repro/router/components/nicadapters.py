"""NIC adapter components: the edge of the stratum-2 data path.

The paper's Router CF provides "'standard' components that interface to
network cards and wrap efficient kernel-user space communication
mechanisms".  :class:`NicIngress` turns frames arriving at a stratum-1
:class:`~repro.osbase.nic.Nic` into pushes on the pipeline;
:class:`NicEgress` turns pipeline pushes into transmissions (usually
``node.send`` on a port).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.netsim.packet import Packet
from repro.osbase.nic import Nic
from repro.router.components.base import (
    PacketComponent,
    PushComponent,
    release_dropped,
)
from repro.opencom.component import Required
from repro.router.interfaces import IPacketPush


class NicIngress(PacketComponent):
    """Frames from a NIC become pushes on the ``out`` receptacle.

    Operates in interrupt mode (``attach`` installs an rx handler) or
    polled mode (:meth:`poll` drains the RX ring through the pipeline
    with a budget — NAPI style).
    """

    RECEPTACLES = (
        Required("out", IPacketPush, min_connections=0, max_connections=1),
    )

    def __init__(self) -> None:
        super().__init__()
        self._nic: Nic | None = None

    def attach(self, nic: Nic, *, interrupt_mode: bool = True) -> None:
        """Bind to a NIC; interrupt mode pushes frames as they arrive."""
        self._nic = nic
        if interrupt_mode:
            nic.rx_handler = self._on_frame
        else:
            nic.rx_handler = None

    def detach(self) -> None:
        """Unhook from the NIC."""
        if self._nic is not None and self._nic.rx_handler == self._on_frame:
            self._nic.rx_handler = None
        self._nic = None

    def _on_frame(self, packet: Packet) -> None:
        self.count("rx")
        out = self.receptacle("out")
        if out.bound:
            out.push(packet)
            self.count("tx")
        else:
            self.count("drop:unplumbed")
            release_dropped(packet)

    def poll(self, budget: int = 64) -> int:
        """Polled mode: drain up to *budget* frames from the RX ring.

        Drained frames enter the pipeline as one batch per poll (NAPI
        batching), with the same counters as interrupt-mode delivery.
        """
        if self._nic is None:
            return 0
        frames: list[Packet] = []
        drained = self._nic.drain_rx(frames.append, budget=budget)
        if frames:
            self.count("rx", len(frames))
            out = self.receptacle("out")
            if out.bound:
                out.push_batch(frames)
                self.count("tx", len(frames))
            else:
                self.count("drop:unplumbed", len(frames))
                for frame in frames:
                    release_dropped(frame)
        return drained


class NicEgress(PushComponent):
    """Pipeline pushes become transmissions via a transmit callable.

    Ownership convention: *calling* the transmit function hands the
    packet over — on failure (False) the callee has already counted the
    drop and released any pooled buffer (``Nic.transmit``, ``Node.send``
    and the link drop paths all honour this), so the egress component
    must not release it again.
    """

    def __init__(self, transmit: Callable[[Packet], bool] | None = None) -> None:
        super().__init__()
        self._transmit = transmit

    def set_transmit(self, transmit: Callable[[Packet], bool]) -> None:
        """Install (or replace) the transmit function."""
        self._transmit = transmit

    def process(self, packet: Packet) -> None:
        """Transmit; failures count ``drop:tx-failed`` (the transmit
        callable owns the packet either way — see the class docstring)."""
        if self._transmit is None:
            self.count("drop:unplumbed")
            release_dropped(packet)
            return
        if self._transmit(packet):
            self.count("tx")
        else:
            self.count("drop:tx-failed")


class TransmitAdapter(PushComponent):
    """Terminal egress closing the buffer lifecycle through a NIC.

    The push side queues packets on the bound NIC's TX ring
    (:meth:`push_batch` → ``nic.transmit_batch``; ring-full drops are counted
    and released by the NIC itself).  The wire side — :meth:`drain_wire` —
    pops transmitted frames off the ring and releases their pooled
    buffers (or hands them to an explicit consumer such as a link), which
    is what lets a warm router recycle the same buffers indefinitely:
    ingress acquires, the datapath moves references, this adapter's drain
    releases.
    """

    def __init__(self, nic: Nic | None = None) -> None:
        super().__init__()
        self._nic = nic

    def attach(self, nic: Nic) -> None:
        """Bind (or replace) the TX NIC."""
        self._nic = nic

    @property
    def nic(self) -> Nic | None:
        """The bound TX NIC."""
        return self._nic

    def push_batch(self, packets: list[Packet]) -> None:
        """Hand the whole batch to the TX ring (``Nic.transmit_batch``
        keeps exact per-packet drop-tail); ``drop:tx-full`` on overflow
        (the NIC released the buffer — transmit owns the packet)."""
        n = len(packets)
        self.count("rx", n)
        nic = self._nic
        if nic is None:
            self.count("drop:unplumbed", n)
            for packet in packets:
                release_dropped(packet)
            return
        sent = nic.transmit_batch(packets)
        self.count("tx", sent)
        if sent != n:
            self.count("drop:tx-full", n - sent)

    def drain_wire(
        self,
        *,
        budget: int | None = None,
        handler: Callable[[Packet], None] | None = None,
    ) -> int:
        """Drain the TX ring's frames off the machine; returns the number
        drained.  Without a *handler* each frame's pooled buffer returns
        to its pool (the frame has been serialised onto the wire)."""
        if self._nic is None:
            return 0
        return self._nic.drain_tx(handler, budget=budget)
