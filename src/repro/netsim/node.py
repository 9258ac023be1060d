"""Simulated network nodes.

A node owns a capsule (its software lives there), one NIC per attached
link port, an IPv4 address for control-plane addressing, and dispatch
hooks: a *packet handler* for the forwarding path and per-protocol
*control handlers* for packets addressed to the node itself (stratum-4
signaling, active-network capsules).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.netsim.engine import Engine
from repro.netsim.link import Link
from repro.netsim.packet import IPv4Header, Packet, format_ipv4, ipv4
from repro.opencom.capsule import Capsule
from repro.opencom.errors import OpenComError
from repro.osbase.buffers import release_dropped
from repro.osbase.nic import Nic

PacketHandler = Callable[[Packet, str], None]
ControlHandler = Callable[[Packet, str], None]


class NodeError(OpenComError):
    """Invalid node operation (unknown port, duplicate attachment, ...)."""


class Node:
    """One network node hosting a capsule of components."""

    def __init__(
        self,
        name: str,
        engine: Engine,
        *,
        address: str | int | None = None,
    ) -> None:
        self.name = name
        self.engine = engine
        self.capsule = Capsule(f"node:{name}")
        self.address = ipv4(address) if address is not None else 0
        self._links: dict[str, Link] = {}
        #: Neighbour name -> the first port attached toward it.
        self._port_to: dict[str, str] = {}
        self._nics: dict[str, Nic] = {}
        self._packet_handler: PacketHandler | None = None
        self._control_handlers: dict[int, ControlHandler] = {}
        self.counters = {
            "delivered_local": 0,
            "forwarded": 0,
            "no_handler_drops": 0,
            "delivery_drops": 0,
            "sent": 0,
            "send_failures": 0,
        }

    # -- wiring --------------------------------------------------------------------

    def attach_link(self, port: str, link: Link, *, nic: Nic | None = None) -> Nic:
        """Attach a link at *port*, creating (or adopting) the port's NIC."""
        if port in self._links:
            raise NodeError(f"node {self.name} already has a link on port {port!r}")
        self._port_to.setdefault(link.peer_of(self).name, port)
        self._links[port] = link
        if nic is None:
            nic = self.capsule.instantiate(Nic, f"nic:{port}")
        self._nics[port] = nic
        nic.rx_handler = lambda pkt, port=port: self._ingress(pkt, port)
        return nic

    def ports(self) -> list[str]:
        """Attached port names (sorted)."""
        return sorted(self._links)

    def link(self, port: str) -> Link:
        """The link attached at *port*."""
        try:
            return self._links[port]
        except KeyError:
            raise NodeError(f"node {self.name} has no port {port!r}") from None

    def nic(self, port: str) -> Nic:
        """The NIC at *port*."""
        try:
            return self._nics[port]
        except KeyError:
            raise NodeError(f"node {self.name} has no port {port!r}") from None

    def neighbor(self, port: str) -> "Node":
        """The node at the far end of *port*."""
        return self.link(port).peer_of(self)

    # -- dispatch --------------------------------------------------------------------

    def set_packet_handler(self, handler: PacketHandler | None) -> None:
        """Install the forwarding-path handler ``(packet, in_port)``."""
        self._packet_handler = handler

    def register_protocol(self, protocol: int, handler: ControlHandler) -> None:
        """Register a control handler for locally addressed packets with
        the given IP protocol number."""
        if protocol in self._control_handlers:
            raise NodeError(
                f"node {self.name} already handles protocol {protocol}"
            )
        self._control_handlers[protocol] = handler

    def unregister_protocol(self, protocol: int) -> None:
        """Remove a control-protocol handler."""
        self._control_handlers.pop(protocol, None)

    def deliver(self, port: str, packet: Packet) -> None:
        """Link side: a packet arrives at *port* (goes through the NIC).

        A refused frame is dropped *here*: the NIC counts and releases
        its own drops, but a backpressure refusal leaves the frame
        unconsumed, and a node has no retry path — so the node is the
        last holder and hands the buffer back.
        """
        nic = self.nic(port)
        refused_before = nic.counters["rx_backpressure"]
        if not nic.receive_frame(packet):
            self.counters["delivery_drops"] += 1
            if nic.counters["rx_backpressure"] > refused_before:
                release_dropped(packet)

    def _ingress(self, packet: Packet, port: str) -> None:
        packet.metadata["ingress_port"] = port
        packet.metadata["ingress_node"] = self.name
        if (
            isinstance(packet.net, IPv4Header)
            and packet.net.protocol in self._control_handlers
        ):
            # Registered control protocols see every packet of their
            # protocol number — the handler decides local vs transit
            # (signaling agents forward hop-by-hop themselves).
            self.counters["delivered_local"] += 1
            self._control_handlers[packet.net.protocol](packet, port)
            return
        if self._packet_handler is not None:
            self.counters["forwarded"] += 1
            self._packet_handler(packet, port)
            return
        self.counters["no_handler_drops"] += 1
        release_dropped(packet)

    # -- egress ----------------------------------------------------------------------

    def send(self, port: str, packet: Packet) -> bool:
        """Transmit a packet out of *port*; returns False on drop."""
        link = self.link(port)
        nic = self.nic(port)
        if not nic.transmit(packet):
            self.counters["send_failures"] += 1
            return False
        # Cut-through: drain the TX ring into the link, which applies
        # serialisation delay and backlog limits itself.
        ok = True
        while True:
            queued = nic.poll_tx()
            if queued is None:
                break
            if not link.send_from(self, queued):
                self.counters["send_failures"] += 1
                ok = False
            else:
                self.counters["sent"] += 1
        return ok

    def send_to_neighbor(self, neighbor_name: str, packet: Packet) -> bool:
        """Transmit toward the named adjacent node."""
        return self.send(self.port_to(neighbor_name), packet)

    def port_to(self, neighbor_name: str) -> str:
        """The local port facing the named adjacent node (the first one
        attached, when several links reach it)."""
        try:
            return self._port_to[neighbor_name]
        except KeyError:
            raise NodeError(
                f"node {self.name} has no link to {neighbor_name!r}"
            ) from None

    def describe(self) -> dict[str, Any]:
        """Introspective summary of the node."""
        return {
            "name": self.name,
            "address": format_ipv4(self.address) if self.address else None,
            "ports": {
                port: {
                    "peer": self.neighbor(port).name,
                    "nic": self.nic(port).stats(),
                }
                for port in self.ports()
            },
            "counters": dict(self.counters),
            "protocols": sorted(self._control_handlers),
            "components": sorted(self.capsule.components()),
        }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<Node {self.name} ports={self.ports()}>"
