"""Point-to-point links: bandwidth, propagation delay, loss, backlog.

A link connects two (node, port) endpoints in full duplex.  Each direction
serialises packets at the configured bandwidth (a busy-until horizon), adds
propagation latency, drops with a seeded Bernoulli loss process, and bounds
its backlog — pushing a packet into a saturated direction fails, which is
how congestion becomes visible to NICs and queues upstream.

Links are also the unit of *partition* in the fault model
(:mod:`repro.netsim.faults`): a partitioned direction black-holes every
packet (counted in ``dropped_down``, pooled buffers released) without
telling the sender, exactly like a cut cable — the coordination stratum's
timeout/retry machinery, not the sender's return code, is what notices.

Loss determinism: each direction owns its *own* RNG, derived from the
link seed, so the two directions' loss processes never perturb each
other, and :meth:`Link.set_loss_rate` can re-seed mid-run — a loss
schedule applied at time T is then reproducible regardless of how much
traffic (and how many RNG draws) preceded T.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.netsim.engine import Engine
from repro.netsim.packet import Packet
from repro.osbase.buffers import release_dropped

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.node import Node


@dataclass
class LinkStats:
    """Per-direction link statistics."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    dropped_backlog: int = 0
    dropped_down: int = 0
    bytes_sent: int = 0


class _Direction:
    """One direction of a duplex link, delivering into *peer* at *port*.

    Frames in flight wait in a FIFO and one bound method, :meth:`_arrive`,
    delivers the head.  That is sound because a direction serialises in
    send order (``busy_until`` never moves back) and adds one fixed
    propagation delay: arrival times are non-decreasing in send order, and
    equal times fire in schedule order, so the event that fires is always
    the oldest frame's.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth_bps: float,
        latency_s: float,
        loss_rate: float,
        max_backlog: int,
        rng: random.Random,
        peer: "Node",
        port: str,
    ) -> None:
        self.engine = engine
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.loss_rate = loss_rate
        self.max_backlog = max_backlog
        self.rng = rng
        self.busy_until = 0.0
        self.up = True
        self.stats = LinkStats()
        self._deliver = peer.deliver
        self._port = port
        self._flight: deque = deque()

    @property
    def in_flight(self) -> int:
        """Frames sent and not yet arrived (or black-holed)."""
        return len(self._flight)

    def send(self, packet: Packet) -> bool:
        """Serialise and propagate one packet; returns False when dropped.

        The call consumes the packet either way: a backlog drop, a loss,
        or a partition black-hole releases any pooled wire buffer here
        (the sender handed ownership over), successful delivery passes
        ownership to the receiver.
        """
        if not self.up:
            # Partitioned: the cable is cut.  The sender cannot tell (as
            # with loss) — recovery is the retry layer's job, not a
            # return-code branch.
            self.stats.dropped_down += 1
            release_dropped(packet)
            return True
        if len(self._flight) >= self.max_backlog:
            self.stats.dropped_backlog += 1
            release_dropped(packet)
            return False
        now = self.engine.now
        start = max(now, self.busy_until)
        tx_delay = packet.size_bytes * 8 / self.bandwidth_bps
        self.busy_until = start + tx_delay
        self.stats.sent += 1
        self.stats.bytes_sent += packet.size_bytes
        if self.loss_rate > 0 and self.rng.random() < self.loss_rate:
            self.stats.lost += 1
            release_dropped(packet)
            return True  # the sender cannot tell a lost packet was lost
        self._flight.append(packet)
        self.engine.schedule_at(self.busy_until + self.latency_s, self._arrive)
        return True

    def _arrive(self) -> None:
        packet = self._flight.popleft()
        if not self.up:
            # Partition landed while the packet was in flight: it never
            # crosses.
            self.stats.dropped_down += 1
            release_dropped(packet)
            return
        self.stats.delivered += 1
        self._deliver(self._port, packet)

    @property
    def utilisation_horizon(self) -> float:
        """Seconds of queued serialisation work ahead of 'now'."""
        return max(0.0, self.busy_until - self.engine.now)


def _direction_rngs(seed: int | str) -> tuple[random.Random, random.Random]:
    """Independent per-direction RNGs derived from one link seed."""
    return random.Random(f"link:{seed}:a2b"), random.Random(f"link:{seed}:b2a")


class Link:
    """A duplex link between two node ports."""

    def __init__(
        self,
        engine: Engine,
        a: "tuple[Node, str]",
        b: "tuple[Node, str]",
        *,
        bandwidth_bps: float = 100e6,
        latency_s: float = 1e-3,
        loss_rate: float = 0.0,
        max_backlog: int = 1000,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.endpoint_a = a
        self.endpoint_b = b
        rng_fwd, rng_rev = _direction_rngs(seed)
        self._forward = _Direction(
            engine, bandwidth_bps, latency_s, loss_rate, max_backlog, rng_fwd, *b
        )
        self._reverse = _Direction(
            engine, bandwidth_bps, latency_s, loss_rate, max_backlog, rng_rev, *a
        )

    def send_from(self, node: "Node", packet: Packet) -> bool:
        """Send a packet from one of the two endpoints toward the other."""
        return self.direction_from(node).send(packet)

    def peer_of(self, node: "Node") -> "Node":
        """The node at the other end."""
        if node is self.endpoint_a[0]:
            return self.endpoint_b[0]
        if node is self.endpoint_b[0]:
            return self.endpoint_a[0]
        raise ValueError(f"node {node.name} is not an endpoint of this link")

    def direction_from(self, node: "Node") -> _Direction:
        """The outbound direction as seen from *node* (for statistics)."""
        if node is self.endpoint_a[0]:
            return self._forward
        if node is self.endpoint_b[0]:
            return self._reverse
        raise ValueError(f"node {node.name} is not an endpoint of this link")

    def set_loss_rate(self, loss_rate: float, *, seed: int | str | None = None) -> None:
        """Adjust both directions' loss rate (wireless-regime switches in
        experiment C9, loss schedules in the fault harness).

        With *seed*, both directions' RNGs are re-derived from it, so the
        loss pattern from this point on is a pure function of the seed
        and the subsequent traffic — reproducible in tests and benches no
        matter what ran before.
        """
        if seed is not None:
            self._forward.rng, self._reverse.rng = _direction_rngs(seed)
        self._forward.loss_rate = loss_rate
        self._reverse.loss_rate = loss_rate

    # -- partition (the fault model's unit of network failure) ---------------------

    def partition(self) -> None:
        """Cut the link in both directions: every subsequent send (and
        every packet still in flight) is black-holed and its pooled
        buffer released.  Senders see success — only timeouts notice."""
        self._forward.up = False
        self._reverse.up = False

    def heal(self) -> None:
        """Restore a partitioned link (both directions)."""
        self._forward.up = True
        self._reverse.up = True

    @property
    def partitioned(self) -> bool:
        """True while either direction is down."""
        return not (self._forward.up and self._reverse.up)

    @property
    def latency_s(self) -> float:
        """One-way propagation delay."""
        return self._forward.latency_s

    @property
    def bandwidth_bps(self) -> float:
        """Per-direction bandwidth."""
        return self._forward.bandwidth_bps

    def stats(self) -> dict[str, LinkStats]:
        """Both directions' statistics."""
        return {"a_to_b": self._forward.stats, "b_to_a": self._reverse.stats}
