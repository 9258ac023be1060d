"""Measurement and terminal components: counters, meters, sinks, sources.

These are the "standard components" a pipeline is instrumented with, and
the terminals tests and benchmarks use to observe what a data path
actually delivered.
"""

from __future__ import annotations

from collections import deque

from repro.netsim.packet import Packet
from repro.opencom.component import Provided
from repro.osbase.clock import VirtualClock
from repro.router.components.base import (
    DequeSource,
    PushComponent,
    PushTarget,
    release_dropped,
)
from repro.router.interfaces import IPacketSink


class PacketCounterTap(PushComponent):
    """Transparent pass-through counting packets and bytes."""

    def __init__(self) -> None:
        super().__init__()
        self.bytes_seen = 0

    def push_batch(self, packets: list[Packet]) -> None:
        """Count the batch and forward it whole."""
        self.count("rx", len(packets))
        self.bytes_seen += sum(p.size_bytes for p in packets)
        self.emit_batch(packets)


class RateMeter(PushComponent):
    """Pass-through measuring throughput over a sliding window of virtual
    time."""

    def __init__(self, clock: VirtualClock, *, window_s: float = 1.0) -> None:
        super().__init__()
        self.clock = clock
        self.window_s = window_s
        self._events: deque[tuple[float, int]] = deque()

    def process(self, packet: Packet) -> None:
        """Record and forward."""
        now = self.clock.now
        self._events.append((now, packet.size_bytes))
        horizon = now - self.window_s
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()
        self.emit(packet)

    def rate_pps(self) -> float:
        """Packets/second over the current window."""
        return len(self._events) / self.window_s

    def rate_bps(self) -> float:
        """Bits/second over the current window."""
        return sum(size for _, size in self._events) * 8 / self.window_s


class CollectorSink(PushTarget):
    """Terminal sink retaining (optionally bounded) delivered packets.

    A sink is the last holder of each packet's buffer reference, so a
    packet it does *not* retain — past the ``keep`` bound, or any packet
    when ``recycle`` is set — has its pooled buffer released on arrival.
    ``recycle=True`` is the steady-state egress mode: the sink counts and
    measures every delivery but returns the buffer to its pool at once.
    """

    PROVIDES = (Provided("in0", IPacketSink),)

    def __init__(self, *, keep: int | None = None, recycle: bool = False) -> None:
        super().__init__()
        self.keep = keep
        self.recycle = recycle
        self.packets: list[Packet] = []
        self.bytes_received = 0

    def push_batch(self, packets: list[Packet]) -> None:
        """Absorb a whole batch (bulk extend, bounded by ``keep``)."""
        self.count("rx", len(packets))
        self.bytes_received += sum(p.size_bytes for p in packets)
        if self.recycle:
            for packet in packets:
                release_dropped(packet)
            return
        if self.keep is None:
            self.packets.extend(packets)
        else:
            room = self.keep - len(self.packets)
            if room > 0:
                self.packets.extend(packets[:room])
            for packet in packets[max(room, 0):]:
                release_dropped(packet)

    def collected_count(self) -> int:
        """Packets absorbed so far."""
        return self.counters["rx"]

    def clear(self) -> None:
        """Reset retained packets and byte count (counters survive)."""
        self.packets.clear()
        self.bytes_received = 0


class DropSink(PushTarget):
    """Terminal sink that discards everything (but counts it)."""

    PROVIDES = (Provided("in0", IPacketSink),)

    def push_batch(self, packets: list[Packet]) -> None:
        """Discard a whole batch (one counter bump), returning any pooled
        wire buffers."""
        self.count("rx", len(packets))
        for packet in packets:
            release_dropped(packet)

    def collected_count(self) -> int:
        """Packets discarded so far."""
        return self.counters["rx"]


class PullSource(DequeSource):
    """IPacketPull provider over a pre-loaded packet list (test feeder for
    pull-side components such as link schedulers)."""

    def load(self, packets: list[Packet]) -> None:
        """Append packets to the feed."""
        self._queue.extend(packets)
