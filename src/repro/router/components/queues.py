"""Queueing components: the "Gw CF instance (queueing)" of Figure 3.

Queues provide ``in0`` (IPacketPush) on the arrival side and ``pull0``
(IPacketPull) on the service side, so link schedulers *pull* from them.
Disciplines: drop-tail FIFO and RED (random early detection with the
standard EWMA average-queue estimator).
"""

from __future__ import annotations

import random
from collections import deque

from repro.netsim.packet import Packet
from repro.opencom.component import Provided
from repro.router.components.base import (
    PacketComponent,
    bulk_dequeue,
    release_dropped,
)
from repro.router.interfaces import IPacketPull, IPacketPush


class FifoQueue(PacketComponent):
    """Bounded drop-tail FIFO queue."""

    PROVIDES = (
        Provided("in0", IPacketPush),
        Provided("pull0", IPacketPull),
    )

    #: Attributes migrated on hot swap (the 24x7 story: a queue swap
    #: carries its backlog across).
    STATE_ATTRS = ("_queue",)

    def __init__(self, capacity: int = 128) -> None:
        super().__init__()
        self.capacity = capacity
        self._queue: deque[Packet] = deque()

    def push(self, packet: Packet) -> None:
        """Enqueue; drop-tail when full (``drop:overflow``)."""
        self.count("rx")
        if len(self._queue) >= self.capacity:
            self.count("drop:overflow")
            release_dropped(packet)
            return
        self._queue.append(packet)

    def push_batch(self, packets: list[Packet]) -> None:
        """Bulk enqueue with exact drop-tail semantics: the packets that
        fit are appended in order, the tail of the batch overflows."""
        n = len(packets)
        self.count("rx", n)
        queue = self._queue
        room = self.capacity - len(queue)
        if room >= n:
            queue.extend(packets)
            return
        if room > 0:
            queue.extend(packets[:room])
            self.count("drop:overflow", n - room)
            overflowed = packets[room:]
        else:
            self.count("drop:overflow", n)
            overflowed = packets
        for packet in overflowed:
            release_dropped(packet)

    def pull(self) -> Packet | None:
        """Dequeue the head packet (None when empty)."""
        if not self._queue:
            return None
        self.count("tx")
        return self._queue.popleft()

    def pull_batch(self, max_n: int) -> list[Packet]:
        """Bulk dequeue up to *max_n* head packets in one call.

        Exactly equivalent to *max_n* ``pull()`` calls (same order, same
        ``tx`` total, same residual depth) with the per-packet dispatch
        and counter cost paid once.
        """
        got = bulk_dequeue(self._queue, max_n)
        if got:
            self.count("tx", len(got))
        return got

    # -- compiled hot path (see repro.opencom.compile) ---------------------

    def compiled_batch_kernel(self, next_map):
        """Closure kernel for the arrival side (terminal: no receptacles).

        ``self._queue`` / ``self.capacity`` are read per batch so hot
        swap state migration and capacity changes stay live.
        """
        if next_map:
            return None
        counters = self.counters

        def kernel(packets, _c=counters, _self=self, _release=release_dropped):
            n = len(packets)
            _c["rx"] += n
            queue = _self._queue
            room = _self.capacity - len(queue)
            if room >= n:
                queue.extend(packets)
                return
            if room > 0:
                queue.extend(packets[:room])
                _c["drop:overflow"] += n - room
                overflowed = packets[room:]
            else:
                _c["drop:overflow"] += n
                overflowed = packets
            for packet in overflowed:
                _release(packet)

        return kernel

    @property
    def depth(self) -> int:
        """Packets currently queued."""
        return len(self._queue)

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently queued."""
        return sum(p.size_bytes for p in self._queue)


class RedQueue(PacketComponent):
    """Random Early Detection queue (Floyd & Jacobson).

    Maintains an EWMA of queue depth; drops probabilistically between
    ``min_threshold`` and ``max_threshold``, always above.  Deterministic
    via seeded RNG.
    """

    PROVIDES = (
        Provided("in0", IPacketPush),
        Provided("pull0", IPacketPull),
    )

    STATE_ATTRS = ("_queue", "_avg")

    def __init__(
        self,
        capacity: int = 128,
        *,
        min_threshold: float = 16,
        max_threshold: float = 64,
        max_drop_probability: float = 0.1,
        weight: float = 0.002,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not 0 < min_threshold < max_threshold:
            raise ValueError("thresholds must satisfy 0 < min < max")
        self.capacity = capacity
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.max_drop_probability = max_drop_probability
        self.weight = weight
        self._queue: deque[Packet] = deque()
        self._avg = 0.0
        self._rng = random.Random(seed)

    def push(self, packet: Packet) -> None:
        """Enqueue with RED early-drop behaviour."""
        self.count("rx")
        self._avg = (1 - self.weight) * self._avg + self.weight * len(self._queue)
        if len(self._queue) >= self.capacity:
            self.count("drop:overflow")
            release_dropped(packet)
            return
        if self._avg >= self.max_threshold:
            self.count("drop:red-forced")
            release_dropped(packet)
            return
        if self._avg > self.min_threshold:
            fraction = (self._avg - self.min_threshold) / (
                self.max_threshold - self.min_threshold
            )
            if self._rng.random() < fraction * self.max_drop_probability:
                self.count("drop:red-early")
                release_dropped(packet)
                return
        self._queue.append(packet)

    def push_batch(self, packets: list[Packet]) -> None:
        """Per-packet RED admission (the EWMA advances on every arrival,
        so batches cannot be bulk-admitted without changing drop maths)."""
        push = self.push
        for packet in packets:
            push(packet)

    def pull(self) -> Packet | None:
        """Dequeue the head packet (None when empty)."""
        if not self._queue:
            return None
        self.count("tx")
        return self._queue.popleft()

    def pull_batch(self, max_n: int) -> list[Packet]:
        """Bulk dequeue up to *max_n* head packets (RED only gates
        *admission*; the service side is a plain FIFO, so bulk dequeue is
        exactly equivalent to repeated ``pull()``)."""
        got = bulk_dequeue(self._queue, max_n)
        if got:
            self.count("tx", len(got))
        return got

    @property
    def depth(self) -> int:
        """Packets currently queued."""
        return len(self._queue)

    @property
    def average_depth(self) -> float:
        """Current EWMA depth estimate."""
        return self._avg
