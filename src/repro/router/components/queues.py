"""Queueing components: the "Gw CF instance (queueing)" of Figure 3.

Queues provide ``in0`` (IPacketPush) on the arrival side and ``pull0``
(IPacketPull) on the service side, so link schedulers *pull* from them.
Disciplines: drop-tail FIFO and RED (random early detection with the
standard EWMA average-queue estimator).
"""

from __future__ import annotations

import random

from repro.netsim.packet import Packet
from repro.opencom.component import Provided
from repro.router.components.base import DequeSource, PushTarget, release_dropped
from repro.router.interfaces import IPacketPull, IPacketPush


class FifoQueue(PushTarget, DequeSource):
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
    def backlog_bytes(self) -> int:
        """Bytes currently queued."""
        return sum(p.size_bytes for p in self._queue)


class RedQueue(PushTarget, DequeSource):
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
        self._avg = 0.0
        self._rng = random.Random(seed)

    def push_batch(self, packets: list[Packet]) -> None:
        """Enqueue with RED early-drop behaviour, one arrival at a time:
        the EWMA advances on every arrival, so a batch cannot be
        bulk-admitted without changing the drop maths.  (RED gates only
        admission; the service side is the plain FIFO of
        :class:`DequeSource`.)"""
        self.count("rx", len(packets))
        queue = self._queue
        for packet in packets:
            self._avg = (1 - self.weight) * self._avg + self.weight * len(queue)
            if len(queue) >= self.capacity:
                reason = "drop:overflow"
            elif self._avg >= self.max_threshold:
                reason = "drop:red-forced"
            elif self._avg > self.min_threshold and self._rng.random() < (
                (self._avg - self.min_threshold)
                / (self.max_threshold - self.min_threshold)
                * self.max_drop_probability
            ):
                reason = "drop:red-early"
            else:
                queue.append(packet)
                continue
            self.count(reason)
            release_dropped(packet)

    @property
    def average_depth(self) -> float:
        """Current EWMA depth estimate."""
        return self._avg
