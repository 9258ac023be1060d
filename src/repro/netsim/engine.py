"""Discrete-event simulation engine.

A classic event-heap simulator over the shared
:class:`~repro.osbase.clock.VirtualClock`.  Links, nodes, signaling
protocols and workload generators all schedule callbacks here; running the
engine advances virtual time deterministically.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable
from heapq import heappop, heappush

from repro.opencom.errors import OpenComError
from repro.osbase.clock import VirtualClock


class EngineError(OpenComError):
    """Invalid engine operation."""


class EventHandle:
    """Cancellation handle for a scheduled event.

    A heap entry is a plain ``[time, sequence, callback]`` list, so the
    heap orders entries by ``(time, sequence)`` in C; cancelling clears
    the callback slot, and the engine skips an entry whose callback is
    None.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Suppress the event if it has not fired yet."""
        self._entry[2] = None

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._entry[0]


class _SeriesHandle(EventHandle):
    """Handle over a :meth:`Engine.schedule_periodic` series: cancel
    stops the whole series, ``time`` is the current arm's."""

    __slots__ = ("stopped", "handle")

    def __init__(self) -> None:
        self.stopped = False
        self.handle: EventHandle | None = None

    def cancel(self) -> None:
        self.stopped = True
        if self.handle is not None:
            self.handle.cancel()

    @property
    def time(self) -> float:
        return self.handle.time if self.handle is not None else float("inf")


class Engine:
    """The event loop: schedule callbacks, run virtual time forward."""

    def __init__(self, clock: VirtualClock | None = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: list[list] = []
        self._sequence = itertools.count()
        self.events_processed = 0
        #: Exceptions raised by event callbacks (the engine never dies on a
        #: callback error; failures are recorded for the caller to assert on).
        self.callback_errors: list[tuple[float, Exception]] = []

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.clock.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule *callback* to fire *delay* seconds from now."""
        if delay < 0:
            raise EngineError(f"cannot schedule in the past (delay {delay})")
        return self.schedule_at(self.clock.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule *callback* at an absolute virtual time."""
        if time < self.clock.now:
            raise EngineError(
                f"cannot schedule at {time}, now is {self.clock.now}"
            )
        entry = [time, next(self._sequence), callback]
        heappush(self._heap, entry)
        return EventHandle(entry)

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
        until: float | None = None,
    ) -> EventHandle:
        """Schedule a self-re-arming periodic callback.

        Cancelling the returned handle stops the whole series: the
        handle cancels the current arm and every later tick sees it
        stopped.
        """
        if period <= 0:
            raise EngineError("period must be positive")
        series = _SeriesHandle()

        def tick() -> None:
            if series.stopped:
                return
            callback()
            next_time = self.clock.now + period + jitter
            if until is None or next_time <= until:
                series.handle = self.schedule_at(next_time, tick)

        series.handle = self.schedule(period, tick)
        return series

    # -- running --------------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event; returns False when the heap is empty."""
        heap = self._heap
        while heap:
            time, _, callback = heappop(heap)
            if callback is None:  # cancelled
                continue
            clock = self.clock
            if time > clock.now:
                clock.advance_to(time)
            self.events_processed += 1
            try:
                callback()
            except Exception as exc:  # noqa: BLE001 - containment boundary
                self.callback_errors.append((clock.now, exc))
            return True
        return False

    def run_until(self, deadline: float, *, max_events: int = 10_000_000) -> int:
        """Process events up to *deadline* (clock ends exactly there);
        returns the number of events processed."""
        heap = self._heap
        processed = 0
        while processed < max_events:
            while heap and heap[0][2] is None:
                heappop(heap)
            if not heap or heap[0][0] > deadline:
                break
            self.step()
            processed += 1
        if self.clock.now < deadline:
            self.clock.advance_to(deadline)
        return processed

    def run(self, *, max_events: int = 10_000_000) -> int:
        """Process events until the heap drains; returns events processed."""
        processed = 0
        while processed < max_events and self.step():
            processed += 1
        return processed

    def pending(self) -> int:
        """Events scheduled and not cancelled."""
        return sum(1 for entry in self._heap if entry[2] is not None)


class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` for attempt 0, 1, 2, ... is
    ``min(cap, base * factor**attempt)`` scaled by a jitter factor drawn
    from a *seeded* RNG, so a retry schedule is a pure function of
    ``(policy parameters, seed, attempt sequence)`` — reruns of a fault
    scenario retransmit at identical virtual times.  This is the single
    backoff implementation the coordination stratum shares (signaling
    retransmits, RSVP PATH retries); the policy table lives in
    ``docs/robustness.md``.
    """

    def __init__(
        self,
        *,
        base: float = 0.01,
        factor: float = 2.0,
        cap: float = 1.0,
        jitter: float = 0.1,
        seed: int = 0,
    ) -> None:
        if base <= 0 or factor < 1.0 or cap < base:
            raise EngineError(
                f"invalid backoff (base={base}, factor={factor}, cap={cap})"
            )
        if not 0.0 <= jitter < 1.0:
            raise EngineError(f"jitter must be in [0, 1), got {jitter}")
        self.base = base
        self.factor = factor
        self.cap = cap
        self.jitter = jitter
        self.seed = seed
        self._rng = random.Random(f"backoff:{seed}")

    def delay(self, attempt: int) -> float:
        """Delay before retry number *attempt* (0-based)."""
        if attempt < 0:
            raise EngineError(f"attempt must be >= 0, got {attempt}")
        raw = min(self.cap, self.base * self.factor**attempt)
        if self.jitter == 0.0:
            return raw
        return raw * (1.0 + self.jitter * (2.0 * self._rng.random() - 1.0))


class RetryTimer:
    """A restartable engine-time retry loop over a :class:`BackoffPolicy`.

    ``start()`` schedules ``on_expire(attempt)`` after the policy's delay
    for the current attempt; each expiry automatically re-arms for the
    next attempt until *max_attempts* fire, after which ``on_exhausted``
    runs instead.  ``cancel()`` (e.g. on acknowledgement) stops the
    series.  This is the engine hook the coordination stratum's
    at-least-once machinery is built on — one timeout/retry/backoff
    implementation instead of three ad-hoc ones.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        policy: BackoffPolicy,
        max_attempts: int,
        on_expire: Callable[[int], None],
        on_exhausted: Callable[[], None] | None = None,
    ) -> None:
        if max_attempts < 1:
            raise EngineError(f"max_attempts must be >= 1, got {max_attempts}")
        self.engine = engine
        self.policy = policy
        self.max_attempts = max_attempts
        self.on_expire = on_expire
        self.on_exhausted = on_exhausted
        self.attempt = 0
        self.cancelled = False
        self.exhausted = False
        self._handle: EventHandle | None = None

    def start(self) -> None:
        """Arm the timer for the current attempt."""
        if self.cancelled or self.exhausted:
            return
        self._handle = self.engine.schedule(
            self.policy.delay(self.attempt), self._fire
        )

    def cancel(self) -> None:
        """Stop the retry series (delivery confirmed, round resolved)."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.attempt += 1
        if self.attempt >= self.max_attempts:
            self.exhausted = True
            if self.on_exhausted is not None:
                self.on_exhausted()
            return
        self.on_expire(self.attempt)
        self.start()
