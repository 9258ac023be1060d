"""Timer service over virtual time.

A heap-based timer wheel: callbacks are scheduled at absolute virtual
times and fired by :meth:`TimerWheel.fire_due` as the clock advances.
Supports one-shot and periodic timers with cancellation handles.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from heapq import heappop, heappush

from repro.osbase.clock import VirtualClock

_TIMER_IDS = itertools.count(1)


class Timer:
    """Handle for one scheduled timer."""

    def __init__(
        self,
        callback: Callable[[], None],
        deadline: float,
        *,
        period: float | None = None,
    ) -> None:
        self.timer_id = next(_TIMER_IDS)
        self.callback = callback
        self.deadline = deadline
        self.period = period
        self.cancelled = False
        self.fire_count = 0

    def cancel(self) -> None:
        """Cancel the timer; pending firings are suppressed."""
        self.cancelled = True


class TimerWheel:
    """Priority-queue timer service bound to a :class:`VirtualClock`.

    Heap entries are plain ``(deadline, sequence, timer)`` tuples, so the
    heap orders them by ``(deadline, sequence)`` in C.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._heap: list[tuple[float, int, Timer]] = []
        self._sequence = itertools.count()

    def _push(self, timer: Timer) -> Timer:
        heappush(self._heap, (timer.deadline, next(self._sequence), timer))
        return timer

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule a one-shot callback *delay* seconds from now."""
        return self._push(Timer(callback, self.clock.now + max(delay, 0.0)))

    def schedule_at(self, deadline: float, callback: Callable[[], None]) -> Timer:
        """Schedule a one-shot callback at an absolute virtual time."""
        return self._push(Timer(callback, max(deadline, self.clock.now)))

    def schedule_periodic(self, period: float, callback: Callable[[], None]) -> Timer:
        """Schedule a periodic callback with the given period (first firing
        one period from now)."""
        if period <= 0:
            raise ValueError("period must be positive")
        return self._push(Timer(callback, self.clock.now + period, period=period))

    def next_deadline(self) -> float | None:
        """Earliest pending deadline, or None when idle."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def fire_due(self) -> int:
        """Fire every timer whose deadline is <= now; returns count fired."""
        fired = 0
        now = self.clock.now
        heap = self._heap
        while heap and heap[0][0] <= now:
            deadline, _, timer = heappop(heap)
            if timer.cancelled:
                continue
            timer.fire_count += 1
            fired += 1
            timer.callback()
            if timer.period is not None and not timer.cancelled:
                timer.deadline = deadline + timer.period
                self._push(timer)
        return fired

    def run_until(self, deadline: float) -> int:
        """Advance the clock to *deadline*, firing timers in order; returns
        total timers fired."""
        fired = 0
        while True:
            nxt = self.next_deadline()
            if nxt is None or nxt > deadline:
                break
            self.clock.advance_to(nxt)
            fired += self.fire_due()
        if self.clock.now < deadline:
            self.clock.advance_to(deadline)
        return fired

    def pending_count(self) -> int:
        """Number of scheduled, uncancelled timers."""
        return sum(1 for _, _, timer in self._heap if not timer.cancelled)
