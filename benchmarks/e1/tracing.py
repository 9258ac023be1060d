"""In-memory spans around the benchmark's own calls into each layer.

A span is ``[name, start, end, parent, burst, calls]``.  Spans nest by
the call stack; a layer's self time is its span minus the spans it
directly encloses, so self times over a burst add up to the burst.
Calls made once per *frame* (the TX handler, the capsule's steer) would
cost more to record than to run, so they are timed into a per-parent
accumulator (:meth:`Tracer.leaf`) and written as one child span per
parent, with ``calls`` saying how many it stands for.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any

NAME, START, END, PARENT, BURST, CALLS = range(6)


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is one shared no-op context manager."""

    enabled = False
    burst = -1

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        tracer.spans.append(
            [self.name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.burst, 1]
        )
        stack.append(self.index)

    def __exit__(self, *exc: Any) -> bool:
        end = perf_counter()
        tracer = self.tracer
        span = tracer.spans[self.index]
        span[END] = end
        tracer._stack.pop()
        leaves = tracer._leaves.pop(self.index, None)
        if leaves:
            for name, (total, calls) in leaves.items():
                tracer.spans.append(
                    [name, span[START], span[START] + total, self.index, span[BURST], calls]
                )
        return False


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.burst = -1
        self._stack: list[int] = []
        self._leaves: dict[int, dict[str, list]] = {}

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def leaf(self, name: str, seconds: float) -> None:
        """Charge *seconds* of a per-frame call to the innermost open span."""
        slot = self._leaves.setdefault(self._stack[-1], {}).setdefault(name, [0.0, 0])
        slot[0] += seconds
        slot[1] += 1

    def timed(self, name: str, fn: Any) -> Any:
        """Wrap a per-frame callable so each call is charged as a leaf."""
        leaf = self.leaf

        def call(arg: Any) -> Any:
            start = perf_counter()
            result = fn(arg)
            leaf(name, perf_counter() - start)
            return result

        return call

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (span minus direct children)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: dict[str, float] = defaultdict(float)
        for span, children in zip(spans, child_time):
            totals[span[NAME]] += span[END] - span[START] - children
        return dict(totals)

    def total(self, name: str) -> float:
        """Seconds covered by every span called *name*."""
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)
