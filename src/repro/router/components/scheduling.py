"""Link schedulers: diffserv-style service of multiple queues.

The "Link scheduler" of Figure 3.  A link scheduler *pulls* from a set of
named queue connections (multi-receptacle ``inputs`` of IPacketPull) and
pushes serviced packets downstream through ``out``.  Disciplines:

- :class:`PriorityLinkScheduler` — strict priority by input order;
- :class:`DrrScheduler` — deficit round robin (byte-fair);
- :class:`WfqScheduler` — weighted fair queueing via virtual finish times
  approximated per-connection (start-time fair queueing flavour).

Schedulers are themselves IPacketPull providers, so they cascade; calling
:meth:`service` drives up to a packet budget through to the output.

The whole service loop is batch-aware: :meth:`LinkSchedulerBase.service`
draws its budget through the scheduler's native ``pull_batch`` (strict
priority drains whole runs per input via the queues' port-level
``pull_batch`` handles; DRR/WFQ serve whole rounds with per-round quanta)
and hands the serviced list downstream as one ``push_batch``, so the
queue→scheduler and scheduler→NIC crossings are paid once per budget
rather than once per packet.  Each discipline writes one body,
``pull_batch``; scalar ``pull()`` is the first item of ``pull_batch(1)``.
``pull_batch(a + b)`` draws what ``pull_batch(a)`` then
``pull_batch(b)`` would: identical packet order, identical per-input
``served:*`` counters, identical residual queue depths.
"""

from __future__ import annotations

from repro.netsim.packet import Packet
from repro.opencom.component import Provided, Required
from repro.router.components.base import PacketComponent, release_dropped
from repro.router.interfaces import IPacketPull, IPacketPush


class LinkSchedulerBase(PacketComponent):
    """Common plumbing: pull-from-inputs, push-to-out, service loop.

    A discipline writes one body, ``pull_batch(max_n)``: draw up to
    *max_n* packets across all inputs in scheduling order.  It returns
    fewer than *max_n* — an empty list included — only when every input
    is genuinely empty; an input that merely cannot be served *yet*
    (e.g. a DRR deficit still building) is skipped explicitly, never
    reported as exhaustion.  :meth:`service` relies on this: a short
    batch ends the service round, so a transient one would strand
    packets in other inputs.
    """

    PROVIDES = (Provided("pull0", IPacketPull),)
    RECEPTACLES = (
        Required("inputs", IPacketPull, min_connections=0, max_connections=None),
        Required("out", IPacketPush, min_connections=0, max_connections=1),
    )

    def pull(self) -> Packet | None:
        """The next packet across all inputs: the first item of
        ``pull_batch(1)``, or ``None`` when every input is empty."""
        got = self.pull_batch(1)
        return got[0] if got else None

    def service(self, budget: int = 1) -> int:
        """Pull up to *budget* packets and push them to ``out``.

        Returns the number of packets actually serviced; stops only when
        every input is empty (see the class docstring).  The whole budget is
        drawn through :meth:`pull_batch` and leaves as one
        ``push_batch`` per service call (scheduling order preserved), so
        both the input and the output crossings are paid per budget, not
        per packet.
        """
        batch = self.pull_batch(budget)
        if batch:
            self.count("tx", len(batch))
            out = self.receptacle("out")
            if out.bound:
                out.push_batch(batch)
            else:
                self.count("drop:no-output", len(batch))
                for packet in batch:
                    release_dropped(packet)
        return len(batch)

    def input_names(self) -> list[str]:
        """Names of connected queue inputs."""
        return self.receptacle("inputs").connection_names()


class PriorityLinkScheduler(LinkSchedulerBase):
    """Strict priority: inputs served in the order given by *priorities*
    (connection names, most important first); unlisted inputs come last in
    name order."""

    def __init__(self, priorities: list[str] | None = None) -> None:
        super().__init__()
        self.priorities = list(priorities) if priorities else []

    def _ordered_inputs(self) -> list[str]:
        names = self.input_names()
        listed = [n for n in self.priorities if n in names]
        rest = sorted(n for n in names if n not in self.priorities)
        return listed + rest

    def pull_batch(self, max_n: int) -> list[Packet]:
        """Drain whole runs per input, highest priority first.

        Equivalent to repeated ``pull()``: each scalar pull rescans from
        the top priority, but within one batch (no pushes interleave) an
        input that is empty stays empty, so draining each input in
        priority order yields the identical packet sequence — while the
        queue crossing is one ``pull_batch`` per input instead of one
        ``pull`` per packet.
        """
        inputs = self.receptacle("inputs")
        out: list[Packet] = []
        remaining = max_n
        for name in self._ordered_inputs():
            if remaining <= 0:
                break
            got = inputs.port(name).pull_batch(remaining)
            if got:
                self.count(f"served:{name}", len(got))
                out.extend(got)
                remaining -= len(got)
        return out


class DrrScheduler(LinkSchedulerBase):
    """Deficit round robin: byte-fair service with per-input quanta.

    ``quantum`` bytes are added to an input's deficit each visit; packets
    are served while the deficit covers them.  Weights are expressed by
    per-input quantum overrides (all quanta must be positive — a zero
    quantum could never cover a packet and would stall the ring).
    """

    def __init__(self, *, quantum: int = 1500, quanta: dict[str, int] | None = None) -> None:
        super().__init__()
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quanta = dict(quanta) if quanta else {}
        if any(q <= 0 for q in self.quanta.values()):
            raise ValueError("per-input quanta must be positive")
        self.quantum = quantum
        self._deficits: dict[str, float] = {}
        self._ring: list[str] = []
        self._cursor = 0
        #: Head-of-line stash: a pulled packet too big for the current
        #: deficit waits here rather than being re-queued.
        self._pending: dict[str, Packet] = {}

    def _refresh_ring(self) -> None:
        names = self.input_names()
        if names != self._ring:
            self._ring = names
            self._cursor = self._cursor % len(names) if names else 0

    def _head(self, name: str) -> Packet | None:
        if name in self._pending:
            return self._pending[name]
        packet = self.receptacle("inputs").port(name).pull()
        if packet is not None:
            self._pending[name] = packet
        return packet

    def pull_batch(self, max_n: int) -> list[Packet]:
        """Serve whole rounds: one quantum top-up per visit, then a burst
        of consecutive heads while the deficit covers them.

        The walk distinguishes *empty* inputs (no head: deficit reset,
        skipped explicitly) from inputs whose deficit merely hasn't
        covered the head yet (quantum added, revisited next lap).  It
        comes back short of *max_n* only after a full lap finds every
        input empty, so a large packet that needs several quanta to
        afford is a few more lap iterations — never a premature end of
        service while other inputs still hold packets.  Terminates
        because each non-empty visit adds a positive quantum to that
        input's deficit.  A full batch leaves the cursor on the input it
        was serving, so the next call continues its burst.
        """
        out: list[Packet] = []
        self._refresh_ring()
        ring = self._ring
        if not ring:
            return out
        deficits = self._deficits
        quanta = self.quanta
        pending = self._pending
        empty_streak = 0
        while len(out) < max_n and empty_streak < len(ring):
            name = ring[self._cursor]
            head = self._head(name)
            if head is None:
                # Explicit empty-input skip: reset its deficit, move on.
                deficits[name] = 0.0
                self._cursor = (self._cursor + 1) % len(ring)
                empty_streak += 1
                continue
            empty_streak = 0
            deficit = deficits.get(name, 0.0)
            served = 0
            exhausted = False
            while head is not None and deficit >= head.size_bytes:
                deficit -= head.size_bytes
                del pending[name]
                out.append(head)
                served += 1
                if len(out) >= max_n:
                    # Batch full: stop without prefetching the next head,
                    # so the input's depth and ``tx`` count are what a
                    # caller that stops pulling here would leave.
                    break
                head = self._head(name)
                exhausted = head is None
            if served:
                self.count(f"served:{name}", served)
            if len(out) >= max_n:
                deficits[name] = deficit
                break
            if exhausted:
                # Input went empty mid-burst: explicit skip, reset.
                deficits[name] = 0.0
                self._cursor = (self._cursor + 1) % len(ring)
                empty_streak += 1
                continue
            deficits[name] = deficit + quanta.get(name, self.quantum)
            self._cursor = (self._cursor + 1) % len(ring)
        return out


class WfqScheduler(LinkSchedulerBase):
    """Start-time fair queueing: weighted fair service by virtual tags.

    When a packet becomes an input's head it receives its tags *once*:
    ``start = max(v, last_finish[input])``, ``finish = start +
    size/weight``, and ``last_finish`` advances immediately so the input's
    next packet queues behind.  The head with the earliest finish tag is
    served, and the virtual clock ``v`` advances to the *start* tag of the
    served packet (assigning tags at service time and racing ``v`` to
    finish tags is the classic starvation bug this avoids).
    """

    def __init__(self, *, weights: dict[str, float] | None = None, default_weight: float = 1.0) -> None:
        super().__init__()
        self.weights = dict(weights) if weights else {}
        self.default_weight = default_weight
        self._virtual_time = 0.0
        self._last_finish: dict[str, float] = {}
        self._pending: dict[str, Packet] = {}
        #: input name -> (start_tag, finish_tag) of the pending head.
        self._tags: dict[str, tuple[float, float]] = {}

    def _head(self, name: str) -> Packet | None:
        if name in self._pending:
            return self._pending[name]
        packet = self.receptacle("inputs").port(name).pull()
        if packet is not None:
            weight = max(self.weights.get(name, self.default_weight), 1e-9)
            start = max(self._virtual_time, self._last_finish.get(name, 0.0))
            finish = start + packet.size_bytes / weight
            self._last_finish[name] = finish
            self._pending[name] = packet
            self._tags[name] = (start, finish)
        return packet

    def _select(self, names: list[str]) -> str | None:
        """Name of the input whose head has the earliest finish tag."""
        tags = self._tags
        best_name: str | None = None
        best_finish = float("inf")
        for name in names:
            if self._head(name) is None:
                continue
            finish = tags[name][1]
            if finish < best_finish:
                best_finish = finish
                best_name = name
        return best_name

    def pull_batch(self, max_n: int) -> list[Packet]:
        """Serve the heads with the earliest virtual finish tags, in turn.

        Tags are computed once per head and the input enumeration is
        hoisted out of the per-packet loop; the emitted sequence is
        identical to repeated ``pull()``.
        """
        out: list[Packet] = []
        names = self.input_names()
        if not names:
            return out
        pending = self._pending
        tags = self._tags
        while len(out) < max_n:
            best_name = self._select(names)
            if best_name is None:
                break
            packet = pending.pop(best_name)
            start, _ = tags.pop(best_name)
            if start > self._virtual_time:
                self._virtual_time = start
            self.count(f"served:{best_name}")
            out.append(packet)
        return out
