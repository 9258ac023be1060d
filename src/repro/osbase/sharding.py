"""The sharded multi-worker datapath runtime (stratum-1 concurrency).

PRs 1–4 made each unit of forwarding work cheap (batched dispatch,
zero-copy bytes, pooled buffers); this module makes the *placement* of
work the variable.  N independent forwarding workers run as cooperative
:class:`~repro.osbase.threads.SimThread` bodies under the pluggable
thread-management CF, with the CF's modelled-multicore service loop
(:meth:`~repro.osbase.scheduler.ThreadManagerCF.step_parallel`) letting
their quanta overlap in virtual time.  Three pieces compose the runtime:

- **steering** (:class:`RssSteering`) — an RSS-style flow-hash stage at
  the RX edge fans each arriving batch out to per-shard RX rings, one
  group per shard in arrival order, so every packet of a flow lands on
  one shard's FIFO backlog (the hash function is injected — typically
  :func:`repro.netsim.wire.flow_hash_of`, which reads raw wire bytes
  without materialising anything; osbase never imports upward);
- **shards** (:class:`Shard`) — each shard owns a private RX NIC, a
  private :class:`~repro.osbase.buffers.BufferPool` slice (see
  :func:`~repro.osbase.buffers.carve_shard_pools`) and its own engine
  (a router pipeline, or a baseline router) with its own TX drain, so
  shards share *nothing* on the datapath;
- **the supervisor** — a management thread that watches per-shard
  backlog watermarks and, when they diverge, directs idle workers to
  steal whole batches from the most backlogged shard.

Ownership under stealing follows the batch hand-off convention
(documented with the yield protocol in :mod:`repro.osbase.threads`):
popping a batch hands its packets to the popper, who must run them
end-to-end through the *owning shard's* engine within the same quantum.
Stealing therefore moves CPU time, never flow residency: buffers stay on
the victim's pool and egress through the victim's TX path, per-flow
order is preserved (backlogs are FIFO, pops are serialised, each popped
batch completes before the popper yields), and the PR 4 lifecycle
invariant — acquired == released — holds per shard and in aggregate.
``docs/concurrency.md`` walks the whole model; experiment C15
(``benchmarks/bench_c15_sharding.py``) measures it.

Failure domains and recovery
----------------------------
Each shard is a failure domain: a worker body that crashes (or is
poisoned by :meth:`ShardedDatapath.inject_worker_crash`) takes only its
own quantum down — the supervisor's failover stealing keeps the dead
shard's backlog draining through live peers immediately.  Stealing is a
stopgap, not recovery: the dead bucket keeps accumulating new arrivals.
True recovery is the *drain-before-rehash* sequence exposed as a
quiesce/apply/resume/rollback :class:`~repro.opencom.metamodel.ActionSet`
(:meth:`ShardedDatapath.recovery_action_set`, which a two-phase
reconfiguration participant registers as is):

1. **quiesce** parks new frames for the dead hash bucket (arrival order
   kept) and picks a live successor;
2. **apply** drains the dead shard's remaining backlog inline through
   its *own* engine (per-flow FIFO and pool ownership preserved —
   exactly the batch hand-off convention), installs the bucket →
   successor redirect, then flushes the parked frames to the successor
   in arrival order;
3. **resume** lifts the parking and records the recovery (with the dead
   slice's acquired == released pool balance);
4. **rollback** (an aborted round, or apply raising mid-commit) unparks
   everything back onto the dead shard's own ring, where failover
   stealing resumes draining it.

Per-flow disruption is bounded by construction: a flow lives on its
original shard until the drain completes, then on exactly one successor
— never a third home, never reordered.  ``docs/robustness.md`` walks the
failure model; ``benchmarks/bench_r1_faults.py`` gates on it.

Elastic resizing
----------------
The worker fleet is resizable at run time through the same two-phase
quiescence machinery.  Steering goes through a bucket → shard
indirection table (:attr:`RssSteering.table`; the default identity table
keeps the historical ``hash % N`` behaviour bit-for-bit), so a resize
re-targets *table entries*, not the hash: an unaffected bucket keeps its
home, an affected bucket moves exactly once per resize.  The action set
(:meth:`ShardedDatapath.resize_action_set`; :meth:`ShardedDatapath.resize`
runs it locally):

1. **quiesce** parks every bucket's arrivals (arrival order kept) and
   plans the new table — buckets whose target is removed (or dead) are
   re-homed onto the least-loaded survivors, and on growth the new
   shards are fed buckets donated by the most-loaded old ones;
2. **apply** drains *every* ring through its own engine
   (drain-before-rehash for every flow), proves the exact pool hand-off
   (acquired == released and nothing in flight on every slice — see
   :func:`~repro.osbase.buffers.recarve_shard_pools`), sizes the new
   slice set, builds the grown workers, and only past that commit point
   moves the budget's buffers into the new slices, retires workers,
   swaps the table and flushes the parked frames through it;
3. **resume** records the resize (with the hand-off audit);
4. **rollback** (an aborted round, or apply failing before the commit
   point — e.g. a buffer still held somewhere) unparks everything back
   onto the original rings, fleet untouched.

Growth needs a *shard_factory* (``index, pool → Shard``) — the builder
in :mod:`repro.router.pipeline` supplies one.  Cross-shard steals can be
charged a NUMA-style locality penalty (*locality*, typically
:meth:`repro.ixp.placement.ShardPlacement.locality_penalty`): the
supervisor scales its steal watermark by the thief↔victim penalty, so a
remote steal must be proportionally more profitable before it is
directed.  ``docs/concurrency.md`` has the walkthrough; experiment C16
(``benchmarks/bench_c16_elastic.py``) and the property suite
(``tests/osbase/test_elastic_properties.py``) gate the invariants.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from collections.abc import Callable
from typing import Any

from repro.opencom.errors import OpenComError, ResourceError
from repro.opencom.metamodel import ActionSet
from repro.osbase.buffers import plan_recarve, rehome_buffers


class ShardingError(OpenComError):
    """Invalid sharded-datapath construction or operation."""


class PumpExhausted(RuntimeWarning):
    """``pump`` hit its step limit with frames still on a backlog."""


class WorkerKilled(OpenComError):
    """Poison raised inside a worker body by fault injection.

    The crash is contained by :meth:`~repro.osbase.threads.SimThread.
    run_quantum` exactly like any other body error: the thread moves to
    ``done`` with this exception on ``.error``, and the supervisor's
    failover/recovery machinery takes over."""


class RssSteering:
    """RSS-style flow-hash steering: frame → ``outputs[table[hash % B]]``.

    *outputs* are per-shard batch receivers (typically each shard NIC's
    ``receive_batch``): each takes a list of frames in arrival order and
    returns how many it accepted, having refused the rest (ring overflow
    / pool exhaustion — the NIC's own counters say which).  An output
    that raises unwinds the steering pass.  *hash_fn* maps a frame to a
    stable integer.  The hash must not depend on the frame's
    representation (raw bytes vs materialised vs wire packet) or
    steering would split a flow across shards —
    :func:`repro.netsim.wire.flow_hash_of` guarantees exactly that.

    *table* is the RSS indirection table mapping hash buckets to output
    indices.  The default is the identity table of size N, which makes
    steering the historical ``hash % N`` bit-for-bit.  Elastic
    configurations use more buckets than shards so that a resize can
    re-target individual table entries: an unaffected bucket keeps its
    home, an affected one moves exactly once (see
    :meth:`ShardedDatapath.resize_action_set`).

    *reject* names the exception types the hash raises on frames it
    cannot parse (the injected-alongside-the-hash analogue of the NIC's
    malformed-drop policy — osbase cannot import the concrete error
    class from the layer above): such frames are counted in
    :attr:`malformed` and refused instead of aborting a ``steer_batch``
    mid-way.  Anything else the hash raises is a programming error and
    propagates.
    """

    def __init__(
        self,
        outputs: list[Callable[[Any], bool]],
        *,
        hash_fn: Callable[[Any], int],
        reject: tuple[type[BaseException], ...] = (),
        table: list[int] | None = None,
    ) -> None:
        if not outputs:
            raise ShardingError("steering needs at least one output")
        self.outputs = list(outputs)
        self.hash_fn = hash_fn
        self.reject = tuple(reject)
        #: Bucket → output index.  ``len(table)`` is the bucket count,
        #: fixed for the steering stage's lifetime (only the *entries*
        #: change under resize, so flow → bucket never moves).
        if table is None:
            table = list(range(len(self.outputs)))
        self.table = self._validated_table(table, len(self.outputs))
        #: Frames accepted per output, and frames the output refused
        #: (ring overflow / pool backpressure — the NIC's own counters
        #: say which).
        self.steered = [0] * len(self.outputs)
        self.refused = [0] * len(self.outputs)
        #: Frames the hash could not parse (counted, not raised —
        #: malformed input is a policy, never a mid-datapath unwind).
        self.malformed = 0

    @staticmethod
    def _validated_table(table: list[int], outputs: int) -> list[int]:
        table = list(table)
        if len(table) < outputs:
            raise ShardingError(
                f"need at least one bucket per output: {len(table)} "
                f"buckets for {outputs} outputs"
            )
        for bucket, target in enumerate(table):
            if not isinstance(target, int) or not 0 <= target < outputs:
                raise ShardingError(
                    f"bucket {bucket} targets invalid output {target!r} "
                    f"(have {outputs})"
                )
        return table

    @property
    def buckets(self) -> int:
        """Size of the indirection table (flow → bucket is fixed)."""
        return len(self.table)

    def bucket_of(self, frame: Any) -> int:
        """The hash bucket *frame* lands in (stable across resizes)."""
        return self.hash_fn(frame) % len(self.table)

    def shard_of(self, frame: Any) -> int:
        """The shard index *frame* steers to (pure, no side effects)."""
        return self.table[self.hash_fn(frame) % len(self.table)]

    def reshape(self, outputs: list[Callable[[Any], bool]], table: list[int]) -> None:
        """Replace the output set and table entries in one step (the
        resize commit point).  Counters for surviving outputs carry
        over; new outputs start at zero.  The bucket count never changes
        — a resize moves table *entries*, not the flow → bucket map."""
        if not outputs:
            raise ShardingError("steering needs at least one output")
        if len(table) != len(self.table):
            raise ShardingError(
                f"reshape cannot change the bucket count "
                f"({len(self.table)} → {len(table)})"
            )
        table = self._validated_table(table, len(outputs))
        grown = len(outputs) - len(self.outputs)
        self.outputs = list(outputs)
        if grown > 0:
            self.steered.extend([0] * grown)
            self.refused.extend([0] * grown)
        elif grown < 0:
            del self.steered[len(outputs):]
            del self.refused[len(outputs):]
        self.table = table

    def steer(self, frame: Any) -> int | None:
        """Steer one frame; returns the accepting shard index, or None
        when the frame was malformed (counted in :attr:`malformed`) or
        that shard's receive refused it (the refusal is counted here,
        dropped/backpressured accounting lives with the NIC)."""
        for index, accepted in self._deliver((frame,)):
            return index if accepted else None
        return None

    def steer_batch(self, frames: list) -> int:
        """Steer a whole batch; returns frames accepted."""
        return sum(accepted for _, accepted in self._deliver(frames))

    def _deliver(self, frames: Any) -> list[tuple[int, int]]:
        """The one steering loop: hash each frame once, group the frames
        per output in arrival order, hand each group to its output in
        one call.  Returns ``(output index, frames accepted)`` per
        non-empty group.  Outputs share nothing, so each one sees
        exactly the frames, in exactly the order, a frame-at-a-time
        loop would have given it."""
        hash_fn = self.hash_fn
        table = self.table
        buckets = len(table)
        reject = self.reject
        groups: list[list] = [[] for _ in self.outputs]
        for frame in frames:
            try:
                index = table[hash_fn(frame) % buckets]
            except reject:
                self.malformed += 1
                continue
            groups[index].append(frame)
        outputs, steered, refused = self.outputs, self.steered, self.refused
        delivered = []
        for index, group in enumerate(groups):
            if group:
                accepted = outputs[index](group)
                steered[index] += accepted
                refused[index] += len(group) - accepted
                delivered.append((index, accepted))
        return delivered


class HashRing:
    """Consistent-hash ring: the *outer* steering level of a fleet.

    Two-level steering maps a flow hash first through this ring to a
    capsule (a whole :class:`ShardedDatapath` on its own ``netsim``
    node), then through that capsule's :class:`RssSteering` bucket table
    to a shard.  Both levels consume the *same* representation-stable
    flow hash (typically :func:`repro.netsim.wire.flow_hash_of`), so raw
    wire bytes, a materialised ``Packet`` and a zero-copy ``WirePacket``
    of one flow agree on capsule *and* shard.

    Each member contributes *replicas* virtual points.  Removing a
    member deletes only its own points: every surviving member's points
    are untouched, so a flow either keeps its home or moves exactly once
    — to the failed arc's clockwise successor.  That is the fleet-level
    twin of the per-shard ≤1-home-move bound the recovery machinery
    enforces (see the module docstring).

    Point placement uses a local FNV-1a/murmur-finaliser hash over the
    virtual-node label (osbase never imports the wire-format hash from
    the stratum above; only the *avalanche recipe* is shared).
    """

    _MASK = 0xFFFFFFFFFFFFFFFF

    def __init__(self, members: list[str] | None = None, *, replicas: int = 96) -> None:
        if replicas < 1:
            raise ShardingError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        #: Sorted virtual-point keys and their owning members (parallel
        #: lists, so lookup is one bisect + one index).
        self._keys: list[int] = []
        self._owners: list[str] = []
        self._members: list[str] = []
        for member in members or []:
            self.add(member)

    @staticmethod
    def _point(label: bytes) -> int:
        h = 0xCBF29CE484222325
        for byte in label:
            h ^= byte
            h = (h * 0x100000001B3) & HashRing._MASK
        h ^= h >> 33
        h = (h * 0xFF51AFD7ED558CCD) & HashRing._MASK
        h ^= h >> 33
        h = (h * 0xC4CEB9FE1A85EC53) & HashRing._MASK
        h ^= h >> 33
        return h

    @property
    def members(self) -> list[str]:
        """Live members, in insertion order."""
        return list(self._members)

    def add(self, member: str) -> None:
        """Add *member*'s virtual points (idempotence is an error: a
        duplicate would double the member's arc share silently)."""
        if member in self._members:
            raise ShardingError(f"ring member {member!r} already present")
        self._members.append(member)
        for replica in range(self.replicas):
            key = self._point(f"{member}#{replica}".encode())
            at = bisect_right(self._keys, key)
            # Deterministic tie-break on the (astronomically unlikely)
            # key collision: lexicographically smaller owner wins the
            # point on every construction order.
            while at > 0 and self._keys[at - 1] == key and self._owners[at - 1] > member:
                at -= 1
            self._keys.insert(at, key)
            self._owners.insert(at, member)

    def remove(self, member: str) -> None:
        """Remove *member*'s points; survivors' points are untouched, so
        only the dead arcs' flows move (each exactly once)."""
        if member not in self._members:
            raise ShardingError(f"no ring member {member!r}")
        self._members.remove(member)
        keep = [i for i, owner in enumerate(self._owners) if owner != member]
        self._keys = [self._keys[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def lookup(self, flow_hash: int) -> str:
        """The member owning *flow_hash*'s arc (clockwise successor of
        the hash point, wrapping at the top of the ring)."""
        if not self._members:
            raise ShardingError("lookup on an empty ring")
        at = bisect_right(self._keys, flow_hash & self._MASK)
        return self._owners[at % len(self._owners)]

    def arc_shares(self, samples: int = 4096) -> dict[str, float]:
        """Sampled fraction of hash space each member owns (diagnostic:
        replica count is the knob that tightens the spread)."""
        counts = {member: 0 for member in self._members}
        step = (self._MASK + 1) // samples
        for i in range(samples):
            counts[self.lookup(i * step)] += 1
        return {member: count / samples for member, count in counts.items()}


class Shard:
    """One forwarding shard: private RX NIC + pool slice + engine.

    The engine is opaque to the runtime — any object reachable through
    the *push_batch* / *flush* callables (a
    :class:`~repro.router.pipeline.RouterPipeline`, a baseline router, a
    test double).  ``flush`` completes the lifecycle for everything the
    preceding ``push_batch`` produced (TX-ring drain, recycling sink
    service), so :meth:`process` is a whole batch end-to-end.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        nic: Any,
        pool: Any,
        push_batch: Callable[[list], Any],
        flush: Callable[[], Any],
        engine: Any = None,
        decompile: Callable[[], Any] | None = None,
        recompile: Callable[[], Any] | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.nic = nic
        self.pool = pool
        self.engine = engine
        self._push_batch = push_batch
        self._flush = flush
        #: Optional compiled-hot-path hooks (opaque to this stratum, like
        #: the engine itself): ``decompile`` tears down a specialised
        #: chain before a reconfiguration round touches the shard's
        #: region, ``recompile`` rebuilds it once the round commits or
        #: rolls back.  See ``repro.opencom.compile``.
        self.decompile = decompile
        self.recompile = recompile
        self.counters = {
            "processed_packets": 0,
            "processed_batches": 0,
            # Thief side: batches this shard's worker ran for a peer.
            "stolen_batches": 0,
            # Victim side: batches of this backlog run by a peer's worker.
            "ceded_batches": 0,
        }

    @property
    def backlog_depth(self) -> int:
        """Frames waiting on this shard's RX ring (the steal watermark
        input)."""
        return self.nic.rx_depth

    def take_batch(self, max_n: int) -> list:
        """Pop up to *max_n* frames off this shard's backlog.

        Ownership hand-off (the batch-steal convention): the popped
        batch now belongs to the caller, who must run it through *this*
        shard's engine — :meth:`process` — within the same quantum, so
        backlog FIFO order is preserved and every pooled buffer is
        released by the pool's own shard.
        """
        got: list = []
        self.nic.drain_rx(got.append, budget=max_n)
        return got

    def process(self, batch: list) -> None:
        """Run one popped batch end-to-end through this shard's engine
        (push, then flush — the counters land on the *owning* shard even
        when a stealing peer is the caller)."""
        self._push_batch(batch)
        self._flush()
        self.counters["processed_packets"] += len(batch)
        self.counters["processed_batches"] += 1

    def drain(self, batch: int) -> int:
        """Run the whole backlog through this shard's engine inline,
        *batch* frames at a time; returns the frames drained.  Callers
        hold the fleet (an action set runs, or the fleet is stopping):
        nothing steps the workers meanwhile, so the hand-off is atomic."""
        drained = 0
        while frames := self.take_batch(batch):
            self.process(frames)
            drained += len(frames)
        return drained

    def stats(self) -> dict:
        """Counter snapshot plus backlog depth and pool balance."""
        snapshot = dict(self.counters)
        snapshot["backlog_depth"] = self.backlog_depth
        if self.pool is not None:
            snapshot["pool_acquired"] = self.pool.acquired_total
            snapshot["pool_released"] = self.pool.released_total
            snapshot["pool_in_flight"] = self.pool.in_flight
        return snapshot


class ShardedDatapath:
    """N forwarding workers plus a rebalancing supervisor over a
    thread-management CF.

    Workers are spawned immediately as perpetual generator bodies (one
    backlog batch per quantum); the supervisor (optional) recomputes
    steal directives each quantum: when the deepest and shallowest
    backlogs diverge by at least *steal_watermark* frames, every worker
    at least *steal_watermark* below the deepest is directed to steal
    from it whenever its own backlog is empty.

    Because worker bodies never finish, drive the runtime with
    :meth:`pump` (bounded multi-core stepping until the backlogs drain),
    not ``run_until_idle``.  :attr:`cores` — workers plus one management
    core for the supervisor — is the natural ``step_parallel`` width and
    what :meth:`pump` uses.
    """

    def __init__(
        self,
        shards: list[Shard],
        *,
        threads: Any,
        hash_fn: Callable[[Any], int],
        batch: int = 32,
        steal_watermark: int | None = None,
        supervise: bool = True,
        reject: tuple[type[BaseException], ...] = (),
        name: str = "sharded-datapath",
        buckets: int | None = None,
        shard_factory: Callable[[int, Any], Shard] | None = None,
        locality: Callable[[int, int], float] | None = None,
    ) -> None:
        if not shards:
            raise ShardingError("a sharded datapath needs at least one shard")
        if batch < 1:
            raise ShardingError(f"batch must be >= 1, got {batch}")
        if buckets is None:
            buckets = len(shards)
        if buckets < len(shards):
            raise ShardingError(
                f"need at least one bucket per shard: {buckets} buckets "
                f"for {len(shards)} shards"
            )
        self.shards = list(shards)
        self.threads = threads
        self.batch = batch
        #: Builds a fresh shard for index *i* over pool slice *p* when a
        #: resize grows the fleet (``resize`` refuses to grow without it).
        self.shard_factory = shard_factory
        #: Optional ``(thief, victim) → penalty`` cost model for
        #: cross-shard steals (>= 1.0; 1.0 = same locality domain).  The
        #: supervisor scales its steal watermark by it.
        self.locality = locality
        if steal_watermark is not None and not supervise:
            # Only the supervisor ever issues steal directives, so an
            # explicit watermark without one would be silently inert.
            raise ShardingError(
                "steal_watermark has no effect without the supervisor "
                "(supervise=False)"
            )
        self.steal_watermark = (
            2 * batch if steal_watermark is None else steal_watermark
        )
        if self.steal_watermark < 1:
            raise ShardingError(
                f"steal_watermark must be >= 1, got {self.steal_watermark}"
            )
        self.name = name
        #: Hash bucket → live successor bucket, installed by recovery
        #: (resolved transitively, so cascaded failures chain cleanly).
        self._redirect: dict[int, int] = {}
        #: Quiesced bucket → frames parked in arrival order.
        self._parked: dict[int, list] = {}
        #: Dead bucket → in-progress recovery state (successor, record).
        self._pending_recovery: dict[int, dict] = {}
        #: Completed drain-and-re-steer recoveries (see docs/robustness.md).
        self.recoveries: list[dict] = []
        #: Optional hook called once per dead worker (fault containment →
        #: coordination hand-off); typically starts a reconfiguration
        #: round over the registered recovery action set.
        self.recovery_driver: Callable[["ShardedDatapath", int], None] | None = None
        self._recovery_requested: set[int] = set()
        #: Worker indices poisoned to crash at their next quantum.
        self._poison: set[int] = set()
        #: In-progress elastic resize round (plan at quiesce, record
        #: after apply) — at most one, mutually exclusive with recovery.
        self._pending_resize: dict | None = None
        #: Completed resize records (see docs/concurrency.md).
        self.resizes: list[dict] = []
        #: Steal directives executed, split by the locality model (every
        #: steal is local when no model is installed).
        self.local_steals = 0
        self.remote_steals = 0
        #: Steals the plain watermark would have directed but the
        #: penalty-scaled one refused — the cost model said no.
        self.locality_vetoes = 0
        self.steering = RssSteering(
            [self._ingress_for(i) for i in range(len(self.shards))],
            hash_fn=hash_fn,
            reject=reject,
            table=[b % len(self.shards) for b in range(buckets)],
        )
        self.rebalances = 0
        self._stopping = False
        #: Worker index → victim shard index to help, or None.
        self._help: list[int | None] = [None] * len(self.shards)
        #: Per-worker retire cells: a shrink flips the removed workers'
        #: flags and their perpetual bodies return at the next quantum.
        self._retire_flags: list[list[bool]] = [
            [False] for _ in range(len(self.shards))
        ]
        self._workers = [
            threads.spawn(f"{name}-worker{i}", self._worker_body(i, self._retire_flags[i]))
            for i in range(len(self.shards))
        ]
        self._threads = list(self._workers)
        self.supervised = supervise
        if supervise:
            self._threads.append(
                threads.spawn(f"{name}-supervisor", self._supervisor_body())
            )
        #: Forwarding cores plus one management core for the supervisor.
        self.cores = len(self.shards) + (1 if supervise else 0)

    # -- ingress ------------------------------------------------------------------

    def steer(self, frame: Any) -> int | None:
        """Steer one frame to its shard's RX ring (see
        :meth:`RssSteering.steer`).  A shut-down datapath refuses: its
        workers are gone, so accepted frames could never drain."""
        if self._stopping:
            raise ShardingError(f"{self.name} is shut down")
        return self.steering.steer(frame)

    def steer_batch(self, frames: list) -> int:
        """Steer a whole arriving batch; returns frames accepted.

        One steering pass hands each shard its frames as one group (see
        :meth:`RssSteering.steer_batch`).  Two states need the arrival
        order *across* shards instead, and steer frame by frame: a
        standing redirect (a redirected bucket's frames share the
        successor's ring with its own, interleaved as they arrived) and
        a shard pool that raises on exhaustion (the unwinding frame must
        leave every earlier frame delivered and no later one)."""
        if self._stopping:
            raise ShardingError(f"{self.name} is shut down")
        if self._redirect or self._pool_may_raise():
            steer = self.steering.steer
            return sum(steer(frame) is not None for frame in frames)
        return self.steering.steer_batch(frames)

    def _pool_may_raise(self) -> bool:
        """True when some shard NIC's pool raises when it runs dry."""
        for shard in self.shards:
            pool = shard.nic.pool
            if pool is not None and getattr(pool, "exhaustion_policy", "raise") == "raise":
                return True
        return False

    def _ingress_for(self, index: int) -> Callable[[list], int]:
        """The steering output for shard *index*: takes that shard's
        group of a steered batch, returns how many frames it accepted.

        Fast path (no fault state anywhere) is one NIC batch receive —
        the indirection costs two empty-dict truthiness checks per
        group, so the C15 hot path is unperturbed.  Under recovery or
        resize the slow path applies parking and bucket redirects, frame
        by frame in arrival order.
        """
        receive = self.shards[index].nic.receive_batch

        def ingress(frames: list) -> int:
            if self._parked or self._redirect:
                slow = self._ingress_slow
                return sum(slow(index, frame) for frame in frames)
            return receive(frames)

        return ingress

    def _ingress_slow(self, index: int, frame: Any) -> bool:
        """Deliver one frame honouring quiesce parking and redirects.

        Walks the redirect chain from the frame's hash bucket; a
        quiesced bucket anywhere along it parks the frame (arrival order
        preserved — the apply step flushes the park list in order)."""
        target = index
        seen: set[int] = set()
        while True:
            parked = self._parked.get(target)
            if parked is not None:
                parked.append(frame)
                return True
            successor = self._redirect.get(target)
            if successor is None or successor in seen:
                break
            seen.add(target)
            target = successor
        return self.shards[target].nic.receive_frame(frame)

    # -- fault injection ----------------------------------------------------------

    def inject_worker_crash(self, index: int) -> None:
        """Poison worker *index*: its next quantum raises
        :class:`WorkerKilled` inside the body (contained per-thread, as
        any crash), deterministically — the same virtual time on every
        rerun of a seeded schedule."""
        if not 0 <= index < len(self.shards):
            raise ShardingError(f"no shard {index} in {self.name}")
        if self._workers[index].done:
            raise ShardingError(f"{self.name}-worker{index} is already dead")
        self._poison.add(index)

    # -- failure-domain recovery ----------------------------------------------------

    def recovery_action_set(self) -> ActionSet:
        """The drain-and-re-steer recovery as an action set (the round's
        parameter dict must carry ``{"shard": <dead index>}`` and may
        carry ``{"to": <successor index>}``)."""
        return ActionSet(
            self._recovery_quiesce,
            self._recovery_apply,
            self._recovery_resume,
            self._recovery_rollback,
        )

    def _pick_successor(self, dead: int, to: int | None) -> int | None:
        if to is not None:
            valid = (
                isinstance(to, int)
                and not isinstance(to, bool)
                and 0 <= to < len(self.shards)
                and to != dead
                and not self._workers[to].done
                and to not in self._pending_recovery
            )
            return to if valid else None
        live = [
            i
            for i in range(len(self.shards))
            if i != dead
            and not self._workers[i].done
            and i not in self._pending_recovery
            and i not in self._redirect
        ]
        if not live:
            return None
        return min(live, key=lambda i: self.shards[i].backlog_depth)

    def _recovery_quiesce(self, params: dict) -> bool:
        """Park the dead bucket's arrivals and pick a successor; False
        (→ vote no) when the parameters are invalid, the shard is
        already mid-recovery, or no live successor exists."""
        dead = params.get("shard")
        if not isinstance(dead, int) or isinstance(dead, bool):
            return False
        if not 0 <= dead < len(self.shards):
            return False
        if dead in self._pending_recovery or dead in self._redirect:
            return False
        if self._pending_resize is not None:
            # Mutually exclusive with an in-flight resize: both rounds
            # park buckets and reason about a fixed fleet shape.
            return False
        successor = self._pick_successor(dead, params.get("to"))
        if successor is None:
            return False
        self._parked[dead] = []
        self._pending_recovery[dead] = {"to": successor}
        # A reconfiguration round is touching this shard's region: tear
        # down its compiled hot path so the apply-phase drain (and any
        # failover stealing) runs interpreted.  A committed recovery
        # leaves the dead shard out of service (and de-specialised);
        # rollback recompiles it.
        dead_shard = self.shards[dead]
        if dead_shard.decompile is not None:
            dead_shard.decompile()
        # Failover stealing keeps draining the dead backlog through the
        # prepare window — recovery replaces it, it does not pause it.
        return True

    def _recovery_apply(self, params: dict) -> None:
        """Drain-before-rehash: empty the dead shard's backlog through
        its *own* engine, install the redirect, flush the parked frames
        to the successor in arrival order."""
        dead = params["shard"]
        pending = self._pending_recovery.get(dead)
        if pending is None:
            raise ShardingError(f"recovery apply without quiesce (shard {dead})")
        shard = self.shards[dead]
        # Inline hand-off — the same ownership convention as stealing.
        drained = shard.drain(self.batch)
        successor = pending["to"]
        self._redirect[dead] = successor
        flushed, refused = self._flush_parked(
            self._parked.pop(dead, []), self.shards[successor].nic.receive_frame
        )
        pool = shard.pool
        pending["record"] = {
            "shard": dead,
            "to": successor,
            "drained": drained,
            "parked_flushed": flushed,
            "parked_refused": refused,
            "pool_acquired": pool.acquired_total if pool is not None else None,
            "pool_released": pool.released_total if pool is not None else None,
            "pool_in_flight": pool.in_flight if pool is not None else None,
            "pool_balanced": (
                pool.acquired_total == pool.released_total
                and pool.in_flight == 0
                if pool is not None
                else True
            ),
            "virtual_time": self.threads.clock.now,
        }

    def _recovery_resume(self, params: dict) -> None:
        """Commit-side resume: lift the parking and record the recovery.
        A no-op on the abort path (rollback already cleaned up)."""
        dead = params["shard"]
        pending = self._pending_recovery.pop(dead, None)
        if pending is None:
            return
        record = pending.get("record")
        if record is not None:
            self.recoveries.append(record)
        # Defensive: anything still parked (apply short-circuited without
        # raising) follows the redirect chain rather than vanishing.
        self._flush_parked(
            self._parked.pop(dead, []), lambda frame: self._ingress_slow(dead, frame)
        )

    def _recovery_rollback(self, params: dict) -> None:
        """Abort-side undo: unpark everything back onto the dead shard's
        own ring (failover stealing resumes draining it) and remove any
        redirect a failed apply installed."""
        dead = params["shard"]
        pending = self._pending_recovery.pop(dead, None)
        if pending is None:
            return
        if self._redirect.get(dead) == pending["to"]:
            del self._redirect[dead]
        dead_shard = self.shards[dead]
        self._flush_parked(self._parked.pop(dead, []), dead_shard.nic.receive_frame)
        # The shard stays in service after an aborted recovery: rebuild
        # its compiled hot path (quiesce tore it down).
        if dead_shard.recompile is not None:
            dead_shard.recompile()
        # Let the supervisor's recovery driver try again later.
        self._recovery_requested.discard(dead)

    def recover_shard(self, index: int, *, to: int | None = None) -> dict:
        """Run the whole recovery locally (no coordination protocol)
        through :meth:`ActionSet.run`; returns the recovery record."""
        params: dict[str, Any] = {"shard": index}
        if to is not None:
            params["to"] = to
        if not self.recovery_action_set().run(params):
            raise ShardingError(
                f"shard {index} recovery refused (bad index, already "
                f"recovering, or no live successor)"
            )
        return self.recoveries[-1]

    def parked_count(self) -> int:
        """Frames parked by in-progress recovery/resize rounds (not on
        any RX ring, so not in :meth:`total_backlog` — they drain at
        commit/abort)."""
        return sum(len(frames) for frames in self._parked.values())

    # -- elastic resizing -----------------------------------------------------------

    def resize_action_set(self) -> ActionSet:
        """The elastic resize as an action set (the round's parameter
        dict must carry ``{"shards": <target count>}``)."""
        return ActionSet(
            self._resize_quiesce,
            self._resize_apply,
            self._resize_resume,
            self._resize_rollback,
        )

    def _plan_table(self, n: int) -> tuple[list[int], list[int]] | None:
        """A new bucket table for a fleet of *n* shards, moving as few
        entries as possible.

        Buckets whose current target survives (index < *n*, worker
        alive) keep it untouched; buckets orphaned by the shrink (or by
        a dead worker) re-home onto the least-loaded eligible shard; on
        growth the new shards are fed up to the floor share by the most
        loaded old ones donating their highest-numbered buckets.  Every
        bucket moves at most once.  Returns ``(table, moved_buckets)``,
        or None when no eligible home exists.
        """
        old = self.steering.table
        eligible = [
            i
            for i in range(n)
            if i >= len(self.shards) or not self._workers[i].done
        ]
        if not eligible:
            return None
        load = {i: 0 for i in eligible}
        table = list(old)
        orphans: list[int] = []
        for bucket, target in enumerate(old):
            if target in load:
                load[target] += 1
            else:
                orphans.append(bucket)
        moved: list[int] = []
        for bucket in orphans:
            dest = min(eligible, key=lambda i: (load[i], i))
            table[bucket] = dest
            load[dest] += 1
            moved.append(bucket)
        moved_set = set(moved)
        floor_share = len(old) // n
        while True:
            hungry = [i for i in eligible if load[i] < floor_share]
            if not hungry:
                break
            dest = min(hungry, key=lambda i: (load[i], i))
            donors = [
                (i, [b for b, t in enumerate(table) if t == i and b not in moved_set])
                for i in eligible
                if i != dest
            ]
            donors = [(i, owned) for i, owned in donors if owned]
            if not donors:
                break
            donor, owned = max(donors, key=lambda pair: (load[pair[0]], -pair[0]))
            if load[donor] <= load[dest] + 1:
                break
            bucket = max(owned)
            table[bucket] = dest
            load[donor] -= 1
            load[dest] += 1
            moved.append(bucket)
            moved_set.add(bucket)
        return table, moved

    def decompile_all(self) -> None:
        """De-specialise the whole fleet: every shard's compiled chain is
        torn down (shards without the hook — plain engines, test doubles
        — are untouched) so a reconfiguration that mutates vtables runs
        interpreted.  Every round's quiesce calls this, and the
        adaptation stratum calls it before any hot swap it actuates —
        its rule engine refuses the swap otherwise."""
        for shard in self.shards:
            if shard.decompile is not None:
                shard.decompile()

    def recompile_all(self) -> None:
        """Rebuild every shard's compiled hot path after a round settles
        (idempotent; grown shards arrive compiled from the factory,
        shards without the hook are untouched)."""
        for shard in self.shards:
            if shard.recompile is not None:
                shard.recompile()

    def compiled_shards(self) -> list[int]:
        """Indices of shards whose engine currently dispatches through a
        live compiled chain — the regions a vtable mutation must not
        touch until :meth:`decompile_all` has run."""
        return [
            index
            for index, shard in enumerate(self.shards)
            if getattr(shard.engine, "compiled_active", False)
        ]

    def _resize_quiesce(self, params: dict) -> bool:
        """Park every bucket's arrivals and plan the new table; False
        (→ vote no) when the target is invalid, another round is in
        flight, growth lacks a shard factory, or no live home exists."""
        n = params.get("shards")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            return False
        if n == len(self.shards):
            return False
        if n > len(self.steering.table):
            # Each shard needs at least one bucket; the bucket count is
            # fixed at construction (flow → bucket never moves).
            return False
        if self._stopping or self._pending_resize is not None:
            return False
        if self._pending_recovery:
            # Mutually exclusive with an in-flight recovery round.
            return False
        if n > len(self.shards) and self.shard_factory is None:
            return False
        plan = self._plan_table(n)
        if plan is None:
            return False
        table, moved = plan
        # The re-carve hands the *whole* budget over, so every ring must
        # drain: park every shard, not just the affected buckets.
        for index in range(len(self.shards)):
            self._parked[index] = []
        self._pending_resize = {
            "target": n,
            "from": len(self.shards),
            "old_table": list(self.steering.table),
            "new_table": table,
            "moved_buckets": moved,
            "phase": "quiesced",
        }
        # The round is about to touch every shard's region (drain, pool
        # re-bind, table swap): de-specialise the fleet so the whole
        # window runs interpreted; commit and rollback both rebuild.
        self.decompile_all()
        return True

    def _resize_apply(self, params: dict) -> None:
        """Drain-before-rehash for the whole fleet, the exact pool
        hand-off, then the commit: rebuild the fleet and swap the table.

        Everything that can fail (draining, the hand-off audit, the
        shard factory) runs *before* the commit point, so rollback
        always sees an untouched fleet.
        """
        pending = self._pending_resize
        if pending is None or pending["target"] != params.get("shards"):
            raise ShardingError(
                f"resize apply without matching quiesce "
                f"(target {params.get('shards')!r})"
            )
        n = pending["target"]
        old_n = len(self.shards)
        # 1. Drain every ring through its own engine: in-flight frames
        #    egress from their pre-resize home, so the table swap can
        #    never reorder a flow (and the pool books can balance).
        drained = [shard.drain(self.batch) for shard in self.shards]
        # 2. The exact hand-off: re-carving is only sound when no slice
        #    has a buffer in flight.  The new slices start out empty.
        pools = [shard.pool for shard in self.shards]
        pooled = all(pool is not None for pool in pools)
        handoff = None
        if pooled:
            try:
                new_pools, handoff = plan_recarve(pools, n)
            except ResourceError as exc:
                raise ShardingError(f"resize to {n} shards aborted: {exc}") from exc
        else:
            new_pools = [None] * n
        # 3. Build the grown shards before mutating anything: a factory
        #    failure aborts the round with the fleet untouched.
        grown = [
            self.shard_factory(index, new_pools[index])
            for index in range(old_n, n)
        ]
        # ---- commit point: nothing below raises ----
        pending["phase"] = "committed"
        if pooled:
            # The budget moves into the new slices; nothing is allocated.
            rehome_buffers(pools, new_pools)
        if n < old_n:
            for index in range(n, old_n):
                self._retire_flags[index][0] = True
            del self.shards[n:]
            del self._workers[n:]
            del self._retire_flags[n:]
            del self._help[n:]
        for index, shard in enumerate(self.shards):
            if pooled:
                shard.pool = new_pools[index]
                bind = getattr(shard.nic, "bind_pool", None)
                if bind is not None:
                    bind(new_pools[index])
        for shard in grown:
            index = len(self.shards)
            self.shards.append(shard)
            flag = [False]
            self._retire_flags.append(flag)
            self._help.append(None)
            worker = self.threads.spawn(
                f"{self.name}-worker{index}", self._worker_body(index, flag)
            )
            self._workers.append(worker)
            self._threads.append(worker)
        # Stale steal directives must not point past the new fleet.
        for index in range(len(self._help)):
            self._help[index] = None
        # A standing redirect is compiled away by the swap: every bucket
        # it re-homed now has a direct live target in the new table.
        self._redirect.clear()
        self._recovery_requested = {
            index for index in self._recovery_requested if index < n
        }
        self.steering.reshape(
            [self._ingress_for(i) for i in range(n)], pending["new_table"]
        )
        self.cores = len(self.shards) + (1 if self.supervised else 0)
        # 4. Flush the parked frames through the *new* table, per former
        #    home in arrival order — each flow's parked frames live in
        #    exactly one park list, so they land contiguously and in
        #    order on their (single) new home.
        table, bucket_of = self.steering.table, self.steering.bucket_of
        flushed, refused = self._flush_parked(
            [frame for _, frames in sorted(self._parked.items()) for frame in frames],
            lambda frame: self.shards[table[bucket_of(frame)]].nic.receive_frame(frame),
        )
        self._parked.clear()
        pending["record"] = {
            "from": old_n,
            "to": n,
            "buckets": len(self.steering.table),
            "moved_buckets": len(pending["moved_buckets"]),
            "drained": drained,
            "drained_total": sum(drained),
            "parked_flushed": flushed,
            "parked_refused": refused,
            "pool_handoff": handoff,
            "virtual_time": self.threads.clock.now,
        }
        # 5. The fleet has its final shape: rebuild the compiled hot
        #    paths (retired shards are gone, grown shards came compiled
        #    from the factory, survivors re-specialise here).
        self.recompile_all()

    def _resize_resume(self, params: dict) -> None:
        """Commit-side resume: record the resize.  A no-op on the abort
        path (rollback already cleaned up)."""
        pending = self._pending_resize
        if pending is None:
            return
        self._pending_resize = None
        record = pending.get("record")
        if record is not None:
            self.resizes.append(record)
        # Defensive: resume without apply (protocol misuse) must not
        # strand parked frames — back onto their own rings they go —
        # nor leave the fleet de-specialised (quiesce tore the compiled
        # paths down; apply never ran to rebuild them).
        self._unpark_all()
        if record is None:
            self.recompile_all()

    def _resize_rollback(self, params: dict) -> None:
        """Abort-side undo: unpark everything back onto the original
        rings.  Apply mutates nothing before its commit point, so the
        fleet, pools and table are untouched."""
        pending = self._pending_resize
        if pending is None:
            return
        self._pending_resize = None
        if pending.get("phase") == "committed":
            # Apply completed (the commit region cannot raise); there is
            # nothing to undo and the parked lists are already flushed.
            return
        self._unpark_all()
        # The fleet keeps its old shape: re-specialise it (quiesce tore
        # the compiled paths down for the aborted round).
        self.recompile_all()

    def _unpark_all(self) -> None:
        """Return every parked frame to its own shard's ring, in order."""
        for index in sorted(self._parked):
            frames = self._parked.pop(index)
            if 0 <= index < len(self.shards):
                self._flush_parked(frames, self.shards[index].nic.receive_frame)

    @staticmethod
    def _flush_parked(
        frames: list, deliver: Callable[[Any], bool]
    ) -> tuple[int, int]:
        """Deliver parked frames one by one in arrival order; returns
        ``(flushed, refused)``.

        Every round flushes through here, past its commit point or in
        rollback, where nothing may unwind half way.  So a refusal — ring
        overflow, pool backpressure, or a ``raise``-policy pool running
        dry (``ResourceError``) — is counted, never raised, and the
        frames after it are still offered.  A parked frame was never
        materialised into a pooled buffer, so refusing it cannot leak
        (same as any NIC drop).
        """
        flushed = refused = 0
        for frame in frames:
            try:
                accepted = deliver(frame)
            except ResourceError:
                accepted = False
            if accepted:
                flushed += 1
            else:
                refused += 1
        return flushed, refused

    def resize(self, n: int) -> dict:
        """Run the whole elastic resize locally (no coordination
        protocol) through :meth:`ActionSet.run`; returns the resize
        record."""
        if not self.resize_action_set().run({"shards": n}):
            raise ShardingError(
                f"resize to {n} shards refused (invalid target, another "
                f"round in flight, growth without a shard factory, or no "
                f"live home)"
            )
        return self.resizes[-1]

    # -- runtime tuning (the adaptation stratum's knobs) --------------------------

    def retune_batch(self, n: int) -> tuple[int, int]:
        """Change the per-quantum batch size live; returns (old, new).

        Workers read :attr:`batch` at every ``take_batch``, so the new
        size takes effect at each worker's next quantum — no round, no
        quiesce.  The RX/TX ring sizes are fixed at build time and do
        not follow the batch.
        """
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ShardingError(f"batch must be >= 1, got {n!r}")
        old = self.batch
        self.batch = n
        return old, n

    def retune_steal_watermark(self, n: int) -> tuple[int, int]:
        """Change the supervisor's steal watermark live; returns
        (old, new).  The supervisor reads it every quantum; without a
        supervisor the knob is inert, so retuning one is refused the
        same way constructing one is."""
        if not self.supervised:
            raise ShardingError(
                "steal_watermark has no effect without the supervisor "
                "(supervise=False)"
            )
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ShardingError(f"steal_watermark must be >= 1, got {n!r}")
        old = self.steal_watermark
        self.steal_watermark = n
        return old, n

    # -- adaptation probes --------------------------------------------------------

    @property
    def round_open(self) -> bool:
        """True while a two-phase round (resize or recovery) holds this
        datapath quiesced — the window in which a second structural
        change must not start (the rounds themselves are mutually
        exclusive; the adaptation rule engine extends the same exclusion
        to the actions it governs)."""
        return self._pending_resize is not None or bool(self._pending_recovery)

    def worker_alive(self, index: int) -> bool:
        """True when shard *index* exists and its worker thread has not
        finished (crashed, retired or shut down)."""
        return 0 <= index < len(self._workers) and not self._workers[index].done

    def live_shard_indices(self) -> list[int]:
        """Indices of shards whose workers are still running.

        Monitors reading shard queues must use this (or tolerate the
        equivalent) rather than a cached shard list: ``kill_worker`` and
        crash paths leave a dead worker's backlog frozen on its ring,
        and a resize can shrink the fleet between two samples.
        """
        return [
            index
            for index in range(len(self.shards))
            if not self._workers[index].done
        ]

    def backlog_divergence(self) -> int:
        """Deepest-minus-shallowest RX backlog across *live* shards (0
        with fewer than two live shards).

        Dead-worker shards are excluded: their backlog is frozen until
        failover/recovery drains it, so including it would read as
        permanent divergence and goad a monitor into rebalancing knobs
        that cannot help.
        """
        depths = [
            self.shards[index].backlog_depth
            for index in self.live_shard_indices()
        ]
        if len(depths) < 2:
            return 0
        return max(depths) - min(depths)

    # -- execution ----------------------------------------------------------------

    def total_backlog(self) -> int:
        """Frames waiting across every shard's RX ring."""
        return sum(shard.backlog_depth for shard in self.shards)

    def pump(self, *, max_steps: int = 1_000_000) -> int:
        """Multi-core step until every backlog is empty; returns steps.

        Each step runs :meth:`~repro.osbase.scheduler.ThreadManagerCF.
        step_parallel` at :attr:`cores` width (one overlapping quantum
        for every worker plus the supervisor).  Engines are flushed
        within each processed batch's quantum, so empty backlogs mean
        the datapath is fully drained.  Every way of getting stuck warns
        :class:`PumpExhausted` instead of spinning: hitting *max_steps*,
        a fully dead fleet, a shut-down datapath, or backlog that stops
        shrinking (e.g. a crashed worker's backlog with nobody directed
        to steal it — the warning names the dead workers' errors).
        """
        if self._stopping and self.total_backlog() > 0:
            warnings.warn(
                f"pump called on shut-down {self.name} with "
                f"{self.total_backlog()} frames still backlogged",
                PumpExhausted,
                stacklevel=2,
            )
            return 0
        steps = 0
        stagnant = 0
        backlog = self.total_backlog()
        alive = self.threads.alive_count()
        while backlog > 0 and not self._stopping:
            if steps >= max_steps:
                warnings.warn(
                    f"pump stopped after max_steps={max_steps} with "
                    f"{backlog} frames still backlogged",
                    PumpExhausted,
                    stacklevel=2,
                )
                break
            # Check the *workers*, not step_parallel's return: with the
            # supervisor installed the runtime is never fully idle, so a
            # dead fleet (every worker body crashed or finished) would
            # otherwise spin supervisor-only quanta to max_steps.
            if all(worker.done for worker in self._workers):
                warnings.warn(
                    f"pump found no live workers with {backlog} frames "
                    f"still backlogged{self._dead_worker_report()}",
                    PumpExhausted,
                    stacklevel=2,
                )
                break
            self.threads.step_parallel(self.cores)
            steps += 1
            remaining = self.total_backlog()
            remaining_alive = self.threads.alive_count()
            if remaining < backlog or remaining_alive < alive:
                # Reaping a thread counts as progress too: after a
                # shrink, workers retired between pumps exit at their
                # next quantum, and a burst of them can soak every slot
                # of a narrow post-shrink core width for several steps
                # before the survivors get a turn.
                stagnant = 0
            else:
                # A live fleet drains something every quantum unless the
                # remaining backlog is unreachable (dead owner, nobody
                # directed to steal).  Three stagnant steps cover the
                # supervisor's directive latency.
                stagnant += 1
                if stagnant >= 3:
                    warnings.warn(
                        f"pump made no progress for {stagnant} steps with "
                        f"{remaining} frames still backlogged"
                        f"{self._dead_worker_report()}",
                        PumpExhausted,
                        stacklevel=2,
                    )
                    break
            backlog = remaining
            alive = remaining_alive
        return steps

    def _abort_open_rounds(self) -> None:
        """Abort every in-flight recovery/resize round, then return any
        orphaned park list (no pending round) to its own ring."""
        for dead in sorted(self._pending_recovery):
            self.recovery_action_set().abort({"shard": dead})
        if self._pending_resize is not None:
            self.resize_action_set().abort(
                {"shards": self._pending_resize["target"]}
            )
        self._unpark_all()

    def _dead_worker_report(self) -> str:
        """Diagnostic suffix naming crashed workers and their errors."""
        dead = [
            f"{worker.name}: {worker.error!r}"
            for worker in self._workers
            if worker.done
        ]
        return f" (dead workers: {'; '.join(dead)})" if dead else ""

    def abandon(self, release: Callable[[Any], Any] | None = None) -> int:
        """Kill-path teardown: the node hosting this datapath died, so
        its backlog can never drain through its own engines.

        Rolls back any in-flight round, then pops every parked and
        backlogged frame off every ring and hands each to *release*
        (typically :func:`repro.osbase.buffers.release_dropped`, so
        pooled ingest buffers return to their slices and the
        acquired == released audit still balances on a killed node),
        then stops the workers.  Returns the number of frames abandoned.

        This is the one exit where frames do *not* egress through an
        engine — the single-box assumption :meth:`shutdown(drain=True)
        <shutdown>` bakes in.  A fleet reassigns the dead node's hash
        arc and re-steers its *future* frames instead (see
        :class:`HashRing`); the abandoned ones are honest drops, counted
        by the caller.
        """
        if not self._stopping:
            self._abort_open_rounds()
        abandoned = 0
        for shard in self.shards:
            while True:
                batch = shard.take_batch(self.batch)
                if not batch:
                    break
                for frame in batch:
                    if release is not None:
                        release(frame)
                    abandoned += 1
        self.shutdown()
        return abandoned

    def shutdown(self, *, drain: bool = False) -> None:
        """Stop the perpetual worker/supervisor bodies (each observes the
        flag at its next quantum and returns), leaving any backlogged
        frames in place.

        An in-flight recovery/resize round is rolled back first, so the
        frames its quiesce parked return to their own RX rings (counted
        in :meth:`total_backlog`, drainable by a later inline caller)
        instead of being stranded in park lists nothing will ever flush.
        With *drain* True the rings are then emptied through their own
        engines before the stop — a graceful park-and-drain shutdown.
        """
        if not self._stopping:
            self._abort_open_rounds()
            if drain:
                for shard in self.shards:
                    shard.drain(self.batch)
        self._stopping = True
        for _ in range(2 * len(self._threads) + 2):
            if all(thread.done for thread in self._threads):
                break
            self.threads.step_parallel(self.cores)

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict:
        """Per-shard counters (processing, stealing, steering, pool
        balance) plus runtime-level totals."""
        shards = []
        for index, shard in enumerate(self.shards):
            row = shard.stats()
            row["shard_id"] = shard.shard_id
            row["steered"] = self.steering.steered[index]
            row["steer_refused"] = self.steering.refused[index]
            shards.append(row)
        return {
            "shards": shards,
            "rebalances": self.rebalances,
            "steer_malformed": self.steering.malformed,
            "total_backlog": self.total_backlog(),
            "parked": self.parked_count(),
            "redirects": dict(self._redirect),
            "recoveries": len(self.recoveries),
            "resizes": len(self.resizes),
            "resize_pending": self._pending_resize is not None,
            "buckets": len(self.steering.table),
            "local_steals": self.local_steals,
            "remote_steals": self.remote_steals,
            "locality_vetoes": self.locality_vetoes,
            "dead_workers": [
                index
                for index, worker in enumerate(self._workers)
                if worker.done
            ],
            "virtual_time": self.threads.clock.now,
            "stopping": self._stopping,
        }

    # -- thread bodies ------------------------------------------------------------

    def _worker_body(self, index: int, retired: list):
        """One quantum = pop one batch and run it end-to-end.

        Own backlog first; when it is empty and the supervisor has
        directed this worker at a victim, steal one whole batch and run
        it through the *victim's* engine (the hand-off convention: CPU
        moves, flow residency does not).  *retired* is this worker's
        retire cell: a shrink flips it and the body returns at its next
        quantum (the index may later be reused by a grown worker with a
        fresh cell).
        """
        shard = self.shards[index]
        while not self._stopping and not retired[0]:
            if index in self._poison:
                self._poison.discard(index)
                raise WorkerKilled(
                    f"{self.name}-worker{index} killed by fault injection"
                )
            batch = shard.take_batch(self.batch)
            if batch:
                shard.process(batch)
            else:
                victim_index = self._help[index]
                if (
                    victim_index is not None
                    and victim_index != index
                    # A resize between supervisor quanta may shrink the
                    # fleet under a standing directive.
                    and victim_index < len(self.shards)
                ):
                    victim = self.shards[victim_index]
                    stolen = victim.take_batch(self.batch)
                    if stolen:
                        shard.counters["stolen_batches"] += 1
                        victim.counters["ceded_batches"] += 1
                        if (
                            self.locality is not None
                            and self.locality(index, victim_index) > 1.0
                        ):
                            self.remote_steals += 1
                        else:
                            self.local_steals += 1
                        victim.process(stolen)
            yield

    def _supervisor_body(self):
        """Recompute steal directives from the backlog watermarks.

        A backlogged shard whose own worker has died (crashed body) is
        treated as maximal divergence — *failover*: every live worker is
        directed at it regardless of the watermark, since stealing is
        the only way that backlog can still drain.  (A poisoned engine
        then kills the thieves too, at which point :meth:`pump`'s
        dead-fleet and no-progress guards take over.)
        """
        while not self._stopping:
            depths = [shard.backlog_depth for shard in self.shards]
            if self.recovery_driver is not None:
                # Containment → coordination hand-off: report each dead
                # worker exactly once (rollback re-arms the report so an
                # aborted round is retried).  Failover stealing continues
                # below while the driver's round is in flight.
                for index, worker in enumerate(self._workers):
                    if (
                        worker.done
                        and index not in self._recovery_requested
                        and index not in self._redirect
                    ):
                        self._recovery_requested.add(index)
                        self.recovery_driver(self, index)
            dead_backlogged = [
                index
                for index in range(len(self.shards))
                if self._workers[index].done and depths[index] > 0
            ]
            if dead_backlogged:
                victim = max(dead_backlogged, key=depths.__getitem__)
                for index in range(len(self.shards)):
                    self._help[index] = victim if index != victim else None
                self.rebalances += 1
                yield
                continue
            deepest = max(range(len(depths)), key=depths.__getitem__)
            spread = depths[deepest] - min(depths)
            directed = False
            for index in range(len(self.shards)):
                gap = depths[deepest] - depths[index]
                wants = (
                    spread >= self.steal_watermark
                    and index != deepest
                    and gap >= self.steal_watermark
                )
                if wants and self.locality is not None:
                    # The NUMA-style cost model: a cross-domain steal
                    # must clear a penalty-scaled watermark before it
                    # pays for the remote traffic it causes.
                    if gap < self.steal_watermark * self.locality(index, deepest):
                        self.locality_vetoes += 1
                        wants = False
                self._help[index] = deepest if wants else None
                directed = directed or wants
            if directed:
                self.rebalances += 1
            yield
