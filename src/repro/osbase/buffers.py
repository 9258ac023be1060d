"""The buffer-management CF (stratum 1).

The paper lists buffer management among the implemented CFs and notes that
router components "can also take advantage of our existing buffer
management CF".  Here: reference-counted packet buffers drawn from
fixed-size pools, with zero-copy slicing, per-pool accounting, and a CF
whose rule set governs pool plug-ins.

Buffers back the packet payloads travelling through the stratum-2 data
path; pool exhaustion is how input-pressure drop policies are exercised.

Buffer lifecycle
----------------
A pooled buffer is *acquired* exactly once (at NIC ingress, where
:meth:`~repro.osbase.nic.Nic.receive_frame` materialises the arriving
frame as a wire packet), travels the datapath by ownership hand-off
(``push`` transfers the reference downstream), and is *released* exactly
once — by whichever component ends the packet's life: a drop path (via
:func:`release_dropped`), a recycling terminal sink, or the NIC TX drain
once the frame has left the machine.  Exhaustion behaviour is a pool
*policy* (``raise`` / ``drop-newest`` / ``backpressure``) so the ingress
path degrades by dropping or stalling instead of unwinding mid-datapath.
The full walkthrough, including who releases on every path, is the
"buffer lifecycle" section of ``docs/architecture.md``; the C14
experiment (``benchmarks/bench_c14_steady_state.py``) asserts the loop
closes — zero steady-state allocations, zero net occupancy drift.
"""

from __future__ import annotations

from repro.cf.framework import ComponentFramework
from repro.cf.rules import ProvidesInterface
from repro.opencom.component import Component, Provided
from repro.opencom.errors import ResourceError
from repro.opencom.interfaces import Interface
from repro.osbase.memory import DATAPATH_LEDGER as _LEDGER

#: Valid pool exhaustion policies: ``raise`` unwinds with ResourceError
#: (control-plane acquisition), ``drop-newest`` returns None so the
#: datapath drops the arriving packet, ``backpressure`` also returns None
#: but signals the caller to stall/refuse rather than count a drop (the
#: NIC reports it upstream instead of consuming the frame).
EXHAUSTION_POLICIES = ("raise", "drop-newest", "backpressure")


def release_dropped(packet) -> None:
    """Return a dropped packet's pooled buffer, if it has one.

    Push transfers ownership down the datapath, so whichever component
    drops a packet is the last holder of its buffer reference.  Wire
    packets (:class:`repro.netsim.wire.WirePacket`) expose ``release()``
    for exactly this hand-back — without it a pooled buffer whose packet
    is dropped never re-enters its pool.  Materialised packets (and raw
    byte frames) are a no-op — their storage is garbage-collected.
    """
    if isinstance(packet, memoryview):
        # A raw memoryview frame has a release() of its own, but calling
        # it would invalidate a view the *sender* may still hold — raw
        # byte frames are the caller's storage, not ours.
        return
    release = getattr(packet, "release", None)
    if release is not None:
        release()


class IBufferPool(Interface):
    """Interface of a buffer pool plug-in."""

    def acquire(self, size: int):
        """Obtain a buffer of at least *size* bytes (refcount 1).

        On exhaustion the pool's *exhaustion policy* decides the outcome:
        ``raise`` (the default) raises ResourceError, ``drop-newest`` and
        ``backpressure`` return None so datapath callers degrade without
        unwinding.
        """
        ...

    def acquire_into(self, data):
        """Acquire a buffer of ``len(data)`` bytes and fill it — the
        one-call ingress materialisation (None under a non-raising
        exhaustion policy when the pool is empty)."""
        ...

    def release(self, buffer) -> None:
        """Drop one reference; the buffer returns to the pool at zero."""
        ...

    def stats(self) -> dict:
        """Pool occupancy statistics."""
        ...


class Buffer:
    """A reference-counted byte buffer from a pool.

    Supports zero-copy views: :meth:`view` returns a memoryview over the
    valid region; :meth:`clone_ref` bumps the refcount for shared
    ownership along a multicast path.

    A buffer may also be *standalone* (``pool=None``): same refcounting
    and view semantics, but releasing the last reference simply abandons
    it to the garbage collector instead of returning it to a pool.  The
    zero-copy packet path (:mod:`repro.netsim.wire`) uses standalone
    buffers when no pool is plumbed in, and for copy-on-write unsharing.
    """

    __slots__ = ("pool", "capacity", "length", "_data", "_mv", "refcount")

    def __init__(self, pool: "BufferPool | None", capacity: int) -> None:
        self.pool = pool
        self.capacity = capacity
        self.length = 0
        self._data = bytearray(capacity)
        #: The one memoryview over the backing store, built at carve and
        #: shared by every packet the buffer ever carries (the store
        #: never resizes, so the view never goes stale).
        self._mv = memoryview(self._data)
        self.refcount = 0
        # Every fresh carve is an *allocation* in the datapath ledger;
        # pool recycling (acquire/release) deliberately is not, which is
        # how the steady-state experiment proves a warm pooled path
        # allocates nothing.
        _LEDGER.record_allocation(capacity)

    @classmethod
    def standalone(cls, payload: bytes | bytearray | memoryview) -> "Buffer":
        """A pool-less buffer holding *payload* (refcount 1)."""
        buffer = cls(None, len(payload))
        buffer.refcount = 1
        buffer.write(payload)
        return buffer

    def write(self, payload: bytes | bytearray | memoryview) -> None:
        """Fill the buffer with *payload* (must fit the capacity)."""
        if len(payload) > self.capacity:
            raise ResourceError(
                f"payload of {len(payload)} exceeds buffer capacity {self.capacity}"
            )
        self._data[: len(payload)] = payload
        self.length = len(payload)

    def view(self) -> memoryview:
        """Zero-copy view of the valid region."""
        return self._mv[: self.length]

    def tobytes(self) -> bytes:
        """Copy the valid region out as bytes."""
        return bytes(self._data[: self.length])

    def clone_ref(self) -> "Buffer":
        """Add a reference (shared ownership); returns self."""
        if self.refcount <= 0:
            raise ResourceError("cannot clone a released buffer")
        self.refcount += 1
        return self

    def release_ref(self) -> None:
        """Drop one reference, routing through the owning pool when there
        is one (so pool accounting stays exact) and decrementing in place
        for standalone buffers."""
        if self.pool is not None:
            self.pool.release(self)
            return
        if self.refcount <= 0:
            raise ResourceError("buffer already fully released")
        self.refcount -= 1


class BufferPool(Component):
    """Fixed-size buffer pool component (IBufferPool plug-in).

    Pools pre-carve *count* buffers of *buffer_size* bytes each from a
    conceptual arena; acquire/release recycle them without allocation.
    """

    PROVIDES = (Provided("pool", IBufferPool),)

    def __init__(
        self,
        buffer_size: int,
        count: int,
        *,
        exhaustion_policy: str = "raise",
    ) -> None:
        if buffer_size <= 0 or count <= 0:
            raise ResourceError("buffer_size and count must be positive")
        if exhaustion_policy not in EXHAUSTION_POLICIES:
            raise ResourceError(
                f"unknown exhaustion policy {exhaustion_policy!r} "
                f"(choose from {', '.join(EXHAUSTION_POLICIES)})"
            )
        self._size(buffer_size, count, exhaustion_policy)
        self._free.extend(Buffer(self, buffer_size) for _ in range(count))

    @classmethod
    def _unfilled(cls, buffer_size: int, count: int, policy: str) -> "BufferPool":
        """A pool sized for *count* buffers that holds none yet (a
        re-carve target): building it allocates nothing."""
        pool = cls.__new__(cls)
        pool._size(buffer_size, count, policy)
        return pool

    def _size(self, buffer_size: int, count: int, exhaustion_policy: str) -> None:
        self.buffer_size = buffer_size
        self.count = count
        self.exhaustion_policy = exhaustion_policy
        self._free: list[Buffer] = []
        self.acquired_total = 0
        self.released_total = 0
        self.exhaustion_events = 0
        #: Occupancy watermarks: the fewest free buffers ever observed
        #: (equivalently ``count - free_low_watermark`` is the in-flight
        #: high-water mark) — how close the pool came to exhaustion.
        self.free_low_watermark = count
        super().__init__()

    def acquire(self, size: int) -> Buffer | None:
        """Obtain a buffer of at least *size* bytes (refcount 1).

        Exhaustion follows the pool's policy (:meth:`_exhausted`).
        Oversize requests always raise — they are configuration errors,
        not load.
        """
        if size > self.buffer_size:
            raise ResourceError(
                f"requested {size} bytes exceeds pool buffer size {self.buffer_size}"
            )
        free = self._free
        if not free:
            return self._exhausted()
        buffer = free.pop()
        buffer.refcount = 1
        buffer.length = 0
        self.acquired_total += 1
        if len(free) < self.free_low_watermark:
            self.free_low_watermark = len(free)
        return buffer

    def acquire_into(self, data) -> Buffer | None:
        """Acquire a buffer and fill it with *data* in one body — the
        ingress materialisation primitive the NIC uses (one acquire, one
        write, per arriving frame).  Same size check, policy and counters
        as :meth:`acquire`."""
        size = len(data)
        if size > self.buffer_size:
            raise ResourceError(
                f"requested {size} bytes exceeds pool buffer size {self.buffer_size}"
            )
        free = self._free
        if not free:
            return self._exhausted()
        buffer = free.pop()
        buffer.refcount = 1
        buffer._data[:size] = data
        buffer.length = size
        self.acquired_total += 1
        if len(free) < self.free_low_watermark:
            self.free_low_watermark = len(free)
        return buffer

    def _exhausted(self) -> None:
        """One acquire found the pool empty: count it, then apply the
        policy — ``raise`` raises ResourceError (right for control-plane
        acquisition), ``drop-newest``/``backpressure`` return None so a
        datapath caller can drop or stall without unwinding mid-path."""
        self.exhaustion_events += 1
        if self.exhaustion_policy == "raise":
            raise ResourceError(
                f"buffer pool {self.name} exhausted ({self.count} buffers in flight)"
            )
        return None

    def release(self, buffer: Buffer) -> None:
        """Drop one reference; the buffer returns to the pool at zero."""
        if buffer.pool is not self:
            raise ResourceError("buffer released to the wrong pool")
        refs = buffer.refcount
        if refs == 1:
            buffer.refcount = 0
            self.released_total += 1
            self._free.append(buffer)
        elif refs > 1:
            buffer.refcount = refs - 1
        else:
            raise ResourceError("buffer already fully released")

    def stats(self) -> dict:
        """Pool occupancy statistics."""
        return {
            "buffer_size": self.buffer_size,
            "count": self.count,
            "free": len(self._free),
            "in_flight": self.count - len(self._free),
            "acquired_total": self.acquired_total,
            "released_total": self.released_total,
            "exhaustion_events": self.exhaustion_events,
            "exhaustion_policy": self.exhaustion_policy,
            "free_low_watermark": self.free_low_watermark,
            "in_flight_high_watermark": self.count - self.free_low_watermark,
        }

    @property
    def in_flight(self) -> int:
        """Buffers currently held by users."""
        return self.count - len(self._free)


def carve_shard_pools(
    buffer_size: int,
    count: int,
    shards: int,
    *,
    exhaustion_policy: str = "raise",
) -> list[BufferPool]:
    """Split one pool budget of *count* buffers into *shards* private
    :class:`BufferPool` slices (the remainder spread over the first
    pools, so slice sizes differ by at most one).

    This is the shard-local memory discipline of the sharded datapath:
    each forwarding worker acquires only from its own slice, so one
    shard's backlog can exhaust *its* slice (degrading by that slice's
    policy) without starving its peers, and the per-shard
    acquired==released audit stays meaningful.  :func:`shard_pool_audit`
    checks the lifecycle invariant per slice and in aggregate.
    """
    return [
        BufferPool(buffer_size, n, exhaustion_policy=exhaustion_policy)
        for n in _slice_counts(count, shards)
    ]


def _slice_counts(count: int, shards: int) -> list[int]:
    if shards <= 0:
        raise ResourceError(f"shards must be positive, got {shards}")
    if count < shards:
        raise ResourceError(
            f"cannot carve {count} buffers into {shards} non-empty slices"
        )
    base, extra = divmod(count, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def shard_pool_audit(pools: list[BufferPool]) -> dict:
    """Lifecycle audit over per-shard pool slices.

    Returns per-pool ``(acquired_total, released_total, in_flight)``
    rows plus aggregate totals and ``balanced`` — True when *every*
    slice has acquired == released and nothing in flight (the PR 4
    closed-lifecycle invariant, now required to hold per shard and in
    aggregate even when batches are processed by a stealing peer).
    """
    rows = [
        {
            "acquired_total": pool.acquired_total,
            "released_total": pool.released_total,
            "in_flight": pool.in_flight,
        }
        for pool in pools
    ]
    acquired = sum(row["acquired_total"] for row in rows)
    released = sum(row["released_total"] for row in rows)
    in_flight = sum(row["in_flight"] for row in rows)
    return {
        "pools": rows,
        "acquired_total": acquired,
        "released_total": released,
        "in_flight": in_flight,
        "balanced": all(
            row["acquired_total"] == row["released_total"]
            and row["in_flight"] == 0
            for row in rows
        ),
    }


def recarve_shard_pools(
    pools: list[BufferPool], shards: int
) -> tuple[list[BufferPool], dict]:
    """Re-carve the aggregate budget of *pools* into *shards* fresh
    slices — the elastic-resize pool hand-off — by :func:`plan_recarve`
    then :func:`rehome_buffers`: the budget's buffers *move* into the
    new slices, nothing is allocated.  Returns ``(new_pools, audit)``.
    """
    new_pools, audit = plan_recarve(pools, shards)
    rehome_buffers(pools, new_pools)
    return new_pools, audit


def plan_recarve(
    pools: list[BufferPool], shards: int
) -> tuple[list[BufferPool], dict]:
    """The half of a re-carve that can fail: prove the hand-off, size
    the new slices, move nothing.  Returns ``(new_pools, audit)``: fresh
    pools (zeroed counters, the sources' buffer size, the first pool's
    exhaustion policy) that stay empty until :func:`rehome_buffers`, and
    the :func:`shard_pool_audit` snapshot proving the hand-off.

    The hand-off must be *exact*: every incoming slice balanced
    (acquired == released and nothing in flight), because a buffer still
    held by the datapath belongs to a pool that is about to be retired
    and could never be returned.  Buffers only move between slices of
    one size.  An unbalanced slice or mixed buffer sizes raise
    ResourceError — the resize's apply step turns that into an abort and
    the round rolls back.
    """
    if not pools:
        raise ResourceError("recarve needs at least one source pool")
    audit = shard_pool_audit(pools)
    if not audit["balanced"]:
        raise ResourceError(
            "cannot re-carve: the hand-off requires acquired == released "
            "and in_flight == 0 on every slice, got "
            f"acquired={audit['acquired_total']} "
            f"released={audit['released_total']} "
            f"in_flight={audit['in_flight']}"
        )
    sizes = sorted({pool.buffer_size for pool in pools})
    if len(sizes) > 1:
        raise ResourceError(
            f"cannot re-carve slices of different buffer sizes {sizes}: "
            "buffers only move between slices of one size"
        )
    policy = pools[0].exhaustion_policy
    counts = _slice_counts(sum(pool.count for pool in pools), shards)
    return [BufferPool._unfilled(sizes[0], n, policy) for n in counts], audit


def rehome_buffers(pools: list[BufferPool], new_pools: list[BufferPool]) -> None:
    """The half of a re-carve that cannot fail: move the balanced
    *pools*' free buffers into the empty slices :func:`plan_recarve`
    sized, by re-pointing ``buffer.pool``.  The sources end empty and
    balanced (count 0, nothing in flight): a retired slice still audits."""
    free = [buffer for pool in pools for buffer in pool._free]
    for pool in pools:
        pool._free = []
        pool.count = pool.free_low_watermark = 0
    for pool in new_pools:
        pool._free, free = free[: pool.count], free[pool.count :]
        for buffer in pool._free:
            buffer.pool = pool


class BufferManagementCF(ComponentFramework):
    """CF accepting buffer-pool plug-ins and routing acquisitions.

    Pools are selected best-fit by buffer size; the CF therefore behaves as
    a segregated-fit allocator composed from pluggable pools, which is the
    bespoke-configuration story: an embedded profile plugs in one small
    pool, a core-router profile several large ones.
    """

    def __init__(self, *, exhaustion_policy: str = "raise") -> None:
        if exhaustion_policy not in EXHAUSTION_POLICIES:
            raise ResourceError(
                f"unknown exhaustion policy {exhaustion_policy!r} "
                f"(choose from {', '.join(EXHAUSTION_POLICIES)})"
            )
        #: Applied when *every* candidate pool is exhausted (individual
        #: pools may carry their own non-raising policies; the CF only
        #: decides what total exhaustion looks like to the caller).
        self.exhaustion_policy = exhaustion_policy
        super().__init__(rules=[ProvidesInterface(IBufferPool, min_count=1, max_count=1)])

    def add_pool(self, pool: BufferPool, *, principal: str = "system") -> BufferPool:
        """Accept a pool plug-in."""
        self.accept(pool, principal=principal)
        return pool

    def acquire(self, size: int) -> Buffer | None:
        """Acquire from the smallest pool that fits *size*.

        Falls through to larger pools when the best-fit pool is exhausted
        (whether the pool raised or returned None under its own policy);
        when every candidate is exhausted the CF's own exhaustion policy
        decides: ``raise`` re-raises (or raises a summary error), the
        datapath policies return None.
        """
        candidates = sorted(
            (
                plugin
                for plugin in self.plugins().values()
                if isinstance(plugin, BufferPool) and plugin.buffer_size >= size
            ),
            key=lambda p: p.buffer_size,
        )
        if not candidates:
            raise ResourceError(f"no pool can hold {size} bytes")
        last_error: ResourceError | None = None
        for pool in candidates:
            try:
                buffer = pool.acquire(size)
            except ResourceError as exc:
                last_error = exc
                continue
            if buffer is not None:
                return buffer
        if self.exhaustion_policy != "raise":
            return None
        if last_error is not None:
            raise last_error
        raise ResourceError(
            f"all {len(candidates)} candidate pools exhausted for {size} bytes"
        )

    def acquire_into(self, data) -> Buffer | None:
        """Best-fit :meth:`BufferPool.acquire_into` across the plugged-in
        pools (None when everything is exhausted under a non-raising CF
        policy)."""
        buffer = self.acquire(len(data))
        if buffer is not None:
            buffer.write(data)
        return buffer

    def total_stats(self) -> dict:
        """Aggregated statistics across all pools."""
        pools = [
            p for p in self.plugins().values() if isinstance(p, BufferPool)
        ]
        return {
            "pools": len(pools),
            "buffers": sum(p.count for p in pools),
            "free": sum(len(p._free) for p in pools),
            "in_flight": sum(p.in_flight for p in pools),
            "exhaustion_events": sum(p.exhaustion_events for p in pools),
        }
