"""Buffer-lifecycle balance audit: every topology, every drop path.

The pooled datapath's invariant is mechanical: each packet's buffer is
acquired exactly once (here: trace materialisation onto the pool) and
released exactly once — by whichever component ends the packet's life,
whether that is a drop path (bad checksum, TTL expiry, no route, queue
overflow) or a recycling terminal sink.  This audit runs a *mixed*
drop/forward trace through all four router topologies (CF vtable, CF
fused, Click-style, monolithic) and asserts the pool books balance:
``acquired_total == released_total`` and the free list recovers in full.

A topology that leaks (a drop path missing ``release_dropped``, a sink
retaining silently past its bound) fails on the free-list check; a
double release fails earlier with ResourceError inside the run.
"""

import pytest

from repro.baselines import ClickRouter, MonolithicRouter, standard_click_config
from repro.netsim import ipv4, make_udp_v4, to_wire
from repro.opencom import Capsule, fuse_pipeline
from repro.osbase import BufferPool
from repro.router import CollectorSink, DropSink, build_forwarding_pipeline

ROUTES = {
    "10.1.0.0/16": "east",
    "10.2.0.0/16": "west",
}
TRACE_LEN = 120
QUEUE_CAPACITY = 8  # small on purpose: the baselines must overflow


def build_mixed_trace(pool):
    """TRACE_LEN pooled wire packets cycling through four fates:
    forwardable, bad checksum, TTL-expired, and no-route."""
    packets = []
    bases = ["10.1.0.5", "10.2.0.7"]
    for i in range(TRACE_LEN):
        wire = to_wire(
            make_udp_v4("10.255.0.1", bases[i % 2], payload=bytes(32)), pool=pool
        )
        fate = i % 4
        if fate == 1:
            # Corrupt the stored checksum in place: dropped at the header
            # processor / CheckIPHeader / inlined validation.
            wire.net.checksum = wire.net.checksum ^ 0x5555
        elif fate == 2:
            wire.net.ttl = 1
            wire.net.refresh_checksum()
        elif fate == 3:
            # Incremental rewrite keeps the checksum valid, so the packet
            # survives validation and dies at the route lookup instead.
            wire.net.rewrite_dst(ipv4("203.0.113.9"))
        packets.append(wire)
    return packets


def assert_books_balance(pool, *, forwarded, dropped):
    assert forwarded > 0, "audit trace must actually forward packets"
    assert dropped > 0, "audit trace must actually drop packets"
    assert pool.acquired_total == pool.released_total == TRACE_LEN
    stats = pool.stats()
    assert stats["free"] == stats["count"]
    assert stats["in_flight"] == 0


def make_pool():
    return BufferPool(128, TRACE_LEN + 4)


@pytest.mark.parametrize("fused", [False, True], ids=["cf-vtable", "cf-fused"])
@pytest.mark.parametrize("sink_kind", ["recycling-collector", "drop-sink"])
def test_cf_pipeline_books_balance(fused, sink_kind):
    pool = make_pool()
    capsule = Capsule("audit")
    hops = sorted(set(ROUTES.values()))
    if sink_kind == "recycling-collector":
        sinks = {
            hop: capsule.instantiate(
                lambda: CollectorSink(recycle=True), f"sink:{hop}"
            )
            for hop in hops
        }
    else:
        sinks = {
            hop: capsule.instantiate(DropSink, f"sink:{hop}") for hop in hops
        }
    pipeline = build_forwarding_pipeline(
        capsule, routes=ROUTES, next_hop_sinks=sinks
    )
    if fused:
        fuse_pipeline(list(capsule.components().values()))
    trace = build_mixed_trace(pool)
    pipeline.push_batch(trace)
    forwarded = sum(sink.collected_count() for sink in sinks.values())
    stats = pipeline.stage_stats()
    dropped = sum(
        count
        for stage in stats.values()
        for key, count in stage.items()
        if key.startswith("drop:")
    )
    assert forwarded + dropped == TRACE_LEN
    assert_books_balance(pool, forwarded=forwarded, dropped=dropped)


def test_click_router_books_balance():
    pool = make_pool()
    router = ClickRouter(
        standard_click_config(
            routes=ROUTES, queue_capacity=QUEUE_CAPACITY, recycle_sinks=True
        )
    )
    trace = build_mixed_trace(pool)
    router.push_batch(trace)
    router.service(budget=TRACE_LEN)
    forwarded = sum(
        element.counters.get("rx", 0)
        for name, element in router.elements.items()
        if name.startswith("sink-")
    )
    dropped = sum(
        count
        for element in router.elements.values()
        for key, count in element.counters.items()
        if key.startswith("drop:")
    )
    assert forwarded + dropped == TRACE_LEN
    # The tiny queues must have overflowed: that drop path is audited too.
    overflowed = sum(
        element.counters.get("drop:overflow", 0)
        for element in router.elements.values()
    )
    assert overflowed > 0
    assert_books_balance(pool, forwarded=forwarded, dropped=dropped)


def test_monolithic_router_books_balance():
    pool = make_pool()
    router = MonolithicRouter(
        ROUTES, queue_capacity=QUEUE_CAPACITY, recycle_delivered=True
    )
    trace = build_mixed_trace(pool)
    router.push_batch(trace)
    router.service(budget=TRACE_LEN)
    forwarded = router.counters["tx"]
    dropped = sum(
        count for key, count in router.counters.items() if key.startswith("drop:")
    )
    assert forwarded + dropped == TRACE_LEN
    assert router.counters["drop:overflow"] > 0
    assert_books_balance(pool, forwarded=forwarded, dropped=dropped)


def test_scalar_push_path_books_balance():
    """The per-packet (non-batched) dispatch path balances too."""
    pool = make_pool()
    capsule = Capsule("audit-scalar")
    sinks = {
        hop: capsule.instantiate(lambda: CollectorSink(recycle=True), f"s:{hop}")
        for hop in sorted(set(ROUTES.values()))
    }
    pipeline = build_forwarding_pipeline(capsule, routes=ROUTES, next_hop_sinks=sinks)
    for wire in build_mixed_trace(pool):
        pipeline.push(wire)
    assert pool.acquired_total == pool.released_total == TRACE_LEN
    assert pool.stats()["in_flight"] == 0


@pytest.mark.allow_pool_leak
def test_collector_keep_bound_releases_overflow():
    """Regression: a keep-bounded CollectorSink silently dropped the
    packets it did not retain without returning their buffers."""
    pool = make_pool()
    sink = CollectorSink(keep=3)
    trace = [
        to_wire(make_udp_v4("10.0.0.1", "10.0.0.2", payload=bytes(16)), pool=pool)
        for _ in range(10)
    ]
    sink.push_batch(trace[:5])
    for wire in trace[5:]:
        sink.push(wire)
    assert len(sink.packets) == 3
    assert sink.collected_count() == 10
    # The three retained packets hold buffers; the other seven returned.
    assert pool.stats()["in_flight"] == 3


class TestRecarveHandoff:
    """Elastic-resize pool hand-off: re-carving is only legal when every
    slice's books balance, and every re-carve across a live resize keeps
    acquired == released per slice."""

    def test_recarve_preserves_budget_and_audits(self):
        from repro.osbase import carve_shard_pools, recarve_shard_pools

        pools = carve_shard_pools(128, 10, 3)
        new_pools, audit = recarve_shard_pools(pools, 4)
        assert audit["balanced"]
        assert len(new_pools) == 4
        assert sum(p.count for p in new_pools) == 10
        # Remainder spread over the first slices, sizes differ by <= 1.
        assert [p.count for p in new_pools] == [3, 3, 2, 2]
        assert all(p.buffer_size == 128 for p in new_pools)
        assert all(p.exhaustion_policy == "raise" for p in new_pools)

    def test_recarve_refuses_held_buffer(self):
        from repro.opencom.errors import ResourceError
        from repro.osbase import carve_shard_pools, recarve_shard_pools

        pools = carve_shard_pools(128, 8, 2)
        held = pools[1].acquire(16)
        with pytest.raises(ResourceError, match="in_flight"):
            recarve_shard_pools(pools, 4)
        pools[1].release(held)
        new_pools, _ = recarve_shard_pools(pools, 4)
        assert sum(p.count for p in new_pools) == 8

    def test_recarve_refuses_empty_input(self):
        from repro.opencom.errors import ResourceError
        from repro.osbase import recarve_shard_pools

        with pytest.raises(ResourceError, match="at least one"):
            recarve_shard_pools([], 2)

    def test_recarve_moves_buffers_and_empties_the_sources(self):
        from repro.osbase import (
            DATAPATH_LEDGER,
            carve_shard_pools,
            recarve_shard_pools,
            shard_pool_audit,
        )

        pools = carve_shard_pools(128, 10, 3)
        budget = {id(b) for pool in pools for b in pool._free}
        before = DATAPATH_LEDGER.snapshot()
        new_pools, _ = recarve_shard_pools(pools, 4)
        assert DATAPATH_LEDGER.delta(before)["allocations"] == 0
        assert {id(b) for pool in new_pools for b in pool._free} == budget
        assert all(b.pool is pool for pool in new_pools for b in pool._free)
        assert all(
            p.acquired_total == p.released_total == 0 and p.free_low_watermark == p.count
            for p in new_pools
        )
        # The retired sources are empty and still audit balanced.
        assert [p.count for p in pools] == [0, 0, 0]
        assert shard_pool_audit(pools)["balanced"]

    def test_recarve_refuses_mixed_buffer_sizes(self):
        """Buffers only move between slices of one size: a mixed-size
        slice set is refused (it used to be silently re-allocated at the
        widest size, growing the byte budget), and a resize over it
        aborts with the original slices intact."""
        from repro.opencom.errors import ResourceError
        from repro.osbase import ShardingError, recarve_shard_pools

        pools = [BufferPool(128, 4), BufferPool(256, 4)]
        with pytest.raises(ResourceError, match=r"sizes \[128, 256\]"):
            recarve_shard_pools(pools, 2)
        assert all(len(p._free) == 4 and p.count == 4 for p in pools)

        datapath, _released = build_elastic_datapath(
            2, 64, pools=[BufferPool(128, 32), BufferPool(256, 32)]
        )
        original = [shard.pool for shard in datapath.shards]
        with pytest.raises(ShardingError, match=r"aborted.*\[128, 256\]"):
            datapath.resize(3)
        assert [shard.pool for shard in datapath.shards] == original
        assert all(len(p._free) == p.count == 32 for p in original)
        assert not datapath.stats()["resize_pending"]
        datapath.shutdown()


def build_elastic_datapath(shards, pool_total, *, buckets=16, pools=None):
    from repro.osbase import RoundRobinScheduler, ThreadManagerCF, VirtualClock
    from repro.router import build_sharded_forwarding_datapath

    released = []

    def tx_handler(index):
        def on_frame(frame):
            released.append(index)
            frame.release()

        return on_frame

    datapath = build_sharded_forwarding_datapath(
        routes=ROUTES,
        shards=shards,
        threads=ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler()),
        batch=4,
        rx_ring_size=512,
        buffer_size=128,
        pool_buffers=pool_total,
        pools=pools,
        tx_handler=tx_handler,
        buckets=buckets,
    )
    return datapath, released


def mixed_elastic_trace(count, *, start=0):
    """Raw forward/drop mixed frames across several flows (the datapath
    materialises them onto the shard slices at NIC ingress)."""
    frames = []
    for i in range(count):
        flow = i % 6
        packet = make_udp_v4(
            "10.255.0.1",
            f"10.{1 + flow % 2}.0.{5 + flow}",
            sport=4000 + flow,
            payload=bytes(16),
        )
        if i % 5 == 4:
            packet.net.ttl = 1
            packet.net.refresh_checksum()
        frames.append(packet.to_bytes())
    return frames


def test_books_balance_across_every_recarve():
    """acquired == released per slice across a grow and a shrink, with
    mixed drop/forward traffic between every re-carve."""
    from repro.osbase import shard_pool_audit

    datapath, _released = build_elastic_datapath(2, 64)
    audits = []
    for target in (4, 3, 2):
        datapath.steer_batch(mixed_elastic_trace(60))
        datapath.pump()
        record = datapath.resize(target)
        # The hand-off audit the apply step took mid-round: every slice
        # individually balanced at the moment the budget moved pools.
        audits.append(record["pool_handoff"])
        assert record["pool_handoff"]["balanced"]
        for row in record["pool_handoff"]["pools"]:
            assert row["acquired_total"] == row["released_total"]
            assert row["in_flight"] == 0
    datapath.steer_batch(mixed_elastic_trace(60))
    datapath.pump()
    final = shard_pool_audit([shard.pool for shard in datapath.shards])
    assert final["balanced"]
    # Each re-carve saw strictly more lifecycle traffic than the last.
    acquired = [audit["acquired_total"] for audit in audits]
    assert acquired[0] > 0
    datapath.shutdown()


def test_resizes_move_one_buffer_budget_and_allocate_nothing():
    """A re-carve moves buffers instead of allocating them: the same
    Buffer objects serve every slice set across a grow and a shrink, no
    resize records an allocation (not even while draining a live
    backlog), and every retired slice ends empty and balanced."""
    from repro.osbase import DATAPATH_LEDGER, shard_pool_audit

    datapath, _released = build_elastic_datapath(2, 64)

    def budget():
        return {id(b) for shard in datapath.shards for b in shard.pool._free}

    datapath.steer_batch(mixed_elastic_trace(60))
    datapath.pump()
    original = budget()
    assert len(original) == 64
    for target in (4, 2):
        retiring = [shard.pool for shard in datapath.shards]
        datapath.steer_batch(mixed_elastic_trace(30))
        assert datapath.total_backlog() > 0
        before = DATAPATH_LEDGER.snapshot()
        datapath.resize(target)
        assert DATAPATH_LEDGER.delta(before)["allocations"] == 0
        assert budget() == original
        assert all(pool.count == 0 for pool in retiring)
        assert shard_pool_audit(retiring)["balanced"]
    datapath.shutdown()


def test_aborted_resize_rolls_back_with_books_intact():
    """A resize that aborts mid-round (held buffer fails the exact
    hand-off) must leave the original slices live and balanced."""
    from repro.osbase import ShardingError, shard_pool_audit

    datapath, _released = build_elastic_datapath(2, 64)
    datapath.steer_batch(mixed_elastic_trace(40))
    datapath.pump()
    original_pools = [shard.pool for shard in datapath.shards]
    held = original_pools[0].acquire(32)
    with pytest.raises(ShardingError, match="aborted"):
        datapath.resize(4)
    # Same pools, no round pending, nothing parked.
    assert [shard.pool for shard in datapath.shards] == original_pools
    assert datapath.parked_count() == 0
    original_pools[0].release(held)
    # Traffic keeps balancing on the rolled-back slices...
    datapath.steer_batch(mixed_elastic_trace(40, start=40))
    datapath.pump()
    assert shard_pool_audit(original_pools)["balanced"]
    # ...and the retried resize completes with an exact hand-off.
    record = datapath.resize(4)
    assert record["pool_handoff"]["balanced"]
    datapath.steer_batch(mixed_elastic_trace(40, start=80))
    datapath.pump()
    assert shard_pool_audit([shard.pool for shard in datapath.shards])["balanced"]
    datapath.shutdown()


def test_aborted_reconfig_round_resize_unparks_without_leaks():
    """The two-phase abort path: quiesce parks live traffic, rollback
    returns it to the rings, and the books still balance end-to-end."""
    from repro.osbase import shard_pool_audit

    datapath, _released = build_elastic_datapath(2, 64)
    actions = datapath.resize_action_set()
    assert actions.quiesce({"shards": 4})
    trace = mixed_elastic_trace(30)
    datapath.steer_batch(trace)
    assert datapath.parked_count() == len(trace)
    actions.rollback({"shards": 4})
    actions.resume({"shards": 4})
    datapath.pump()
    assert datapath.total_backlog() == 0
    assert shard_pool_audit([shard.pool for shard in datapath.shards])["balanced"]
    datapath.shutdown()
