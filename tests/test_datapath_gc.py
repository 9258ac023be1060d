"""No datapath lap makes cyclic garbage.

A released :class:`~repro.netsim.wire.WirePacket` drops its header
views, which breaks the packet ↔ view reference cycle, so every packet
is freed by refcount the moment its last holder lets go.  Before that,
every frame survived until the cyclic collector ran, and its pauses
landed in the burst latency of every workload.

Each test below drives one assembly through the public builders: a
warm-up lap (memo tables, lazily built state), ``gc.collect()``, then
one more lap with the collector off, after which ``gc.collect()`` must
find nothing unreachable.
"""

from __future__ import annotations

import gc

import pytest

from repro.netsim import WirePacket, make_udp_v4
from repro.opencom import Capsule, fuse_pipeline
from repro.osbase import (
    BufferPool,
    Nic,
    RoundRobinScheduler,
    ThreadManagerCF,
    VirtualClock,
    release_dropped,
)
from repro.router import (
    build_capsule_fleet,
    build_forwarding_pipeline,
    build_sharded_forwarding_datapath,
)

ROUTES = {"10.0.0.0/8": "east", "0.0.0.0/0": "west"}


def frames(count: int, *, hostile: bool = False) -> list[bytes]:
    """Raw UDP frames over a few dozen flows, mixed sizes; with
    *hostile*, every 11th frame each has TTL 1, a bad IPv4 checksum or a
    truncated header."""
    out = []
    for i in range(count):
        kind = i % 11 if hostile else None
        frame = make_udp_v4(
            f"10.1.{i % 7}.{i % 251}",
            f"10.2.{i % 5}.{i % 13}",
            sport=1000 + i % 17,
            dport=53,
            ttl=1 if kind == 3 else 64,
            payload=bytes(18 + (i * 37) % 1400),
        ).to_bytes()
        if kind == 5:
            frame = frame[:10] + bytes([frame[10] ^ 0x55]) + frame[11:]
        elif kind == 7:
            frame = frame[:9]
        out.append(frame)
    return out


def assert_no_cyclic_garbage(lap) -> None:
    lap()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        lap()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_nic_fused_pipeline_tx_lap():
    pool = BufferPool(2048, 128, exhaustion_policy="drop-newest")
    nic = Nic(rx_ring_size=64, pool=pool)
    pipeline = build_forwarding_pipeline(
        Capsule("gc-spine"),
        routes=ROUTES,
        tx_nics={hop: Nic(tx_ring_size=128) for hop in ("east", "west")},
    )
    fuse_pipeline(list(pipeline.capsule.components().values()))
    burst = frames(64)

    def lap():
        for frame in burst:
            nic.receive_frame(frame)
        while nic.rx_depth:
            batch: list = []
            nic.drain_rx(batch.append, budget=32)
            pipeline.push_batch(batch)
            pipeline.flush_tx(handler=release_dropped)

    assert_no_cyclic_garbage(lap)
    assert pool.acquired_total == 128 and pool.in_flight == 0


def test_sharded_box_lap_with_resize_and_interceptor():
    datapath = build_sharded_forwarding_datapath(
        routes=ROUTES,
        shards=8,
        threads=ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler()),
        fused=True,
        buckets=64,
        rx_ring_size=256,
        pool_buffers=512,
        tx_handler=lambda index: release_dropped,
    )
    burst = frames(256)
    # A resize retires whole shards and re-carves every pool: component
    # graphs, cyclic by construction (component ↔ interface ↔ vtable),
    # one set per round rather than per frame.  Holding them keeps this
    # test about what the frames leave behind.
    retired: list = []

    def resize(n: int) -> None:
        retired.append(list(datapath.shards))
        retired.append([shard.pool for shard in datapath.shards])
        datapath.resize(n)

    def spy(ctx) -> None:
        pass

    def lap():
        datapath.steer_batch(burst)
        resize(4)
        datapath.pump()
        datapath.steer_batch(burst)
        resize(8)
        vtable = datapath.shards[0].engine.stages["forwarder"].interface("in0").vtable
        vtable.add_pre("push", "gc-spy", spy)
        datapath.pump()
        vtable.remove_interceptor("push", "gc-spy")

    try:
        assert_no_cyclic_garbage(lap)
        assert datapath.total_backlog() == 0
    finally:
        datapath.shutdown()


def test_fleet_lap_with_hostile_frames():
    fleet = build_capsule_fleet(
        2, routes=ROUTES, shards=2, tx_handler=lambda capsule, index: release_dropped
    )
    burst = frames(220, hostile=True)

    def lap():
        for frame in burst:
            fleet.ingest(frame)
        fleet.pump()

    try:
        assert_no_cyclic_garbage(lap)
        # Every hostile kind made it into the lap: 20 truncated frames
        # per lap die at the edge, the rest crossed the links.
        assert fleet.counters["malformed"] == 2 * 20
        assert fleet.counters["forwarded"] == 2 * 200
        drops = [
            shard.engine.stages["ipv4"].counters
            for node in fleet.capsules.values()
            for shard in node.datapath.shards
        ]
        assert sum(c["drop:ttl-expired"] for c in drops) == 2 * 20
        assert sum(c["drop:bad-checksum"] for c in drops) == 2 * 20
    finally:
        for node in fleet.capsules.values():
            node.datapath.shutdown()


def test_released_packet_has_no_headers():
    packet = WirePacket.from_wire(make_udp_v4("10.0.0.1", "10.0.0.2").to_bytes())
    assert packet.net.ttl == 64
    packet.release()
    with pytest.raises(AttributeError):
        packet.net.ttl
    assert packet.transport is None
