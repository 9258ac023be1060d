"""Differential suite: batch steering against a frame-at-a-time reference.

``ShardedDatapath.steer_batch`` hashes each frame once, groups the
frames per shard in arrival order and hands each group to its shard NIC
in one ``receive_batch``.  The reference here is the steering loop as it
was written before batching, kept test-local: hash one frame, walk the
park/redirect chain, ``receive_frame`` on the target NIC, count.  Random
batches mix valid raw bytes, ``Packet`` and ``WirePacket`` frames with
malformed frames (empty, truncated IPv4, truncated UDP, version 1, an
IPv4 header length other than 5 words) and over-MTU frames; small rings and pool slices overflow and exhaust part
way through a batch, under each pool exhaustion policy, with and without
a parked bucket and a redirected bucket.  Both sides must end with the
same per-shard ring contents (order and bytes), park lists, NIC
counters, steering counters and pool counters — and balanced pools once
everything is pumped.

Two example budgets ship with the suite, selected by the
``REPRO_PROPERTY_PROFILE`` environment variable: ``bounded`` (the
default — tier-1 runs it) and ``full`` (``benchmarks/run_all.py``'s
exhaustive profile).  The module is marked ``slow`` so the property
suites stay deselectable (``-m "not slow"``).
"""

from os import environ
from struct import pack

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim import WirePacket, make_udp_v4, to_wire
from repro.opencom.errors import ResourceError
from repro.osbase import (
    EXHAUSTION_POLICIES,
    RoundRobinScheduler,
    ThreadManagerCF,
    VirtualClock,
    carve_shard_pools,
    release_dropped,
    shard_pool_audit,
)
from repro.router import build_sharded_forwarding_datapath

pytestmark = pytest.mark.slow

_PROFILES = {"bounded": 200, "full": 1000}
_PROFILE = environ.get("REPRO_PROPERTY_PROFILE", "bounded")
_SETTINGS = settings(
    max_examples=_PROFILES.get(_PROFILE, _PROFILES["bounded"]),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ROUTES = {"10.0.0.0/8": "east", "0.0.0.0/0": "west"}
SHARDS = 3
BUCKETS = 6
FLOWS = [(f"10.8.{i}.1", 4000 + 29 * i) for i in range(8)]
PARKED, REDIRECTED, SUCCESSOR = 1, 2, 0


def udp(flow, seq, payload_size=0):
    src, sport = flow
    payload = pack("!I", seq) + bytes(payload_size)
    return make_udp_v4(src, "10.9.9.9", sport=sport, dport=80, payload=payload)


def make_frame(kind, flow, seq):
    """A fresh frame object (each datapath gets its own: a WirePacket
    lives on one NIC ring, and dropping it releases it)."""
    if kind == "raw":
        return udp(flow, seq).to_bytes()
    if kind == "packet":
        return udp(flow, seq)
    if kind == "wire":
        return to_wire(udp(flow, seq))
    if kind == "over-mtu":
        return udp(flow, seq, payload_size=1600).to_bytes()
    if kind == "over-mtu-packet":
        return udp(flow, seq, payload_size=1600)
    if kind == "empty":
        return b""
    if kind == "truncated-v4":
        return udp(flow, seq).to_bytes()[:12]
    if kind == "truncated-udp":
        return udp(flow, seq).to_bytes()[:24]
    if kind.startswith("ihl-"):
        # Byte 0 declares a header of IHL words: options (or too short).
        raw = bytearray(udp(flow, seq).to_bytes())
        raw[0] = 0x40 | int(kind[4:])
        return bytes(raw)
    assert kind == "version-1"
    raw = bytearray(udp(flow, seq).to_bytes())
    raw[0] = 0x15
    return bytes(raw)


KINDS = [
    "raw", "packet", "wire", "over-mtu", "over-mtu-packet",
    "empty", "truncated-v4", "truncated-udp", "version-1",
    "ihl-4", "ihl-6", "ihl-15",
]  # fmt: skip

arrivals = st.lists(
    st.tuples(
        # Valid frames dominate, as on a real link.
        st.one_of(st.sampled_from(KINDS[:3]), st.sampled_from(KINDS)),
        st.sampled_from(FLOWS),
    ),
    max_size=48,
)
cases = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(EXHAUSTION_POLICIES),
        "ring": st.integers(min_value=1, max_value=8),
        "slice": st.integers(min_value=1, max_value=8),
        "parked": st.booleans(),
        "redirected": st.booleans(),
        "batches": st.lists(arrivals, min_size=1, max_size=3),
    }
)


def releasing_handler(shard_index):
    return release_dropped


def build(case):
    datapath = build_sharded_forwarding_datapath(
        routes=ROUTES,
        shards=SHARDS,
        threads=ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler()),
        pools=carve_shard_pools(
            256, case["slice"] * SHARDS, SHARDS, exhaustion_policy=case["policy"]
        ),
        batch=4,
        rx_ring_size=case["ring"],
        tx_handler=releasing_handler,
        supervise=False,
        buckets=BUCKETS,
    )
    if case["redirected"]:
        datapath.recover_shard(REDIRECTED, to=SUCCESSOR)
    if case["parked"]:
        assert datapath.recovery_action_set().quiesce(
            {"shard": PARKED, "to": SUCCESSOR}
        )
    return datapath


def reference_steer_batch(datapath, frames):
    """Frame-at-a-time steering, as the loop read before batching."""
    steering = datapath.steering
    accepted = 0
    for frame in frames:
        try:
            index = steering.table[steering.hash_fn(frame) % steering.buckets]
        except steering.reject:
            steering.malformed += 1
            continue
        if deliver_one(datapath, index, frame):
            steering.steered[index] += 1
            accepted += 1
        else:
            steering.refused[index] += 1
    return accepted


def deliver_one(datapath, index, frame):
    """One frame through the park/redirect walk to a NIC."""
    target, seen = index, set()
    while True:
        parked = datapath._parked.get(target)
        if parked is not None:
            parked.append(frame)
            return True
        successor = datapath._redirect.get(target)
        if successor is None or successor in seen:
            break
        seen.add(target)
        target = successor
    return datapath.shards[target].nic.receive_frame(frame)


def outcome(steer):
    try:
        return steer()
    except ResourceError as exc:
        return type(exc)


def wire_bytes(frame):
    if isinstance(frame, WirePacket):
        return ("wire", bytes(frame.wire_view()))
    if isinstance(frame, bytes):
        return ("raw", frame)
    return ("packet", frame.to_bytes())


def snapshot(datapath):
    steering = datapath.steering
    return {
        "rings": [[wire_bytes(f) for f in s.nic._rx] for s in datapath.shards],
        "parked": {k: [wire_bytes(f) for f in v] for k, v in datapath._parked.items()},
        "nic": [dict(s.nic.counters) for s in datapath.shards],
        "steered": list(steering.steered),
        "refused": list(steering.refused),
        "malformed": steering.malformed,
        "pools": [
            (p.acquired_total, p.released_total, p.exhaustion_events,
             p.free_low_watermark, p.in_flight)
            for p in (s.pool for s in datapath.shards)
        ],  # fmt: skip
    }


def settle(datapath, case):
    """Pump, roll the parked round back, pump again: every buffer home."""
    datapath.pump()
    if case["parked"]:
        try:
            datapath.recovery_action_set().abort({"shard": PARKED})
        except ResourceError:
            pass  # a raise-policy slice ran dry while unparking
        datapath.pump()
    audit = shard_pool_audit([shard.pool for shard in datapath.shards])
    datapath.shutdown()
    return audit


class TestBatchSteeringDifferential:
    @_SETTINGS
    @given(case=cases)
    def test_batch_steering_matches_frame_at_a_time(self, case):
        batched, reference = build(case), build(case)
        for batch in case["batches"]:
            frames = [make_frame(kind, flow, seq) for seq, (kind, flow) in enumerate(batch)]
            twins = [make_frame(kind, flow, seq) for seq, (kind, flow) in enumerate(batch)]
            got = outcome(lambda: batched.steer_batch(frames))
            want = outcome(lambda: reference_steer_batch(reference, twins))
            assert got == want
            assert snapshot(batched) == snapshot(reference)
        for datapath in (batched, reference):
            audit = settle(datapath, case)
            assert audit["balanced"], audit
