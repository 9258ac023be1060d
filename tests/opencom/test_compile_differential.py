"""Differential equivalence suite for the compiled hot path (C17).

Randomised traces, pipeline configurations and mid-stream reflection /
reconfiguration schedules run against compiled pipelines, with the
interpreted pipeline as the sequential oracle: whatever the schedule,

- egress is byte-for-byte identical per sink (headers, payloads,
  metadata),
- every stage's counter dict is identical — including which keys exist,
- the copy ledger agrees exactly, except that the specialised
  arithmetic-checksum kernel may record *fewer* header materialisations
  (never more),
- every revocation lands on the interpreted path (a revoked plan never
  handles another batch specialised),
- a fused pull port drains a queue exactly as the interpreted queue
  does, across interceptor attach/detach, and
- the sharded form keeps per-flow byte-for-byte egress and balanced
  pooled-buffer books across live resizes.

Two example budgets ship with the suite, selected by the
``REPRO_PROPERTY_PROFILE`` environment variable: ``bounded`` (the
default — tier-1 runs it through ``run_all.py --smoke``) and ``full``
(the bench harness's exhaustive profile).  The module is marked
``slow`` so the property suites stay deselectable (``-m "not slow"``).
"""

from collections import defaultdict
from os import environ
from struct import pack

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim import make_udp_v4, make_udp_v6
from repro.opencom import CallCounter, Capsule
from repro.osbase import (
    RoundRobinScheduler,
    ShardingError,
    ThreadManagerCF,
    VirtualClock,
    carve_shard_pools,
    release_dropped,
)
from repro.osbase.memory import DATAPATH_LEDGER
from repro.router import (
    FifoQueue,
    PriorityLinkScheduler,
    build_forwarding_pipeline,
    build_sharded_forwarding_datapath,
)

pytestmark = pytest.mark.slow

_PROFILES = {"bounded": 40, "full": 250}
_PROFILE = environ.get("REPRO_PROPERTY_PROFILE", "bounded")
_SETTINGS = settings(
    max_examples=_PROFILES.get(_PROFILE, _PROFILES["bounded"]),
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

ROUTED = {"10.0.0.0/8": "east", "10.128.0.0/9": "west"}
DEFAULTED = {**ROUTED, "0.0.0.0/0": "north"}

# -- packet specs: built twice so DUT and oracle age identical twins --------

KINDS = ("fwd", "fwd", "fwd", "badsum", "expired", "v6", "stray")


def build_packet(spec):
    kind, i = spec
    if kind == "v6":
        return make_udp_v6("2001:db8::1", f"2001:db8::{(i % 250) + 1:x}", dport=i % 90)
    # "stray" misses every prefix: dropped without a default route,
    # forwarded to it otherwise.
    dst = f"172.16.{i % 9}.1" if kind == "stray" else f"10.{i % 250}.0.9"
    ttl = 1 if kind == "expired" else 32
    packet = make_udp_v4("10.255.0.1", dst, dport=i % 90, ttl=ttl)
    if kind == "badsum":
        packet.net.checksum ^= 0x5555
    return packet


packet_specs = st.tuples(
    st.sampled_from(KINDS), st.integers(min_value=0, max_value=10_000)
)

#: A stream is batches of specs with a reflection/reconfiguration event
#: (or none) between consecutive batches.
EVENTS = (
    "none",
    "intercept-recogniser",
    "intercept-ipv4",
    "intercept-forwarder",
    "detach",
    "decompile",
    "recompile",
)
stream = st.lists(
    st.tuples(
        st.lists(packet_specs, min_size=0, max_size=8),
        st.sampled_from(EVENTS),
    ),
    min_size=1,
    max_size=6,
)

STAGE_OF = {
    "intercept-recogniser": "recogniser",
    "intercept-ipv4": "ipv4",
    "intercept-forwarder": "forwarder",
}


def egress(pipeline):
    out = {}
    for name, sink in pipeline.stages.items():
        if not name.startswith("sink:"):
            continue
        out[name] = [
            (
                type(p.net).__name__,
                p.net.src,
                p.net.dst,
                getattr(p.net, "ttl", None),
                getattr(p.net, "hop_limit", None),
                getattr(p.net, "checksum", None),
                p.payload,
                dict(p.metadata),
            )
            for p in sink.packets
        ]
    return out


class TestPushChainDifferential:
    @_SETTINGS
    @given(
        batches=stream,
        validate=st.booleans(),
        with_default=st.booleans(),
    )
    def test_compiled_equals_interpreted(self, batches, validate, with_default):
        routes = DEFAULTED if with_default else ROUTED
        dut = build_forwarding_pipeline(
            Capsule("dut"), routes=routes,
            validate_checksums=validate, compiled=True,
        )
        oracle = build_forwarding_pipeline(
            Capsule("oracle"), routes=routes, validate_checksums=validate
        )
        interceptors = []
        dut_copies = oracle_copies = 0
        for specs, event in batches:
            before = DATAPATH_LEDGER.snapshot()
            dut.push_batch([build_packet(s) for s in specs])
            dut_copies += DATAPATH_LEDGER.delta(before)["copies"]
            before = DATAPATH_LEDGER.snapshot()
            oracle.push_batch([build_packet(s) for s in specs])
            oracle_copies += DATAPATH_LEDGER.delta(before)["copies"]

            stage = STAGE_OF.get(event)
            if stage is not None:
                plan = dut.compiled_plan
                interceptors.append(
                    CallCounter().attach_to(dut.stages[stage].interface("in0"))
                )
                # Reflection anywhere in the region revokes: the next
                # batch lands interpreted.
                if plan is not None:
                    assert plan.revoked
                assert not dut.compiled_active
            elif event == "detach":
                for interceptor in interceptors:
                    interceptor.detach()
                interceptors.clear()
            elif event == "decompile":
                dut.decompile()
                assert not dut.compiled_active
            elif event == "recompile":
                # Rebuilding over a still-intercepted region must refuse
                # (strict=False: stays interpreted), and succeed again
                # once the region is clean.
                plan = dut.compile(strict=False)
                if interceptors:
                    assert plan is None and not dut.compiled_active
                else:
                    assert plan is not None and dut.compiled_active

        assert egress(dut) == egress(oracle)
        assert dut.stage_stats() == oracle.stage_stats()
        # The only permitted ledger divergence: the specialised kernel
        # materialises fewer headers, never more.
        assert dut_copies <= oracle_copies


class TestPullDifferential:
    """The pull side is not compiled: ports fuse pull slots through
    ``watch_pull_batch_slot``.  A fused ``Port.pull_batch`` must drain a
    queue exactly as the interpreted queue's own ``pull_batch`` does,
    whatever interceptors come and go between pulls."""

    @_SETTINGS
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.integers(min_value=0, max_value=6)),
                st.tuples(st.just("pull"), st.integers(min_value=0, max_value=8)),
                st.tuples(st.just("intercept"), st.just(0)),
                st.tuples(st.just("detach"), st.just(0)),
            ),
            min_size=1,
            max_size=12,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    def test_fused_port_pull_equals_interpreted(self, ops, capacity):
        capsule = Capsule("dut")
        scheduler = capsule.instantiate(
            lambda: PriorityLinkScheduler(["q"]), "sched"
        )
        queue = capsule.instantiate(lambda: FifoQueue(capacity), "q")
        reference = Capsule("oracle").instantiate(
            lambda: FifoQueue(capacity), "q"
        )
        capsule.bind(
            scheduler.receptacle("inputs"), queue.interface("pull0"),
            connection_name="q",
        )
        port = scheduler.receptacle("inputs").port("q")
        port.fuse()
        interceptor = None
        serial = 0
        for kind, arg in ops:
            if kind == "push":
                specs = [("fwd", serial + i) for i in range(arg)]
                serial += arg
                queue.push_batch([build_packet(s) for s in specs])
                reference.push_batch([build_packet(s) for s in specs])
            elif kind == "pull":
                got = port.pull_batch(arg)
                expected = reference.pull_batch(arg)
                assert [p.transport.dport for p in got] == [
                    p.transport.dport for p in expected
                ]
            elif kind == "intercept" and interceptor is None:
                interceptor = CallCounter().attach_to(queue.interface("pull0"))
            elif kind == "detach" and interceptor is not None:
                interceptor.detach()
                interceptor = None
            # The fused call site follows reflection: native while the
            # slot is clean, interposed while anything intercepts it.
            assert (port.pull_batch == queue.pull_batch) == (interceptor is None)
        assert queue.stats() == reference.stats()
        assert queue.depth == reference.depth


# -- sharded differential: live resizes against an uncompiled oracle --------

SHARD_ROUTES = {"10.0.0.0/8": "east", "0.0.0.0/0": "west"}
FLOWS = [(f"10.6.{i}.1", 3000 + 17 * i) for i in range(6)]
BUCKETS = 16


def frame_for(flow, seq):
    src, sport = flow
    return make_udp_v4(
        src, "10.9.9.9", sport=sport, dport=80, payload=pack("!I", seq)
    ).to_bytes()


class ByteRecorder:
    def __init__(self):
        self.flows = defaultdict(list)

    def handler(self, shard_index):
        def on_frame(frame):
            self.flows[frame.flow_key()].append(frame.to_bytes())
            release_dropped(frame)

        return on_frame

    @property
    def total(self):
        return sum(len(frames) for frames in self.flows.values())


def build_sharded(shards, *, compiled):
    recorder = ByteRecorder()
    pools = carve_shard_pools(256, 320, shards, exhaustion_policy="drop-newest")
    datapath = build_sharded_forwarding_datapath(
        routes=SHARD_ROUTES,
        shards=shards,
        threads=ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler()),
        pools=pools,
        batch=4,
        rx_ring_size=1024,
        tx_handler=recorder.handler,
        buckets=BUCKETS,
        compiled=compiled,
    )
    return datapath, recorder, pools


shard_steps = st.lists(
    st.one_of(
        st.tuples(st.just("traffic"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("resize"), st.integers(min_value=1, max_value=6)),
    ),
    min_size=1,
    max_size=8,
)


class TestShardedDifferential:
    @_SETTINGS
    @given(schedule=shard_steps)
    def test_compiled_fleet_matches_interpreted_fleet(self, schedule):
        dut, dut_rec, dut_pools = build_sharded(2, compiled=True)
        oracle, oracle_rec, oracle_pools = build_sharded(2, compiled=False)
        seq = dict.fromkeys(FLOWS, 0)
        emitted = 0
        for kind, arg in schedule:
            if kind == "traffic":
                frames = []
                for _ in range(arg):
                    for flow in FLOWS:
                        frames.append(frame_for(flow, seq[flow]))
                        seq[flow] += 1
                        emitted += 1
                dut.steer_batch(frames)
                oracle.steer_batch(frames)
                dut.pump()
                oracle.pump()
            else:
                # The same resize on both fleets: refusals (bad target,
                # too few buckets) refuse identically.
                try:
                    dut.resize(arg)
                except ShardingError:
                    with pytest.raises(ShardingError):
                        oracle.resize(arg)
                    continue
                oracle.resize(arg)
                # The round settles re-specialised on the DUT only.
                for shard in dut.shards:
                    assert shard.engine.compiled_active
                for shard in oracle.shards:
                    assert shard.engine.compiled_plan is None
                dut.pump()
                oracle.pump()
        dut.shutdown(drain=True)
        oracle.shutdown(drain=True)

        assert dut_rec.total == emitted == oracle_rec.total
        assert set(dut_rec.flows) == set(oracle_rec.flows)
        for flow_key, frames in oracle_rec.flows.items():
            assert dut_rec.flows[flow_key] == frames
        # Zero pool leaks on either fleet (resizes re-carve the budget;
        # every slice must balance).
        for pools in (dut_pools, oracle_pools):
            for pool in pools:
                assert pool.acquired_total == pool.released_total
                assert pool.in_flight == 0
