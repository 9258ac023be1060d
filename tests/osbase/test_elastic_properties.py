"""Property-based suite for elastic resize invariants (C16).

Randomised schedules of traffic waves, committed resizes and aborted
rounds run against an elastic sharded datapath, with a single-shard
datapath as the sequential oracle: whatever the schedule, per-flow
egress must match the oracle byte for byte (which subsumes zero loss
and per-flow FIFO), bucket homes must move only when a committed resize
moves them, and the pooled-buffer books must balance across every
re-carve.

Two example budgets ship with the suite, selected by the
``REPRO_PROPERTY_PROFILE`` environment variable: ``bounded`` (the
default — tier-1 runs it, >= 200 schedules across the suite) and
``full`` (the bench harness's exhaustive profile; see
``benchmarks/run_all.py``).  The whole module is marked ``slow`` so the
property suites stay deselectable (``-m "not slow"``) without touching
the functional tests.
"""

from collections import defaultdict
from os import environ
from struct import pack

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim import make_udp_v4
from repro.osbase import (
    RoundRobinScheduler,
    ShardingError,
    ThreadManagerCF,
    VirtualClock,
    carve_shard_pools,
    release_dropped,
    shard_pool_audit,
)
from repro.router import build_sharded_forwarding_datapath

pytestmark = pytest.mark.slow

_PROFILES = {"bounded": 70, "full": 400}
_PROFILE = environ.get("REPRO_PROPERTY_PROFILE", "bounded")
_SETTINGS = settings(
    max_examples=_PROFILES.get(_PROFILE, _PROFILES["bounded"]),
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

ROUTES = {"10.0.0.0/8": "east", "0.0.0.0/0": "west"}
FLOWS = [(f"10.6.{i}.1", 3000 + 17 * i) for i in range(6)]
BUCKETS = 16


def frame_for(flow, seq):
    src, sport = flow
    return make_udp_v4(
        src, "10.9.9.9", sport=sport, dport=80, payload=pack("!I", seq)
    ).to_bytes()


class ByteRecorder:
    """TX-handler factory logging each egress frame's full wire bytes
    per flow (byte-for-byte oracle comparison needs the whole frame,
    not just the sequence number)."""

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


def build(shards, *, buckets=None):
    recorder = ByteRecorder()
    pools = carve_shard_pools(
        256, 320, shards, exhaustion_policy="drop-newest"
    )
    datapath = build_sharded_forwarding_datapath(
        routes=ROUTES,
        shards=shards,
        threads=ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler()),
        pools=pools,
        batch=4,
        rx_ring_size=1024,
        tx_handler=recorder.handler,
        buckets=buckets,
    )
    return datapath, recorder


# A schedule interleaves traffic waves, committed resizes (refused
# targets are a no-op) and aborted rounds (quiesce, park one wave,
# roll back).
steps = st.lists(
    st.one_of(
        st.tuples(st.just("traffic"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("resize"), st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("abort"), st.integers(min_value=1, max_value=8)),
    ),
    min_size=1,
    max_size=10,
)


class ScheduleRun:
    """Drive one randomised schedule against datapath + oracle."""

    def __init__(self):
        self.datapath, self.recorder = build(2, buckets=BUCKETS)
        self.oracle, self.oracle_recorder = build(1)
        self.seq = dict.fromkeys(FLOWS, 0)
        self.emitted = 0
        self.table_moves = []  # (before, after, record) per committed resize

    def emit(self, waves, *, pump=True):
        frames = []
        for _ in range(waves):
            for flow in FLOWS:
                frames.append(frame_for(flow, self.seq[flow]))
                self.seq[flow] += 1
                self.emitted += 1
        self.datapath.steer_batch(frames)
        self.oracle.steer_batch(frames)
        if pump:
            self.pump()

    def pump(self):
        self.datapath.pump()
        self.oracle.pump()

    def run(self, schedule):
        for kind, arg in schedule:
            if kind == "traffic":
                self.emit(arg)
            elif kind == "resize":
                before = list(self.datapath.steering.table)
                try:
                    record = self.datapath.resize(arg)
                except ShardingError:
                    continue
                after = list(self.datapath.steering.table)
                self.table_moves.append((before, after, record))
                self.pump()
            else:  # aborted round: quiesce, park a wave, roll back
                actions = self.datapath.resize_action_set()
                if not actions.quiesce({"shards": arg}):
                    continue
                self.emit(1, pump=False)  # parks on the elastic side
                actions.rollback({"shards": arg})
                actions.resume({"shards": arg})
                self.pump()
        self.emit(1)  # the fleet must still be live after the schedule
        return self

    def finish(self):
        self.datapath.shutdown(drain=True)
        self.oracle.shutdown(drain=True)


class TestElasticResizeProperties:
    @_SETTINGS
    @given(schedule=steps)
    def test_egress_matches_single_shard_oracle(self, schedule):
        run = ScheduleRun().run(schedule)
        run.finish()
        # Byte-for-byte per-flow equality against the sequential oracle
        # subsumes zero loss and per-flow FIFO in one comparison.
        assert run.oracle_recorder.total == run.emitted
        assert run.recorder.total == run.emitted
        assert set(run.recorder.flows) == set(run.oracle_recorder.flows)
        for flow_key, frames in run.oracle_recorder.flows.items():
            assert run.recorder.flows[flow_key] == frames

    @_SETTINGS
    @given(schedule=steps)
    def test_bucket_homes_move_only_with_a_committed_resize(self, schedule):
        run = ScheduleRun().run(schedule)
        # A flow's bucket never changes (the table length is pinned for
        # the steering's lifetime) ...
        assert run.datapath.steering.buckets == BUCKETS
        # ... and a bucket's home changes at most once per resize, never
        # for buckets the plan did not move.
        for before, after, record in run.table_moves:
            changed = [b for b in range(BUCKETS) if before[b] != after[b]]
            assert len(changed) == record["moved_buckets"]
            for bucket in range(BUCKETS):
                if bucket not in changed:
                    assert after[bucket] == before[bucket]
        run.finish()

    @_SETTINGS
    @given(schedule=steps)
    def test_books_balance_across_every_recarve(self, schedule):
        run = ScheduleRun().run(schedule)
        # Every committed resize hands the full budget over exactly.
        for _, _, record in run.table_moves:
            handoff = record["pool_handoff"]
            assert handoff["balanced"]
            for row in handoff["pools"]:
                assert row["acquired_total"] == row["released_total"]
                assert row["in_flight"] == 0
        run.finish()
        audit = shard_pool_audit([s.pool for s in run.datapath.shards])
        assert audit["balanced"]
