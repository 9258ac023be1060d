"""Property-based suite for the adaptation stratum (C19 invariants).

Two layers of randomisation:

- **Context-window signals**: arbitrary sample streams against
  brute-force oracles for every window accessor the policies rely on
  (mean/delta/rate/sustained/sustained-increase) — the policy layer's
  arithmetic must never drift from its definition.
- **Adaptation schedules**: random interleavings of traffic waves,
  rule-clean adaptations (scheduler/queue swaps, batch and steal
  retunes, elastic resizes) and deliberately unsafe requests, run
  against an adaptive system (admission tier + 2-shard datapath) with a
  single-shard datapath as the sequential oracle.  Whatever the
  schedule: every *applied* action leaves the system rule-valid
  (``manager.audit() == []``), every *vetoed* action leaves observable
  state byte-identical (per-flow egress bytes, stage counters, queue
  depths, shard stats, pool audit), and adaptation never violates
  per-flow FIFO — per-flow egress equals the oracle byte for byte,
  which subsumes zero loss.

Profiles via ``REPRO_PROPERTY_PROFILE``: ``bounded`` (tier-1 default)
and ``full`` (exhaustive, run by the bench harness — see
``benchmarks/run_all.py``).  The module is marked ``slow`` so the
property suites stay deselectable without touching functional tests.
"""

from collections import defaultdict
from os import environ
from struct import pack

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.appservices import (
    AdmissionQueueProbe,
    BacklogProbe,
    MonitorCF,
    PoolWatermarkProbe,
)
from repro.coordination import (
    AdaptationAction,
    AdaptationManager,
    ContextWindow,
    SystemView,
)
from repro.netsim import make_udp_v4
from repro.opencom.capsule import Capsule
from repro.opencom.component import Component
from repro.osbase import (
    RoundRobinScheduler,
    ThreadManagerCF,
    VirtualClock,
    carve_shard_pools,
    release_dropped,
    shard_pool_audit,
)
from repro.router import (
    AdmissionTier,
    DrrScheduler,
    FifoQueue,
    PriorityLinkScheduler,
    RedQueue,
    build_sharded_forwarding_datapath,
)

pytestmark = pytest.mark.slow

_PROFILES = {"bounded": 50, "full": 250}
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
#: (src, sport, dport) — dport 53 classifies interactive, rest bulk.
FLOWS = [
    ("10.6.0.1", 3000, 53),
    ("10.6.1.1", 3100, 53),
    ("10.6.2.1", 3200, 80),
    ("10.6.3.1", 3300, 80),
    ("10.6.4.1", 3400, 9000),
    ("10.6.5.1", 3500, 9000),
]
BUCKETS = 16
#: Queue capacities far above any schedule's in-flight total, RED
#: thresholds above that — the no-drop regime in which byte-equality
#: with the oracle is the exact specification.
CAPACITY = 4096


# ---------------------------------------------------------------------------
# Context-window accessors vs brute force
# ---------------------------------------------------------------------------

values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
#: Streams where each sample may or may not carry the signal.
streams = st.lists(
    st.tuples(st.booleans(), values), min_size=0, max_size=24
)


class TestContextWindowProperties:
    @_SETTINGS
    @given(stream=streams, size=st.integers(min_value=1, max_value=8))
    def test_series_mean_delta_match_bruteforce(self, stream, size):
        window = ContextWindow(size)
        for has, value in stream:
            window.record({"x": value} if has else {"other": value})
        expected = [v for has, v in stream[-size:] if has]
        assert window.series("x") == expected
        if expected:
            assert window.mean("x") == pytest.approx(
                sum(expected) / len(expected)
            )
        else:
            assert window.mean("x") == 0.0
        assert window.delta("x") == (
            expected[-1] - expected[0] if len(expected) >= 2 else 0.0
        )

    @_SETTINGS
    @given(
        stream=st.lists(values, min_size=0, max_size=16),
        size=st.integers(min_value=1, max_value=8),
        ticks=st.integers(min_value=1, max_value=6),
        threshold=values,
    )
    def test_sustained_matches_bruteforce(self, stream, size, ticks, threshold):
        window = ContextWindow(size)
        for value in stream:
            window.record({"x": value})
        visible = stream[-size:]
        tail = visible[-ticks:]
        expected = len(tail) >= ticks and all(v >= threshold for v in tail)
        assert window.sustained("x", lambda v: v >= threshold, ticks) == expected
        inc_tail = visible[-(ticks + 1):]
        expected_inc = len(inc_tail) >= ticks + 1 and all(
            b > a for a, b in zip(inc_tail, inc_tail[1:])
        )
        assert window.sustained_increase("x", ticks) == expected_inc

    @_SETTINGS
    @given(
        pairs=st.lists(
            st.tuples(values, st.floats(min_value=0.0, max_value=100.0)),
            min_size=0,
            max_size=12,
        ),
        size=st.integers(min_value=1, max_value=8),
    )
    def test_rate_matches_bruteforce(self, pairs, size):
        window = ContextWindow(size)
        t = 0.0
        stamped = []
        for value, dt in pairs:
            t += dt
            stamped.append((value, t))
            window.record({"x": value, "t": t})
        visible = stamped[-size:]
        if len(visible) < 2 or visible[-1][1] - visible[0][1] <= 0:
            assert window.rate("x") == 0.0
        else:
            dv = visible[-1][0] - visible[0][0]
            dt_total = visible[-1][1] - visible[0][1]
            assert window.rate("x") == pytest.approx(dv / dt_total)


# ---------------------------------------------------------------------------
# Adaptation schedules vs the static oracle
# ---------------------------------------------------------------------------

#: One schedule step: traffic, a rule-clean adaptation, or a
#: deliberately unsafe request that must be vetoed.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("traffic"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("swap-sched"), st.sampled_from(["priority", "drr"])),
        st.tuples(st.just("swap-queue"), st.sampled_from(["red", "fifo"])),
        st.tuples(st.just("batch"), st.integers(min_value=1, max_value=32)),
        st.tuples(st.just("steal"), st.integers(min_value=1, max_value=64)),
        st.tuples(st.just("resize"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("unsafe"), st.sampled_from(["round", "live-port", "cf"])),
    ),
    min_size=1,
    max_size=10,
)


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


def build_datapath(shards, recorder):
    return build_sharded_forwarding_datapath(
        routes=ROUTES,
        shards=shards,
        threads=ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler()),
        pools=carve_shard_pools(128, 320, shards, exhaustion_policy="drop-newest"),
        batch=4,
        rx_ring_size=1024,
        tx_handler=recorder.handler,
        buckets=BUCKETS,
    )


def red_factory():
    return RedQueue(
        CAPACITY, min_threshold=CAPACITY // 2, max_threshold=CAPACITY
    )


class ScheduleRun:
    """One randomised adaptation schedule against adaptive + oracle."""

    def __init__(self):
        self.recorder = ByteRecorder()
        self.oracle_recorder = ByteRecorder()
        self.datapath = build_datapath(2, self.recorder)
        self.oracle = build_datapath(1, self.oracle_recorder)
        self.tier = AdmissionTier(
            Capsule("edge"),
            self.datapath.steer_batch,
            classes={
                "interactive": lambda: FifoQueue(CAPACITY),
                "bulk": lambda: FifoQueue(CAPACITY),
            },
            filters=("dport=53 -> interactive",),
        )
        monitor = MonitorCF()
        monitor.accept(
            PoolWatermarkProbe(lambda: [s.pool for s in self.datapath.shards])
        )
        monitor.accept(BacklogProbe(self.datapath))
        monitor.accept(AdmissionQueueProbe(self.tier))
        self.manager = AdaptationManager(
            SystemView(datapath=self.datapath, admission=self.tier), monitor
        )
        self.seq = {flow: 0 for flow in FLOWS}
        self.emitted = 0
        self.audits_after_apply = []
        self.veto_snapshots_equal = []

    # -- observation -------------------------------------------------------

    def observe(self):
        """Everything a vetoed action must leave byte-identical."""
        return (
            {k: list(v) for k, v in self.recorder.flows.items()},
            self.tier.stage_stats(),
            self.tier.class_depth(),
            [shard.stats() for shard in self.datapath.shards],
            shard_pool_audit([s.pool for s in self.datapath.shards]),
        )

    # -- driving -----------------------------------------------------------

    def emit(self, waves):
        for _ in range(waves):
            packets, frames = [], []
            for flow in FLOWS:
                src, sport, dport = flow
                packet = make_udp_v4(
                    src, "10.9.9.9", sport=sport, dport=dport,
                    payload=pack("!I", self.seq[flow]),
                )
                self.seq[flow] += 1
                self.emitted += 1
                frames.append(packet.to_bytes())
                packets.append(packet)
            self.tier.push_batch(packets)
            self.oracle.steer_batch(frames)
            self.drain()

    def drain(self):
        while self.tier.service(64):
            pass
        self.datapath.pump()
        self.oracle.pump()

    def apply(self, action):
        assert self.manager.request(action), action.describe()
        self.audits_after_apply.append(self.manager.audit())
        self.drain()

    def request_unsafe(self, variant):
        vetoes_before = len(self.manager.vetoes)
        if variant == "round":
            target = 3 if len(self.datapath.shards) != 3 else 4
            actions = self.datapath.resize_action_set()
            if not actions.quiesce({"shards": target}):
                return
            before = self.observe()
            applied = self.manager.request(
                AdaptationAction("resize", {"shards": target})
            )
            after = self.observe()
            actions.rollback({"shards": target})
            actions.resume({"shards": target})
        elif variant == "live-port":
            before = self.observe()
            applied = self.manager.request(
                AdaptationAction(
                    "swap-scheduler",
                    {"factory": DrrScheduler, "quiesce": False},
                )
            )
            after = self.observe()
        else:  # cf: replacement violates the Router CF's shape rules
            before = self.observe()
            applied = self.manager.request(
                AdaptationAction(
                    "swap-queue", {"class": "bulk", "factory": Component}
                )
            )
            after = self.observe()
        assert not applied
        assert len(self.manager.vetoes) > vetoes_before
        self.veto_snapshots_equal.append(before == after)

    def run(self, schedule):
        for kind, arg in schedule:
            if kind == "traffic":
                self.emit(arg)
            elif kind == "swap-sched":
                factory = (
                    (lambda: PriorityLinkScheduler(["interactive", "bulk"]))
                    if arg == "priority"
                    else DrrScheduler
                )
                self.apply(AdaptationAction("swap-scheduler", {"factory": factory}))
            elif kind == "swap-queue":
                factory = (
                    red_factory if arg == "red" else (lambda: FifoQueue(CAPACITY))
                )
                self.apply(
                    AdaptationAction(
                        "swap-queue", {"class": "bulk", "factory": factory}
                    )
                )
            elif kind == "batch":
                self.apply(AdaptationAction("set-batch", {"n": arg}))
            elif kind == "steal":
                self.apply(AdaptationAction("set-steal-watermark", {"n": arg}))
            elif kind == "resize":
                if arg != len(self.datapath.shards):
                    self.apply(AdaptationAction("resize", {"shards": arg}))
            else:
                self.request_unsafe(arg)
        self.emit(1)  # the loop must still be serving after the schedule
        return self

    def finish(self):
        self.drain()
        self.datapath.shutdown(drain=True)
        self.oracle.shutdown(drain=True)


class TestAdaptationScheduleProperties:
    @_SETTINGS
    @given(schedule=steps)
    def test_adaptation_never_violates_per_flow_fifo(self, schedule):
        run = ScheduleRun().run(schedule)
        run.finish()
        # Byte-for-byte per-flow equality with the static single-shard
        # oracle subsumes zero loss and per-flow FIFO under *any*
        # interleaving of adaptations.
        assert run.oracle_recorder.total == run.emitted
        assert run.recorder.total == run.emitted
        assert set(run.recorder.flows) == set(run.oracle_recorder.flows)
        for flow_key, frames in run.oracle_recorder.flows.items():
            assert run.recorder.flows[flow_key] == frames

    @_SETTINGS
    @given(schedule=steps)
    def test_applied_actions_leave_system_rule_valid(self, schedule):
        run = ScheduleRun().run(schedule)
        # After every applied action the governed CFs re-validate clean.
        for audit in run.audits_after_apply:
            assert audit == []
        # And applied ∩ vetoed is empty by construction: every vetoed
        # action returned False and was never actuated.
        assert run.manager.audit() == []
        run.finish()
        audit = shard_pool_audit([s.pool for s in run.datapath.shards])
        assert audit["balanced"]

    @_SETTINGS
    @given(schedule=steps, tail=st.sampled_from(["round", "live-port", "cf"]))
    def test_vetoed_actions_leave_observable_state_identical(
        self, schedule, tail
    ):
        run = ScheduleRun().run(schedule)
        run.request_unsafe(tail)  # every example exercises >= 1 veto
        assert run.veto_snapshots_equal  # at least the forced one
        assert all(run.veto_snapshots_equal)
        assert len(run.manager.vetoes) >= 1
        for veto in run.manager.vetoes:
            assert veto.rule
            assert veto.reason
        run.finish()
