"""Functional tests for the adaptation stratum: context window, monitor
CF, dead-worker tolerance, the typed veto path of every adaptation rule,
and the closed loop on the shared engine."""

from struct import pack

import pytest

from repro.appservices import (
    AdmissionQueueProbe,
    BacklogProbe,
    DropCounterProbe,
    MonitorCF,
    PoolWatermarkProbe,
)
from repro.coordination import (
    AdaptationAction,
    AdaptationError,
    AdaptationManager,
    AdaptationVeto,
    ClassStarvationPolicy,
    ContextWindow,
    MonitorThread,
    SustainedBurstPolicy,
    SystemView,
)
from repro.netsim import make_udp_v4
from repro.opencom.capsule import Capsule
from repro.opencom.component import Component
from repro.opencom.errors import RuleViolation
from repro.osbase import (
    RoundRobinScheduler,
    ShardingError,
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

ROUTES = {"10.1.0.0/16": "east", "0.0.0.0/0": "west"}


def make_packets(n, *, dport=80, tick=0):
    return [
        make_udp_v4(f"10.7.{tick % 200}.{i % 200}", "10.1.0.9",
                    sport=2000 + i, dport=dport, payload=pack("!I", i))
        for i in range(n)
    ]


def build_system(*, shards=2, fused=False, compiled=False, policies=(),
                 window_size=16):
    """Datapath + admission tier + monitor CF + manager, fully wired."""
    threads = ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler())
    pools = carve_shard_pools(256, 256, shards, exhaustion_policy="drop-newest")
    egressed = []

    def handler(shard_index):
        def on_frame(frame):
            egressed.append(frame.flow_key())
            release_dropped(frame)

        return on_frame

    datapath = build_sharded_forwarding_datapath(
        routes=ROUTES, shards=shards, threads=threads, pools=pools,
        batch=8, rx_ring_size=1024, fused=fused, compiled=compiled,
        tx_handler=handler, buckets=16,
    )
    tier = AdmissionTier(
        Capsule("edge"), datapath.steer_batch,
        classes={"interactive": lambda: FifoQueue(16),
                 "bulk": lambda: FifoQueue(512)},
        filters=("dport=53 -> interactive",),
    )
    monitor = MonitorCF()
    monitor.accept(PoolWatermarkProbe(lambda: [s.pool for s in datapath.shards]))
    monitor.accept(BacklogProbe(datapath))
    monitor.accept(AdmissionQueueProbe(tier))
    view = SystemView(datapath=datapath, admission=tier)
    manager = AdaptationManager(
        view, monitor, policies=list(policies), window_size=window_size
    )
    return {
        "threads": threads,
        "datapath": datapath,
        "tier": tier,
        "monitor": monitor,
        "manager": manager,
        "egressed": egressed,
    }


def serve(system, *, packets=12, dport=80, tick=0):
    """Push one wave through admission → datapath → egress; returns the
    egress count delta (the system-keeps-serving probe)."""
    before = len(system["egressed"])
    system["tier"].push_batch(make_packets(packets, dport=dport, tick=tick))
    while system["tier"].service(64):
        pass
    system["datapath"].pump()
    return len(system["egressed"]) - before


def teardown(system):
    system["datapath"].shutdown(drain=True)
    audit = shard_pool_audit([s.pool for s in system["datapath"].shards])
    assert audit["balanced"]


class TestContextWindow:
    def test_record_evicts_oldest_beyond_size(self):
        window = ContextWindow(3)
        for i in range(5):
            window.record({"x": float(i)})
        assert len(window) == 3
        assert window.series("x") == [2.0, 3.0, 4.0]

    def test_accessors(self):
        window = ContextWindow(8)
        for i, x in enumerate([1.0, 3.0, 6.0, 10.0]):
            window.record({"x": x, "t": float(2 * i)})
        assert window.latest("x") == 10.0
        assert window.latest("missing", default=-1.0) == -1.0
        assert window.mean("x") == 5.0
        assert window.mean("x", ticks=2) == 8.0
        assert window.delta("x") == 9.0
        assert window.rate("x") == pytest.approx(9.0 / 6.0)
        assert window.sustained("x", lambda v: v >= 3.0, 3)
        assert not window.sustained("x", lambda v: v >= 3.0, 4)
        assert window.sustained_increase("x", 3)

    def test_sustained_needs_enough_samples(self):
        window = ContextWindow(8)
        window.record({"x": 5.0})
        assert not window.sustained("x", lambda v: v > 0, 2)
        assert not window.sustained_increase("x", 1)

    def test_missing_signal_samples_are_skipped(self):
        window = ContextWindow(4)
        window.record({"x": 1.0})
        window.record({"y": 9.0})
        window.record({"x": 2.0})
        assert window.series("x") == [1.0, 2.0]
        assert window.delta("x") == 1.0

    def test_bad_size_rejected(self):
        with pytest.raises(AdaptationError):
            ContextWindow(0)


class TestMonitorCF:
    def test_sample_all_merges_sources(self):
        cf = MonitorCF()
        cf.accept(DropCounterProbe({"a": lambda: 1}))
        cf.accept(DropCounterProbe({"b": lambda: 2}))
        assert cf.sample_all() == {"a": 1.0, "b": 2.0}

    def test_signal_collision_is_vetoed(self):
        cf = MonitorCF()
        cf.accept(DropCounterProbe({"drops": lambda: 1}))
        with pytest.raises(RuleViolation) as excinfo:
            cf.accept(DropCounterProbe({"drops": lambda: 2}))
        assert "already published" in str(excinfo.value)

    def test_non_signal_component_is_vetoed(self):
        cf = MonitorCF()
        with pytest.raises(RuleViolation):
            cf.accept(Component())


class TestDeadWorkerTolerance:
    """Regression: a crashed worker leaves its stale ring in place; the
    monitor must keep sampling without raising and must not fold the
    dead backlog into the live load picture."""

    def test_backlog_probe_survives_worker_crash(self):
        system = build_system(shards=2)
        datapath = system["datapath"]
        probe = BacklogProbe(datapath)
        serve(system, packets=16)
        datapath.inject_worker_crash(1)
        # Strand a backlog on the dead shard: feed without pumping so
        # the crash (next quantum) leaves frames ringed behind it.
        frames = [p.to_bytes() for p in make_packets(24, tick=3)]
        datapath.steer_batch(frames)
        system["threads"].step_parallel(datapath.cores)  # the quantum that kills
        reading = probe.sample()  # must not raise
        assert reading["dead_workers"] == 1.0
        assert reading["live_shards"] == 1.0
        # Live-side signals exclude the dead shard's stale ring.
        live = datapath.live_shard_indices()
        assert live == [0]
        assert reading["backlog_total"] == float(
            sum(datapath.shards[i].backlog_depth for i in live)
        )
        dead_depth = datapath.shards[1].backlog_depth
        assert reading["dead_backlog"] == float(dead_depth)
        # Divergence over a single live shard is 0 by definition — the
        # naive max-min over all shards would read the stale ring.
        assert reading["backlog_divergence"] == 0.0
        # The supervisor failover steals the dead backlog; drain fully
        # before the pool-balance teardown.
        datapath.pump()
        teardown(system)

    def test_divergence_ignores_dead_shards(self):
        system = build_system(shards=2)
        datapath = system["datapath"]
        datapath.inject_worker_crash(0)
        system["threads"].step_parallel(datapath.cores)
        assert not datapath.worker_alive(0)
        assert datapath.worker_alive(1)
        assert datapath.backlog_divergence() == 0
        teardown(system)


class TestVetoPaths:
    """One test per adaptation rule: the unsafe action is refused with
    its typed reason, and the system keeps serving afterwards."""

    def test_no_resize_during_round(self):
        system = build_system(shards=2)
        datapath, manager = system["datapath"], system["manager"]
        actions = datapath.resize_action_set()
        assert actions.quiesce({"shards": 1})
        assert not manager.request(AdaptationAction("resize", {"shards": 4}))
        veto = manager.vetoes[-1]
        assert isinstance(veto, AdaptationVeto)
        assert veto.rule == "no-resize-during-round"
        assert "two-phase round" in veto.reason
        assert len(datapath.shards) == 2  # nothing actuated
        actions.rollback({"shards": 1})
        actions.resume({"shards": 1})
        assert serve(system) > 0
        assert datapath.parked_count() == 0
        # With the round closed the same action is clean.
        assert manager.request(AdaptationAction("resize", {"shards": 4}))
        assert len(datapath.shards) == 4
        assert serve(system, tick=1) > 0
        teardown(system)

    def test_no_swap_on_live_port(self):
        system = build_system(shards=2)
        manager, tier = system["manager"], system["tier"]
        unsafe = AdaptationAction(
            "swap-scheduler",
            {"factory": lambda: PriorityLinkScheduler(["interactive", "bulk"]),
             "quiesce": False},
        )
        assert not manager.request(unsafe)
        veto = manager.vetoes[-1]
        assert veto.rule == "no-swap-on-live-port"
        assert tier.describe()["scheduler"] == "DrrScheduler"  # untouched
        assert serve(system) > 0
        # Quiescing first makes the same opt-out action legal...
        tier.quiesce()
        assert manager.request(unsafe)
        tier.resume()
        assert tier.describe()["scheduler"] == "PriorityLinkScheduler"
        assert serve(system, tick=1) > 0
        teardown(system)

    def test_decompile_before_vtable_mutation(self):
        system = build_system(shards=2, fused=True, compiled=True)
        datapath, manager, tier = (
            system["datapath"], system["manager"], system["tier"],
        )
        assert datapath.compiled_shards() == [0, 1]
        unsafe = AdaptationAction(
            "swap-queue",
            {"class": "bulk",
             "factory": lambda: RedQueue(512, min_threshold=8, max_threshold=64),
             "decompile": False},
        )
        assert not manager.request(unsafe)
        veto = manager.vetoes[-1]
        assert veto.rule == "decompile-before-vtable-mutation"
        assert "shard0" in veto.reason
        assert tier.describe()["queues"]["bulk"] == "FifoQueue"
        assert serve(system) > 0
        # The default protocol decompiles, swaps, recompiles.
        safe = AdaptationAction(
            "swap-queue",
            {"class": "bulk",
             "factory": lambda: RedQueue(512, min_threshold=8, max_threshold=64)},
        )
        assert manager.request(safe)
        assert tier.describe()["queues"]["bulk"] == "RedQueue"
        assert datapath.compiled_shards() == [0, 1]  # specialisation restored
        assert serve(system, tick=1) > 0
        teardown(system)

    def test_cf_admissible(self):
        system = build_system(shards=2)
        manager, tier = system["manager"], system["tier"]
        # A bare component exposes no packet-passing port at all — the
        # Router CF's shape rule must reject it before any swap runs.
        unsafe = AdaptationAction(
            "swap-queue", {"class": "bulk", "factory": Component}
        )
        assert not manager.request(unsafe)
        veto = manager.vetoes[-1]
        assert veto.rule == "cf-admissible"
        assert "rejected by CF" in veto.reason
        assert tier.describe()["queues"]["bulk"] == "FifoQueue"
        missing = AdaptationAction("swap-queue", {"class": "bulk"})
        assert not manager.request(missing)
        assert manager.vetoes[-1].rule == "cf-admissible"
        assert serve(system) > 0
        teardown(system)

    def test_veto_leaves_counters_and_queues_untouched(self):
        system = build_system(shards=2)
        manager, tier = system["manager"], system["tier"]
        tier.push_batch(make_packets(10, dport=53))
        before = (tier.class_depth(), tier.stage_stats(), len(system["egressed"]))
        assert not manager.request(
            AdaptationAction(
                "swap-scheduler",
                {"factory": DrrScheduler, "quiesce": False},
            )
        )
        after = (tier.class_depth(), tier.stage_stats(), len(system["egressed"]))
        assert before == after
        while tier.service(64):
            pass
        system["datapath"].pump()
        teardown(system)


class TestRetuneValidation:
    def test_retune_batch_rejects_bad_values(self):
        system = build_system(shards=2)
        datapath = system["datapath"]
        for bad in (0, -1, True, "8"):
            with pytest.raises(ShardingError):
                datapath.retune_batch(bad)
        assert datapath.retune_batch(16) == (8, 16)
        assert datapath.batch == 16
        teardown(system)

    def test_retune_steal_watermark(self):
        system = build_system(shards=2)
        datapath = system["datapath"]
        old = datapath.steal_watermark
        assert datapath.retune_steal_watermark(old + 3) == (old, old + 3)
        with pytest.raises(ShardingError):
            datapath.retune_steal_watermark(0)
        teardown(system)


class TestClosedLoop:
    def test_monitor_thread_adapts_on_engine(self):
        """The whole loop on the shared engine: a starved interactive
        class flips DRR → priority; sustained drops flip bulk to RED."""
        system = build_system(
            shards=2,
            policies=[
                ClassStarvationPolicy(
                    klass="interactive",
                    scheduler_factory=lambda: PriorityLinkScheduler(
                        ["interactive", "bulk"]
                    ),
                    min_depth=14,
                    ticks=2,
                ),
                SustainedBurstPolicy(
                    queue_class="bulk",
                    red_factory=lambda: RedQueue(
                        512, min_threshold=64, max_threshold=256
                    ),
                    ticks=2,
                    batch=16,
                ),
            ],
        )
        datapath, tier, threads = (
            system["datapath"], system["tier"], system["threads"],
        )
        monitor_thread = MonitorThread(system["manager"], period=2)
        monitor_thread.spawn(threads)
        for tick in range(8):
            tier.push_batch(make_packets(20, dport=53, tick=tick))
            tier.push_batch(make_packets(10, dport=99, tick=tick))
            tier.service(8)
            datapath.pump()
            threads.step_parallel(datapath.cores + 1)
        kinds = [action.kind for action in system["manager"].applied]
        assert "swap-scheduler" in kinds
        assert "swap-queue" in kinds
        assert "set-batch" in kinds
        assert tier.describe()["scheduler"] == "PriorityLinkScheduler"
        assert tier.describe()["queues"]["bulk"] == "RedQueue"
        assert datapath.batch == 16
        assert system["manager"].audit() == []
        assert monitor_thread.ticks >= 2
        monitor_thread.stop()
        threads.step_parallel(datapath.cores + 1)
        assert monitor_thread.thread.done
        while tier.service(64):
            pass
        datapath.pump()
        teardown(system)

    def test_unknown_action_kind_rejected(self):
        with pytest.raises(AdaptationError):
            AdaptationAction("defragment", {})

    def test_monitor_thread_bad_period(self):
        with pytest.raises(AdaptationError):
            MonitorThread(manager=None, period=0)


class TestAdmissionTier:
    def test_quiesce_blocks_service_but_not_arrivals(self):
        system = build_system(shards=2)
        tier = system["tier"]
        tier.quiesce()
        tier.push_batch(make_packets(6))
        assert tier.depth() == 6
        assert tier.service(64) == 0
        tier.resume()
        while tier.service(64):
            pass
        system["datapath"].pump()
        assert len(system["egressed"]) == 6  # the parked wave served on resume
        teardown(system)

    def test_scheduler_swap_preserves_pending_heads(self):
        """DRR's pulled-but-unserved head packets are restitched to the
        queue fronts on swap: nothing lost, per-class FIFO intact."""
        system = build_system(shards=2)
        tier = system["tier"]
        tier.push_batch(make_packets(9, dport=53))
        tier.push_batch(make_packets(9, dport=99))
        tier.service(4)  # leaves a pending head inside the DRR
        scheduler = tier.pipeline.stages["scheduler"]
        assert getattr(scheduler, "_pending", None)  # head actually stashed
        total_inside = tier.depth()
        tier.quiesce()
        tier.swap_scheduler(
            lambda: PriorityLinkScheduler(["interactive", "bulk"])
        )
        tier.resume()
        assert tier.depth() == total_inside
        while tier.service(64):
            pass
        system["datapath"].pump()
        assert len(system["egressed"]) == 18
        teardown(system)

    def test_queue_swap_carries_backlog(self):
        system = build_system(shards=2)
        tier = system["tier"]
        tier.push_batch(make_packets(12, dport=99))
        assert tier.class_depth()["bulk"] == 12
        tier.quiesce()
        tier.swap_queue(
            "bulk", lambda: RedQueue(512, min_threshold=8, max_threshold=64)
        )
        tier.resume()
        assert tier.describe()["queues"]["bulk"] == "RedQueue"
        assert tier.class_depth()["bulk"] == 12  # STATE_ATTRS transfer
        while tier.service(64):
            pass
        system["datapath"].pump()
        assert len(system["egressed"]) == 12
        teardown(system)
