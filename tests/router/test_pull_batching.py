"""Pull-side batching semantics: scalar-vs-batch equivalence for every
IPacketPull provider, mid-stream interception revocation on the pull
path, and the scheduler empty-input-skip regression."""

import random

import pytest

from repro.netsim import make_udp_v4
from repro.opencom import CallCounter, Capsule, fuse_pipeline
from repro.router import (
    CollectorSink,
    DrrScheduler,
    FifoQueue,
    PriorityLinkScheduler,
    PullSource,
    RedQueue,
    WfqScheduler,
)

BATCH_SIZES = (1, 7, 32, 1000)  # 1000 > any queue used here
INPUTS = ("gold", "silver", "bronze")


def make_packets(count, seed, *, min_size=64, max_size=1400):
    rng = random.Random(seed)
    return [
        make_udp_v4(
            "10.0.0.1",
            "10.0.0.2",
            dport=rng.randrange(1, 4),
            payload=bytes(rng.randrange(min_size, max_size) - 28),
        )
        for _ in range(count)
    ]


def push(component, pkt):
    component.interface("in0").vtable.invoke("push", pkt)


def scalar_drain(provider, limit):
    """Pull through the provider's pull0 vtable, one packet at a time."""
    vtable = provider.interface("pull0").vtable
    out = []
    while len(out) < limit:
        packet = vtable.invoke("pull")
        if packet is None:
            break
        out.append(packet)
    return out


def batch_drain(provider, limit, batch_size):
    """Pull through the provider's pull0 vtable in pull_batch chunks."""
    vtable = provider.interface("pull0").vtable
    out = []
    while len(out) < limit:
        got = vtable.invoke_pull_batch("pull", min(batch_size, limit - len(out)))
        if not got:
            break
        out.extend(got)
    return out


# -- single-component providers ---------------------------------------------------


def build_fifo(capsule):
    queue = capsule.instantiate(lambda: FifoQueue(48), "q")
    for packet in make_packets(60, seed=1):  # 12 overflow drops
        push(queue, packet)
    return queue, {"q": queue}


def build_red(capsule):
    queue = capsule.instantiate(
        lambda: RedQueue(
            200, min_threshold=4, max_threshold=30,
            max_drop_probability=0.5, weight=0.3, seed=9,
        ),
        "q",
    )
    for packet in make_packets(120, seed=2):  # RED drops some on admission
        push(queue, packet)
    return queue, {"q": queue}


def build_source(capsule):
    source = capsule.instantiate(lambda: PullSource(make_packets(50, seed=3)), "src")
    return source, {"src": source}


# -- scheduler providers ----------------------------------------------------------


def build_scheduler(capsule, factory):
    scheduler = capsule.instantiate(factory, "sched")
    queues = {}
    rng = random.Random(17)
    for index, name in enumerate(INPUTS):
        queue = capsule.instantiate(lambda: FifoQueue(1000), f"q-{name}")
        capsule.bind(
            scheduler.receptacle("inputs"), queue.interface("pull0"),
            connection_name=name,
        )
        for packet in make_packets(20 + 5 * index, seed=100 + index):
            push(queue, packet)
        queues[name] = queue
    return scheduler, {"sched": scheduler, **queues}


PROVIDERS = {
    "fifo": build_fifo,
    "red": build_red,
    "source": build_source,
    "priority": lambda c: build_scheduler(
        c, lambda: PriorityLinkScheduler(list(INPUTS))
    ),
    "drr": lambda c: build_scheduler(
        c, lambda: DrrScheduler(quantum=900, quanta={"gold": 1800})
    ),
    "wfq": lambda c: build_scheduler(
        c, lambda: WfqScheduler(weights={"gold": 3.0, "silver": 1.0})
    ),
}

#: Partial-drain limit: smaller than every preload so residual depths are
#: non-trivial, checked alongside full drains.
PARTIAL = 23


def state_snapshot(stages):
    """Stats and depths of every component backing one provider."""
    snap = {}
    for name, component in stages.items():
        snap[name] = dict(component.stats())
        depth = getattr(component, "depth", None)
        if depth is None:
            depth = getattr(component, "remaining", None)
        snap[f"{name}:depth"] = depth
    return snap


class TestScalarBatchEquivalence:
    @pytest.mark.parametrize("provider", sorted(PROVIDERS))
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("limit", [PARTIAL, 10_000])
    def test_order_stats_depths_match(self, provider, batch_size, fused, limit):
        """pull_batch(n) chunks == a pull() loop: identical packet order,
        identical drop/served stats, identical residual queue depths —
        on both the indirect and the fused dispatch regime."""
        scalar_dut, scalar_stages = PROVIDERS[provider](Capsule("scalar"))
        batch_capsule = Capsule("batch")
        batch_dut, batch_stages = PROVIDERS[provider](batch_capsule)
        if fused:
            fuse_pipeline(list(batch_capsule.components().values()))

        scalar_order = [p.size_bytes for p in scalar_drain(scalar_dut, limit)]
        batch_order = [
            p.size_bytes for p in batch_drain(batch_dut, limit, batch_size)
        ]

        assert batch_order == scalar_order
        assert state_snapshot(batch_stages) == state_snapshot(scalar_stages)

    def test_port_handle_matches_vtable_path(self):
        """The synthesized port.pull_batch handle is the same dispatch as
        vtable.invoke_pull_batch (schedulers consume queues through it)."""
        scheduler, stages = build_scheduler(
            Capsule("port"), lambda: PriorityLinkScheduler(list(INPUTS))
        )
        _, reference_stages = build_scheduler(
            Capsule("ref"), lambda: PriorityLinkScheduler(list(INPUTS))
        )
        port = scheduler.receptacle("inputs").port("gold")
        via_port = port.pull_batch(5)
        via_vtable = reference_stages["gold"].interface("pull0").vtable.invoke_pull_batch(
            "pull", 5
        )
        assert [p.size_bytes for p in via_port] == [
            p.size_bytes for p in via_vtable
        ]
        assert stages["gold"].counters["tx"] == 5
        assert stages["gold"].depth == 15


class TestPullInterceptionMidStream:
    def test_interceptor_mid_stream_reverts_to_interposed_pulls(self):
        """Satellite: registering an interceptor mid-pull_batch stream
        reverts the slot to per-item interposed pulls and the interceptor
        observes every subsequent packet (pull-side mirror of
        test_batch_dispatch interception)."""
        capsule = Capsule("icept")
        scheduler, stages = build_scheduler(
            capsule, lambda: PriorityLinkScheduler(list(INPUTS))
        )
        queues = {k: v for k, v in stages.items() if k != "sched"}
        sink = capsule.instantiate(CollectorSink, "sink")
        capsule.bind(scheduler.receptacle("out"), sink.interface("in0"))
        plan = fuse_pipeline(list(capsule.components().values()))
        assert plan.fused_count > 0
        total = sum(q.depth for q in queues.values())

        first = scheduler.service(budget=10)
        assert first == 10

        vtable = queues["gold"].interface("pull0").vtable
        seen = []
        vtable.add_post("pull", "audit", lambda ctx: seen.append(ctx.result))
        gold_left = queues["gold"].depth

        scheduler.service(budget=10_000)
        # Every remaining gold packet crossed the interceptor one by one
        # (plus the trailing None probes that ended each gold drain).
        assert [p for p in seen if p is not None] and len(
            [p for p in seen if p is not None]
        ) == gold_left
        # Delivery is complete regardless of the regime change.
        assert sink.collected_count() == total

    def test_indirect_pull_batch_also_observes_interceptors(self):
        capsule = Capsule("icept2")
        queue = capsule.instantiate(lambda: FifoQueue(100), "q")
        packets = make_packets(12, seed=4)
        for packet in packets:
            push(queue, packet)
        vtable = queue.interface("pull0").vtable
        seen = []
        vtable.add_post("pull", "audit", lambda ctx: seen.append(ctx.result))
        got = vtable.invoke_pull_batch("pull", 12)
        assert got == seen == packets

    def test_removing_interceptor_restores_native_batch(self):
        capsule = Capsule("icept3")
        scheduler = capsule.instantiate(
            lambda: PriorityLinkScheduler(["q"]), "sched"
        )
        queue = capsule.instantiate(lambda: FifoQueue(100), "q")
        capsule.bind(
            scheduler.receptacle("inputs"), queue.interface("pull0"),
            connection_name="q",
        )
        for packet in make_packets(10, seed=5):
            push(queue, packet)
        port = scheduler.receptacle("inputs").port("q")
        port.fuse()
        assert port.pull_batch == queue.pull_batch
        vtable = queue.interface("pull0").vtable
        seen = []
        vtable.add_post("pull", "spy", lambda ctx: seen.append(ctx.result))
        assert port.pull_batch != queue.pull_batch
        assert len(port.pull_batch(4)) == 4
        assert len(seen) == 4
        vtable.remove_interceptor("pull", "spy")
        assert port.pull_batch == queue.pull_batch
        assert len(port.pull_batch(6)) == 6
        assert len(seen) == 4

    def test_fused_port_drains_like_interpreted_queue(self):
        """A fused port pulls the same packets, with the same queue stats,
        as the queue's own pull_batch — before and after reflection on
        the pull interface re-routes it through the interposed slot."""
        capsule = Capsule("icept4")
        scheduler = capsule.instantiate(
            lambda: PriorityLinkScheduler(["q"]), "sched"
        )
        queue = capsule.instantiate(lambda: FifoQueue(64), "q")
        reference = capsule.instantiate(lambda: FifoQueue(64), "q-ref")
        capsule.bind(
            scheduler.receptacle("inputs"), queue.interface("pull0"),
            connection_name="q",
        )
        trace = make_packets(10, seed=6)
        queue.push_batch(trace)
        reference.push_batch(list(trace))
        port = scheduler.receptacle("inputs").port("q")
        port.fuse()

        assert port.pull_batch(4) == reference.pull_batch(4)
        assert queue.stats() == reference.stats()

        counter = CallCounter()
        counter.attach_to(queue.interface("pull0"))
        assert port.pull_batch(100) == reference.pull_batch(100)
        assert counter.total() >= 6
        assert queue.depth == 0
        assert queue.stats() == reference.stats()


class TestSchedulerEmptyInputSkip:
    """Regression: a transient None (deficit still building, other inputs
    empty) must not end service while packets remain queued."""

    def _scheduler(self, capsule, factory, loads):
        scheduler = capsule.instantiate(factory, "sched")
        queues = {}
        for name, sizes in loads.items():
            queue = capsule.instantiate(lambda: FifoQueue(100), f"q-{name}")
            capsule.bind(
                scheduler.receptacle("inputs"), queue.interface("pull0"),
                connection_name=name,
            )
            for size in sizes:
                push(queue, make_udp_v4(
                    "10.0.0.1", "10.0.0.2", payload=bytes(size - 28)
                ))
            queues[name] = queue
        sink = capsule.instantiate(CollectorSink, "sink")
        capsule.bind(scheduler.receptacle("out"), sink.interface("in0"))
        return scheduler, queues, sink

    def test_drr_serves_packet_larger_than_quantum(self):
        """A head needing several quanta used to make pull() return a
        transient None, which service() read as exhaustion."""
        scheduler, queues, sink = self._scheduler(
            Capsule("drr-big"),
            lambda: DrrScheduler(quantum=500),
            {"only": [1200]},
        )
        assert scheduler.service(budget=10) == 1
        assert sink.collected_count() == 1
        assert queues["only"].depth == 0

    def test_drr_pull_returns_packet_not_transient_none(self):
        scheduler, _, _ = self._scheduler(
            Capsule("drr-pull"),
            lambda: DrrScheduler(quantum=100),
            {"only": [950]},
        )
        packet = scheduler.pull()
        assert packet is not None and packet.size_bytes == 950

    def test_drr_other_inputs_not_stranded_by_big_head(self):
        """One oversized head must not strand the other input's backlog."""
        scheduler, queues, sink = self._scheduler(
            Capsule("drr-multi"),
            lambda: DrrScheduler(quantum=500),
            {"big": [1400, 100], "small": [100, 100, 100]},
        )
        serviced = scheduler.service(budget=100)
        assert serviced == 5
        assert sink.collected_count() == 5
        assert all(q.depth == 0 for q in queues.values())

    def test_drr_empty_ring_still_returns_none(self):
        capsule = Capsule("drr-empty")
        scheduler = capsule.instantiate(lambda: DrrScheduler(quantum=500), "s")
        assert scheduler.pull() is None
        assert scheduler.service(budget=4) == 0

    def test_drr_all_inputs_empty_terminates(self):
        scheduler, _, _ = self._scheduler(
            Capsule("drr-drained"),
            lambda: DrrScheduler(quantum=500),
            {"a": [], "b": []},
        )
        assert scheduler.pull() is None

    def test_drr_rejects_non_positive_quanta(self):
        with pytest.raises(ValueError):
            DrrScheduler(quantum=0)
        with pytest.raises(ValueError):
            DrrScheduler(quantum=500, quanta={"a": 0})
