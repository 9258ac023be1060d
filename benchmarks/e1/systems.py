"""The systems under test, assembled through the public builders only.

Each class is one closed-loop client's view of an assembly:
``offer(burst)`` offers one burst and pumps it to quiescence,
``reconfig(next_burst)`` runs one reconfiguration cycle into a live
backlog and returns its wall seconds, ``counters()`` snapshots the exact
event counts the layers keep, ``problems()`` audits the end state.

Tracing reaches the inner layers through seams the library exposes:
``tx_handler=`` (every egressed frame), ``engine=`` (the fleet's event
loop) and the ``Shard(push_batch=, flush=)`` constructor, by re-wrapping
the shards of a *builder-assembled* datapath — so whatever the builders
default to (fusion, compilation, ring sizes) is what the traced run
measures too.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from time import perf_counter
from typing import Any

from repro.netsim import Engine
from repro.opencom import Capsule, fuse_pipeline
from repro.osbase import (
    BufferPool,
    Nic,
    RoundRobinScheduler,
    Shard,
    ShardedDatapath,
    ThreadManagerCF,
    VirtualClock,
    shard_pool_audit,
)
from repro.router import (
    build_capsule_fleet,
    build_forwarding_pipeline,
    build_sharded_forwarding_datapath,
)

from benchmarks.e1.oracle import EgressSink
from benchmarks.e1.traffic import BURST

BATCH = 32
#: RSS buckets on the single-box workloads: several per shard, so a
#: resize moves few flows (and 2 <-> 4 <-> 8 are all reachable).
BUCKETS = 64
#: Counters that combine across datapaths by max / min instead of sum.
MAX_KEYS = {"virtual_s", "parked_peak", "backlog_peak"}
MIN_KEYS = {"pool.free_low_watermark"}
SPY = "e1-spy"


def new_threads() -> ThreadManagerCF:
    return ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler())


def merge(into: dict[str, float], other: dict[str, float]) -> dict[str, float]:
    for key, value in other.items():
        if key not in into:
            into[key] = value
        elif key in MAX_KEYS:
            into[key] = max(into[key], value)
        elif key in MIN_KEYS:
            into[key] = min(into[key], value)
        else:
            into[key] += value
    return into


def forwarder_vtable(pipeline: Any) -> Any:
    return pipeline.stages["forwarder"].interface("in0").vtable


class Spy:
    """A pre-interceptor that counts the calls it sees."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, ctx: Any) -> None:
        self.calls += 1


# -- tracing seams -----------------------------------------------------------------


class TracedEngine(Engine):
    """The fleet's event loop with a span around each ``run()``."""

    def __init__(self, tracer: Any) -> None:
        super().__init__()
        self.tracer = tracer

    def run(self, **kwargs: Any) -> int:
        with self.tracer.span("link.deliver"):
            return super().run(**kwargs)


class TracedDatapath(ShardedDatapath):
    """A sharded datapath with a span around each of its entry points."""

    def __init__(self, shards: list, *, tracer: Any, pump_span: str, **kwargs: Any) -> None:
        super().__init__(shards, **kwargs)
        self.tracer = tracer
        self.pump_span = pump_span
        self.backlog_peak = 0

    def steer(self, frame: Any) -> int | None:
        # Per frame (a capsule node steers each arriving frame).
        start = perf_counter()
        index = super().steer(frame)
        self.tracer.leaf("shard.steer", perf_counter() - start)
        return index

    def steer_batch(self, frames: list) -> int:
        with self.tracer.span("shard.steer"):
            return super().steer_batch(frames)

    def pump(self, **kwargs: Any) -> int:
        self.backlog_peak = max(self.backlog_peak, self.total_backlog())
        with self.tracer.span(self.pump_span):
            return super().pump(**kwargs)

    def resize(self, n: int) -> dict:
        with self.tracer.span("reconfig.round"):
            return super().resize(n)


def traced_datapath(
    built: ShardedDatapath,
    tracer: Any,
    handler_for: Callable[[int], Callable],
    *,
    pump_span: str = "runtime.pump",
) -> TracedDatapath:
    """Re-wrap a builder-assembled datapath: same NICs, pools, engines,
    compile hooks and steering parameters, with spans around every
    shard's ``push_batch`` and ``flush`` (and the shards it grows)."""
    span = tracer.span

    def rewrap(shard: Shard) -> Shard:
        engine = shard.engine
        handler = tracer.timed("tx.handler", handler_for(shard.shard_id))

        def push_batch(batch: list) -> None:
            with span("spine.push_batch"):
                engine.push_batch(batch)

        def flush() -> int:
            with span("tx.flush"):
                return engine.flush_tx(handler=handler)

        return Shard(
            shard.shard_id,
            nic=shard.nic,
            pool=shard.pool,
            push_batch=push_batch,
            flush=flush,
            engine=engine,
            decompile=shard.decompile,
            recompile=shard.recompile,
        )

    grow = built.shard_factory
    traced = TracedDatapath(
        [rewrap(shard) for shard in built.shards],
        tracer=tracer,
        pump_span=pump_span,
        threads=new_threads(),
        hash_fn=built.steering.hash_fn,
        batch=built.batch,
        steal_watermark=built.steal_watermark if built.supervised else None,
        supervise=built.supervised,
        reject=built.steering.reject,
        name=built.name,
        buckets=built.steering.buckets,
        shard_factory=lambda index, pool: rewrap(grow(index, pool)),
        locality=built.locality,
    )
    built.shutdown()
    return traced


# -- exact counters ----------------------------------------------------------------


SHARD_KEYS = ("nic.rx_drops", "nic.malformed_drops", "drop_ttl", "drop_checksum", "stolen_batches")


def shard_counters(shard: Shard) -> Counter:
    nic = shard.nic.counters
    ipv4 = shard.engine.stages["ipv4"].counters
    return Counter(
        {
            "nic.rx_drops": nic["rx_drops"],
            "nic.malformed_drops": nic["malformed_drops"],
            "drop_ttl": ipv4["drop:ttl-expired"],
            "drop_checksum": ipv4["drop:bad-checksum"],
            "stolen_batches": shard.counters["stolen_batches"],
        }
    )


def pool_counters(pools: list) -> dict[str, float]:
    return {
        "pool.acquired": sum(pool.acquired_total for pool in pools),
        "pool.exhaustion_events": sum(pool.exhaustion_events for pool in pools),
        "pool.in_flight": sum(pool.in_flight for pool in pools),
        "pool.free_low_watermark": min(pool.free_low_watermark for pool in pools),
    }


def datapath_counters(datapath: ShardedDatapath) -> dict[str, float]:
    """What one sharded datapath's layers counted so far (live shards)."""
    counters: Counter = Counter()
    for shard in datapath.shards:
        counters += shard_counters(shard)
    resizes = datapath.resizes
    return {
        **{key: counters[key] for key in SHARD_KEYS},
        **pool_counters([shard.pool for shard in datapath.shards]),
        "steer_refused": sum(datapath.steering.refused),
        "steer_malformed": datapath.steering.malformed,
        "rebalances": datapath.rebalances,
        "moved_buckets": sum(r["moved_buckets"] for r in resizes),
        "resize_drained": sum(r["drained_total"] for r in resizes),
        "parked_peak": max(
            (r["parked_flushed"] + r["parked_refused"] for r in resizes), default=0
        ),
        "backlog_peak": getattr(datapath, "backlog_peak", 0),
        "virtual_s": datapath.threads.clock.now,
        "quanta": sum(t.quanta_run for t in datapath.threads.threads()),
    }


def pool_problems(pools: list) -> list[str]:
    audit = shard_pool_audit(pools)
    if audit["balanced"]:
        return []
    return [
        f"pool audit unbalanced: acquired {audit['acquired_total']}, "
        f"released {audit['released_total']}, in flight {audit['in_flight']}"
    ]


# -- nic-spine ---------------------------------------------------------------------


class NicSpine:
    """Raw frames → pooled NIC RX → fused pipeline → TX flush.  No
    steering, no workers, no links."""

    POOL_BUFFERS = 512

    def __init__(self, routes: dict, sink: EgressSink, tracer: Any) -> None:
        self.tracer = tracer
        self.pool = BufferPool(2048, self.POOL_BUFFERS, exhaustion_policy="drop-newest")
        self.nic = Nic(rx_ring_size=BURST, pool=self.pool)
        self.pipeline = build_forwarding_pipeline(
            Capsule("e1-nic-spine"),
            routes=routes,
            tx_nics={hop: Nic(tx_ring_size=4 * BATCH) for hop in sorted(set(routes.values()))},
        )
        fuse_pipeline(list(self.pipeline.capsule.components().values()))
        handler = sink.handler("nic")
        self.handler = tracer.timed("tx.handler", handler) if tracer.enabled else handler
        self.spy = Spy()

    def _receive(self, burst: list) -> None:
        with self.tracer.span("nic.rx"):
            receive = self.nic.receive_frame
            for frame in burst:
                receive(frame)

    def _service(self, batches: int) -> None:
        span = self.tracer.span
        nic, pipeline, handler = self.nic, self.pipeline, self.handler
        while batches and nic.rx_depth:
            batch: list = []
            with span("nic.drain"):
                nic.drain_rx(batch.append, budget=BATCH)
            with span("spine.push_batch"):
                pipeline.push_batch(batch)
            with span("tx.flush"):
                pipeline.flush_tx(handler=handler)
            batches -= 1

    def offer(self, burst: list) -> None:
        self._receive(burst)
        self._service(BURST)

    def reconfig(self, next_burst: Callable[[], list]) -> float:
        """Install an interceptor on the forwarder's ``push`` slot with a
        burst on the RX ring, forward half the ring through it, remove
        it, forward the rest.  Timed: the install and the removal (each
        revokes or restores the fused handles bound to that slot)."""
        vtable = forwarder_vtable(self.pipeline)
        self._receive(next_burst())
        start = perf_counter()
        vtable.add_pre("push", SPY, self.spy)
        installed = perf_counter() - start
        self._service(BURST // BATCH // 2)
        start = perf_counter()
        vtable.remove_interceptor("push", SPY)
        removed = perf_counter() - start
        self._service(BURST)
        return installed + removed

    def counters(self) -> dict[str, float]:
        nic = self.nic.counters
        ipv4 = self.pipeline.stages["ipv4"].counters
        return {
            "nic.rx_drops": nic["rx_drops"],
            "nic.malformed_drops": nic["malformed_drops"],
            "drop_ttl": ipv4["drop:ttl-expired"],
            "drop_checksum": ipv4["drop:bad-checksum"],
            **pool_counters([self.pool]),
            "spy_calls": self.spy.calls,
        }

    def problems(self) -> list[str]:
        return pool_problems([self.pool])

    def close(self) -> None:
        pass


# -- box-8shard and reconfig-churn -------------------------------------------------


class Box:
    """Raw frames → RSS steering → N worker shards → per-shard TX flush.

    With *churn* ``(resize_every, intercept_every)`` the box is resized
    between its two sizes every ``resize_every`` bursts — after the burst
    is steered and before it is pumped, so every round lands on a live
    backlog — and a counting interceptor sits on shard 0's forwarder for
    one burst in every ``intercept_every``.
    """

    def __init__(
        self,
        routes: dict,
        sink: EgressSink,
        tracer: Any,
        *,
        shards: int,
        other: int,
        churn: tuple[int, int] | None = None,
    ) -> None:
        def handler_for(index: int) -> Callable:
            return sink.handler(f"shard{index}")

        datapath = build_sharded_forwarding_datapath(
            routes=routes,
            shards=shards,
            threads=new_threads(),
            batch=BATCH,
            rx_ring_size=BURST,
            fused=True,
            buckets=BUCKETS,
            tx_handler=handler_for,
            # A whole burst fits any one shard's slice at either size.
            pool_buffers=BURST * max(shards, other),
        )
        if tracer.enabled:
            datapath = traced_datapath(datapath, tracer, handler_for)
        self.datapath = datapath
        self.sizes = (shards, other)
        self.churn = churn
        self.bursts = 0
        self.pump_steps = 0
        self.spy = Spy()
        self.spied = 0
        #: Seconds of each grow and each shrink, in the order issued.
        self.resize_s: dict[str, list[float]] = {"grow": [], "shrink": []}
        #: Counters of shards and pools a resize has retired.
        self._retired: Counter = Counter()

    def _resize(self) -> float:
        datapath = self.datapath
        shards, other = self.sizes
        n = other if len(datapath.shards) == shards else shards
        pools = [shard.pool for shard in datapath.shards]
        retiring = datapath.shards[n:]
        start = perf_counter()
        datapath.resize(n)
        elapsed = perf_counter() - start
        # Every slice is re-carved by a resize, and a shrink drops the
        # shards beyond *n*: carry what they counted.
        carried = pool_counters(pools)
        self._retired["pool.acquired"] += carried["pool.acquired"]
        self._retired["pool.exhaustion_events"] += carried["pool.exhaustion_events"]
        for shard in retiring:
            self._retired += shard_counters(shard)
        self.resize_s["grow" if n > len(pools) else "shrink"].append(elapsed)
        return elapsed

    def offer(self, burst: list) -> None:
        datapath = self.datapath
        index = self.bursts
        self.bursts += 1
        datapath.steer_batch(burst)
        spying = False
        if self.churn is not None:
            resize_every, intercept_every = self.churn
            if index % resize_every == resize_every // 2:
                self._resize()
            spying = index % intercept_every == 0
        if spying:
            vtable = forwarder_vtable(datapath.shards[0].engine)
            before = datapath.shards[0].counters["processed_packets"]
            vtable.add_pre("push", SPY, self.spy)
        self.pump_steps += datapath.pump()
        if spying:
            vtable.remove_interceptor("push", SPY)
            self.spied += datapath.shards[0].counters["processed_packets"] - before

    def reconfig(self, next_burst: Callable[[], list]) -> float:
        """One resize away from the box's size and one back, each issued
        onto a steered, unpumped burst."""
        elapsed = 0.0
        for _ in range(2):
            self.datapath.steer_batch(next_burst())
            elapsed += self._resize()
            self.pump_steps += self.datapath.pump()
        return elapsed

    def in_lap_cycles(self) -> list[float]:
        """Seconds of each churn cycle: a grow plus the shrink after it.
        (A grow builds pipelines and a shrink only drains, so single
        rounds are bimodal; the pair is the unit.)"""
        return [g + s for g, s in zip(self.resize_s["grow"], self.resize_s["shrink"])]

    def counters(self) -> dict[str, float]:
        counters = datapath_counters(self.datapath)
        for key, value in self._retired.items():
            counters[key] += value
        counters["pump_steps"] = self.pump_steps
        counters["spy_calls"] = self.spy.calls
        return counters

    def problems(self) -> list[str]:
        problems = pool_problems([shard.pool for shard in self.datapath.shards])
        if self.spy.calls != self.spied:
            problems.append(
                f"interceptor saw {self.spy.calls} calls, shard 0 forwarded "
                f"{self.spied} frames while it was installed"
            )
        return problems

    def close(self) -> None:
        self.datapath.shutdown()


# -- fleet-2x2 ---------------------------------------------------------------------


class Fleet:
    """Raw frames → edge steering → links → capsule nodes, each a sharded
    datapath.  The only assembly that crosses edge → link → capsule."""

    def __init__(
        self, routes: dict, sink: EgressSink, tracer: Any, *, capsules: int = 2, shards: int = 2
    ) -> None:
        self.tracer = tracer
        self.shards = shards
        self.pump_steps = 0
        self.reconfigs = 0

        def handler_for(capsule: str, index: int) -> Callable:
            return sink.handler(f"{capsule}/shard{index}")

        self.fleet = fleet = build_capsule_fleet(
            capsules,
            routes=routes,
            shards=shards,
            tx_handler=handler_for,
            **({"engine": TracedEngine(tracer)} if tracer.enabled else {}),
        )
        if tracer.enabled:
            for name, node in fleet.capsules.items():
                node.datapath = traced_datapath(
                    node.datapath,
                    tracer,
                    lambda index, name=name: handler_for(name, index),
                    pump_span="capsule.pump",
                )

    def _ingest(self, burst: list) -> None:
        with self.tracer.span("edge.ingest"):
            ingest = self.fleet.ingest
            for frame in burst:
                ingest(frame)

    def _pump(self) -> None:
        with self.tracer.span("fleet.pump"):
            self.pump_steps += self.fleet.pump()

    def offer(self, burst: list) -> None:
        self._ingest(burst)
        self._pump()

    def reconfig(self, next_burst: Callable[[], list]) -> float:
        """Shrink one capsule's datapath by a shard and grow it back, each
        resize issued with that capsule's share of a burst delivered to
        its rings and not yet pumped.  Capsules take turns."""
        nodes = list(self.fleet.capsules.values())
        datapath = nodes[self.reconfigs % len(nodes)].datapath
        self.reconfigs += 1
        elapsed = 0.0
        for n in (self.shards - 1, self.shards):
            self._ingest(next_burst())
            self.fleet.engine.run()
            start = perf_counter()
            datapath.resize(n)
            elapsed += perf_counter() - start
            self._pump()
        return elapsed

    def counters(self) -> dict[str, float]:
        fleet = self.fleet
        counters: dict[str, float] = {}
        for node in fleet.capsules.values():
            merge(counters, datapath_counters(node.datapath))
        link_stats = [
            stats for link in fleet.topology.links for stats in link.stats().values()
        ]
        counters.update(
            {
                "pump_steps": self.pump_steps,
                "fleet.link_refused": fleet.counters["link_refused"],
                "fleet.malformed": fleet.counters["malformed"],
                "engine.events": fleet.engine.events_processed,
                "link.dropped": sum(
                    s.lost + s.dropped_backlog + s.dropped_down for s in link_stats
                ),
            }
        )
        return counters

    def problems(self) -> list[str]:
        fleet = self.fleet
        problems = pool_problems(
            [s.pool for node in fleet.capsules.values() for s in node.datapath.shards]
        )
        problems += [
            f"engine callback raised at t={when}: {error!r}"
            for when, error in fleet.engine.callback_errors
        ]
        return problems

    def close(self) -> None:
        for node in self.fleet.capsules.values():
            node.datapath.shutdown()
